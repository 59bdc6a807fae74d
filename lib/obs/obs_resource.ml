(* Sampled GC observability: Gc.quick_stat deltas recorded as ordinary
   Obs_metrics instruments. Sole sanctioned Gc-stat call site (lint R9). *)

type t = {
  base : Gc.stat;
  mutable last : Gc.stat;
  c_samples : Obs_metrics.counter;
  c_minor : Obs_metrics.counter;
  c_major : Obs_metrics.counter;
  c_compact : Obs_metrics.counter;
  g_minor_words : Obs_metrics.gauge;
  g_promoted_words : Obs_metrics.gauge;
  g_major_words : Obs_metrics.gauge;
  g_heap_words : Obs_metrics.gauge;
  g_top_heap_words : Obs_metrics.gauge;
}

let create m =
  let base = Gc.quick_stat () in
  {
    base;
    last = base;
    c_samples = Obs_metrics.counter m "gc.samples";
    c_minor = Obs_metrics.counter m "gc.minor_collections";
    c_major = Obs_metrics.counter m "gc.major_collections";
    c_compact = Obs_metrics.counter m "gc.compactions";
    g_minor_words = Obs_metrics.gauge m "gc.minor_words";
    g_promoted_words = Obs_metrics.gauge m "gc.promoted_words";
    g_major_words = Obs_metrics.gauge m "gc.major_words";
    g_heap_words = Obs_metrics.gauge m "gc.heap_words";
    g_top_heap_words = Obs_metrics.gauge m "gc.top_heap_words";
  }

let sample t =
  let cur = Gc.quick_stat () in
  Obs_metrics.incr t.c_samples;
  Obs_metrics.add t.c_minor
    (cur.Gc.minor_collections - t.last.Gc.minor_collections);
  Obs_metrics.add t.c_major
    (cur.Gc.major_collections - t.last.Gc.major_collections);
  Obs_metrics.add t.c_compact (cur.Gc.compactions - t.last.Gc.compactions);
  Obs_metrics.set t.g_minor_words (cur.Gc.minor_words -. t.base.Gc.minor_words);
  Obs_metrics.set t.g_promoted_words
    (cur.Gc.promoted_words -. t.base.Gc.promoted_words);
  Obs_metrics.set t.g_major_words (cur.Gc.major_words -. t.base.Gc.major_words);
  Obs_metrics.set t.g_heap_words (float_of_int cur.Gc.heap_words);
  Obs_metrics.set t.g_top_heap_words (float_of_int cur.Gc.top_heap_words);
  t.last <- cur

let samples t = Obs_metrics.count t.c_samples
