(* End-to-end benchmark: one closed loop, one caller, one process
   per workload. See README.md for the workloads, the metrics, and how
   to compare two commits.

     e2e --workload NAME --seed N --seconds S --trace 0|1 [--quick]

   Without --workload it runs every workload in its own child process,
   one after another. The last line of a single-workload run is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

type args = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
}

let parse_args () =
  let workload = ref None and seed = ref 1 and seconds = ref 20.0 in
  let trace = ref 0 and quick = ref false in
  let spec =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME one workload (default: all, each in a child process)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S wall seconds one run measures (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 1 reports the per-layer metrics instead (default 0)");
      ("--quick", Arg.Set quick, " run 0.5% of each workload's nominal ops instead of --seconds");
    ]
  in
  let usage = "e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "e2e: --trace takes 0 or 1";
    exit 2
  end;
  if not (!seconds > 0.0) then begin
    prerr_endline "e2e: --seconds must be > 0";
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; quick = !quick }

let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- host speed -------------------------------------------------------------- *)

(* A shared machine's speed drifts by tens of percent for seconds to
   minutes at a time, for every process alike. The benchmark therefore
   times a fixed calibration loop, which calls no library code, before
   each set-up and about every 0.25 s of the measured loop. End-to-end
   timings are reported at a fixed reference speed: each op's time is
   divided by the host factor around it, the median of the five
   calibrations nearest in time over [calibration_ref_s]. The raw
   wall-clock values are printed next to them.

   Half of the loop is float work on a cache-resident array, half
   allocates short-lived boxed floats. Each half alone slows down with
   the host by a different amount than the workloads do; together they
   track the workloads (README.md, "Host speed"). *)
let calibration_ref_s = 9e-4

let calibration_buf = Array.make 4096 0.0

(* (start, seconds) of every calibration so far, newest first. *)
let calibrations = ref []

let calibrate () =
  let t0 = Obs_clock.now () in
  for _ = 1 to 40 do
    for i = 0 to Array.length calibration_buf - 1 do
      calibration_buf.(i) <- sqrt (calibration_buf.(i) +. 1.0)
    done;
    ignore (Sys.opaque_identity (List.init 256 (fun i -> (i, float_of_int i))))
  done;
  for k = 1 to 20 do
    let xs = List.init 2000 (fun i -> float_of_int (i + k) *. 1.5) in
    ignore (Sys.opaque_identity (List.map (fun x -> x +. 1.0) xs))
  done;
  let dt = Obs_clock.elapsed_since t0 in
  calibrations := (t0, dt) :: !calibrations;
  dt

(* How much slower than the reference the host was, from calibration
   times [cs]. *)
let host_factor cs = Stats.quantile (Array.of_list cs) ~q:0.5 /. calibration_ref_s

(* [at_reference_speed ~starts times] divides each op's time by the host
   factor of the five calibrations nearest to its start. *)
let at_reference_speed ~starts times =
  let cal = Array.of_list (List.rev !calibrations) in
  let m = Array.length cal in
  let local =
    Array.init m (fun k ->
        let lo = Int.max 0 (k - 2) and hi = Int.min (m - 1) (k + 2) in
        host_factor (List.init (hi - lo + 1) (fun j -> snd cal.(lo + j))))
  in
  (* Index of the calibration nearest to [t]; calibrations are in time order. *)
  let nearest t =
    let rec first_from lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst cal.(mid) < t then first_from (mid + 1) hi else first_from lo mid
    in
    let k = first_from 0 m in
    if k = m then m - 1
    else if k > 0 && t -. fst cal.(k - 1) < fst cal.(k) -. t then k - 1
    else k
  in
  Array.mapi (fun i dt -> dt /. local.(nearest starts.(i))) times

(* --- the closed loop -------------------------------------------------------- *)

type loop = {
  latencies : float array;  (** Seconds per op, in op order. *)
  starts : float array;  (** Each op's {!Obs_clock} start. *)
  failed : int;
  digest : float;
  minor_words : float;
  major_collections : int;
  top_heap_words : float;
  cpu_share : float;
}

(* Runs ops [first], [first + 1], ... until [max_ops] have run or [budget]
   wall seconds have passed. Each op's inputs are drawn before its timer
   starts and its output is checked after the timer stops; [after] gets
   each op and its time, outside the timer too. The digest sums the
   results of ops with index below [digest_ops]. *)
let run_loop ~(next : int -> Prng.t -> Workload.op) ~g ~first ~max_ops ~budget ~digest_ops
    ?(after = fun _ _ -> ()) () =
  let m = Obs.Metrics.create () in
  let res = Obs.Resource.create m in
  let cpu0 = cpu_seconds () in
  let wall0 = Obs_clock.now () in
  let last_calibration = ref wall0 in
  (* Per-op records live off the OCaml heap: their buffers grow with the
     op count, which must not show in [peak_heap_mb]. *)
  let buffer cap = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout cap in
  let lat = ref (buffer 65536) and starts = ref (buffer 65536) in
  let n = ref 0 and failed = ref 0 in
  let digest = Kahan.create () in
  let push buf x =
    let cap = Bigarray.Array1.dim !buf in
    if !n >= cap then begin
      let grown = buffer (2 * cap) in
      Bigarray.Array1.blit !buf (Bigarray.Array1.sub grown 0 cap);
      buf := grown
    end;
    !buf.{!n} <- x
  in
  while !n < max_ops && Obs_clock.elapsed_since wall0 < budget do
    let i = first + !n in
    let op = next i g in
    let t0 = Obs_clock.now () in
    let ran = match op.Workload.run () with () -> true | exception _ -> false in
    let dt = Obs_clock.elapsed_since t0 in
    push lat dt;
    push starts t0;
    let ok = ran && (try op.Workload.check () with _ -> false) in
    if ok && i < digest_ops then Kahan.add digest (op.Workload.value ());
    let ok = ok && (try after op dt; true with _ -> false) in
    if not ok then incr failed;
    if Obs_clock.elapsed_since !last_calibration >= 0.25 then begin
      ignore (calibrate () : float);
      last_calibration := Obs_clock.now ()
    end;
    incr n
  done;
  let wall = Obs_clock.elapsed_since wall0 in
  let cpu = cpu_seconds () -. cpu0 in
  Obs.Resource.sample res;
  let gauge name = Obs.Metrics.gauge_value (Obs.Metrics.gauge m name) in
  {
    latencies = Array.init !n (fun i -> !lat.{i});
    starts = Array.init !n (fun i -> !starts.{i});
    failed = !failed;
    digest = Kahan.total digest;
    minor_words = gauge "gc.minor_words";
    major_collections = Obs.Metrics.count (Obs.Metrics.counter m "gc.major_collections");
    top_heap_words = gauge "gc.top_heap_words";
    cpu_share = (if wall > 0.0 then cpu /. wall else 0.0);
  }

(* --- reporting ------------------------------------------------------------ *)

let metric_json (name, unit_, value) =
  (name, Jsonx.Obj [ ("value", Jsonx.Float value); ("unit", Jsonx.String unit_) ])

let print_result ~attempted ~failed ~correct metrics =
  List.iter (fun (name, unit_, v) -> Printf.printf "  %-30s %14.6g %s\n" name v unit_) metrics;
  print_endline
    (Jsonx.to_string
       (Jsonx.Obj
          [
            ("correct", Jsonx.Bool correct);
            ("attempted", Jsonx.Int attempted);
            ("failed", Jsonx.Int failed);
            ("metrics", Jsonx.Obj (List.map metric_json metrics));
          ]))

let median xs = Stats.quantile xs ~q:0.5

(* Writes the traced calls' merged spans as a Chrome trace and checks the
   file's shape; false when the export does not validate. *)
let write_chrome (w : Workload.t) (l : Ledger.t) =
  let j = Obs.Span.to_chrome_json l.Ledger.chrome in
  match Obs.Span.validate_chrome j with
  | Error e ->
      Printf.printf "  chrome trace invalid: %s\n" e;
      false
  | Ok (events, depth) ->
      let dir = ".bench_e2e" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (w.Workload.name ^ ".chrome.json") in
      let oc = open_out path in
      output_string oc (Jsonx.to_string j);
      close_out oc;
      Printf.printf "  chrome trace %s: %d events, depth %d\n" path events depth;
      true

(* --- one workload ---------------------------------------------------------- *)

let run_workload args (w : Workload.t) =
  let nominal = w.Workload.nominal_ops in
  let quick_ops = Int.max 1 (nominal / 200) in
  let warm_ops = Int.max 1 ((if args.quick then quick_ops else nominal) / 50) in
  let root = Prng.create ~seed:(Int64.of_int args.seed) in
  let setup_g = Prng.split root in
  let warm_g = Prng.split root in
  let timed_g = Prng.split root in
  (* Set-up is built and warmed up several times from identical streams;
     the median time is reported and the last state is measured. It is
     scaled by the calibrations taken during set-up, which sees the host
     of the run's first seconds. *)
  let setup_once () =
    let cs = List.init 3 (fun _ -> calibrate ()) in
    let t0 = Obs_clock.now () in
    let next = w.Workload.prepare (Prng.copy setup_g) in
    let g = Prng.copy warm_g in
    for i = 0 to warm_ops - 1 do
      (next i g).Workload.run ()
    done;
    (next, Obs_clock.elapsed_since t0, cs)
  in
  let setups = List.init (if args.quick then 1 else 5) (fun _ -> setup_once ()) in
  let next, _, _ = List.nth setups (List.length setups - 1) in
  let setup_s = median (Array.of_list (List.map (fun (_, s, _) -> s) setups)) in
  let setup_host = host_factor (List.concat_map (fun (_, _, cs) -> cs) setups) in
  let max_ops, budget =
    if args.quick then (quick_ops, infinity)
    else (max_int, if args.trace then 0.4 *. args.seconds else args.seconds)
  in
  let a = run_loop ~next ~g:timed_g ~first:0 ~max_ops ~budget ~digest_ops:quick_ops () in
  let n = Array.length a.latencies in
  let nf = float_of_int n in
  Printf.printf "%s seed=%d trace=%d: set-up %.3f s (median of %d), %d ops, %d failed\n"
    w.Workload.name args.seed (Bool.to_int args.trace) setup_s (List.length setups) n a.failed;
  Printf.printf "  digest %s %.9g\n" w.Workload.name a.digest;
  Printf.printf "  host factor %.4f over the run, %.4f over set-up (%d calibrations, reference %g s)\n"
    (host_factor (List.map snd !calibrations))
    setup_host (List.length !calibrations) calibration_ref_s;
  if not args.trace then begin
    (* [ops_per_s], p50 and p99 of op times in seconds. *)
    let summary times =
      let ms = Array.map (fun s -> s *. 1e3) times in
      (nf /. Kahan.sum times, median ms, Stats.quantile ms ~q:0.99)
    in
    let ops_per_s, p50, p99 = summary a.latencies in
    Printf.printf "  error_rate %g over %d ops; latencies over n=%d ops\n"
      (float_of_int a.failed /. nf) n n;
    Printf.printf "  wall clock: setup_s %.6g, ops_per_s %.6g, latency_p50_ms %.6g, latency_p99_ms %.6g\n"
      setup_s ops_per_s p50 p99;
    print_endline "  at reference host speed:";
    let ops_per_s, p50, p99 = summary (at_reference_speed ~starts:a.starts a.latencies) in
    print_result ~attempted:n ~failed:a.failed ~correct:(a.failed = 0)
      [
        ("setup_s", "s", setup_s /. setup_host);
        ("ops_per_s", "1/s", ops_per_s);
        ("latency_p50_ms", "ms", p50);
        ("latency_p99_ms", "ms", p99);
        ( "peak_heap_mb",
          "MB",
          a.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0 );
      ]
  end
  else begin
    (* Traced phase: each op runs untraced, timed by the loop, then traced
       by its [trace], so both runs see the same inputs. *)
    let l = Ledger.create () in
    let after op dt =
      Ledger.add l "ops" 1.0;
      Ledger.add l "untraced_us" (dt *. 1e6);
      op.Workload.trace l
    in
    let max_ops, budget =
      if args.quick then (Int.max 1 (quick_ops / 4), infinity) else (max_int, 0.6 *. args.seconds)
    in
    let b = run_loop ~next ~g:timed_g ~first:n ~max_ops ~budget ~digest_ops:quick_ops ~after () in
    let nb = Array.length b.latencies in
    Printf.printf "  traced phase: %d ops, %d failed\n" nb b.failed;
    let metrics =
      Ledger.metrics l
      @ [
          ("gc.minor_words_per_op", "words", a.minor_words /. nf);
          ("gc.major_collections_per_op", "count", float_of_int a.major_collections /. nf);
          ("host.cpu_share", "frac", a.cpu_share);
        ]
    in
    List.iter
      (fun (name, _, v) ->
        if String.ends_with ~suffix:"_unexplained_frac" name && Float.abs v > 0.15 then
          Printf.printf "  warning: |%s| = %.3f > 0.15: the layer rows do not account for the total\n"
            name (Float.abs v))
      metrics;
    if a.cpu_share < 0.9 then
      Printf.printf "  warning: host.cpu_share = %.2f < 0.9: the run was preempted (disturbed)\n"
        a.cpu_share;
    let chrome_ok = write_chrome w l in
    let failed = a.failed + b.failed in
    print_result ~attempted:(n + nb) ~failed ~correct:(failed = 0 && chrome_ok) metrics
  end

(* Each workload in its own child process, one after another, so set-up
   time and heap size are per workload. *)
let run_all args =
  let base =
    [ "--seed"; string_of_int args.seed; "--seconds"; Printf.sprintf "%.17g" args.seconds;
      "--trace"; (if args.trace then "1" else "0") ]
    @ if args.quick then [ "--quick" ] else []
  in
  let ok =
    List.map
      (fun (w : Workload.t) ->
        let argv = Array.of_list (Sys.executable_name :: "--workload" :: w.Workload.name :: base) in
        flush stdout;
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false)
      Workload.all
  in
  if not (List.for_all Fun.id ok) then exit 1

let () =
  let args = parse_args () in
  match args.workload with
  | None -> run_all args
  | Some name -> (
      match Workload.find name with
      | Some w -> run_workload args w
      | None ->
          Printf.eprintf "e2e: unknown workload %S (known: %s)\n" name
            (String.concat ", " (List.map (fun (w : Workload.t) -> w.Workload.name) Workload.all));
          exit 2)
