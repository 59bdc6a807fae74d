(* Per-layer accounting for the traced run.

   A ledger is a set of named, compensated sums. Traced ops add raw
   totals to it (microseconds, call counts, span counts) and the report
   reads every per-layer metric back as a ratio of two sums, so a metric
   averages over all the calls it saw, not over per-op averages. The
   measurements here are taken from the benchmark's own side of each
   layer's public functions, and from the spans the library records when
   it is handed a span recorder; nothing inside the library is changed. *)

type t = {
  sums : (string, Kahan.t) Hashtbl.t;
  chrome : Obs.Span.t;  (** The traced calls' spans, merged for export. *)
}

(* Enough spans for a readable profile: one simulate op (20 000 episode
   spans), or about fifty plan-cold ops. Later spans are not merged. *)
let chrome_cap = 25_000

let create () = { sums = Hashtbl.create 64; chrome = Obs.Span.create ~max_spans:chrome_cap () }

let add l key x =
  match Hashtbl.find_opt l.sums key with
  | Some k -> Kahan.add k x
  | None ->
      let k = Kahan.create () in
      Kahan.add k x;
      Hashtbl.add l.sums key k

let get l key =
  match Hashtbl.find_opt l.sums key with Some k -> Kahan.total k | None -> 0.0

(* [ratio l num den] is 0 when the layer never ran in this workload. *)
let ratio l num den =
  let d = get l den in
  if d > 0.0 then get l num /. d else 0.0

let us_since t0 = Obs_clock.elapsed_since t0 *. 1e6

(* [timed_us f] runs [f] and returns its result with its wall time in µs. *)
let timed_us f =
  let t0 = Obs_clock.now () in
  let r = f () in
  (r, us_since t0)

(* Folds the spans one traced call recorded into the ledger, and merges
   them into the Chrome profile while it has room. Only the planning and
   Monte-Carlo spans are summed; per-episode and farm spans go to the
   profile only (their cost shows in the trace overhead). *)
let add_spans l recorder =
  if Obs.Span.count l.chrome < chrome_cap then Obs.Span.absorb l.chrome recorder;
  List.iter
    (fun (s : Obs.Span.span) ->
      match s.name with
      | "guideline.plan" ->
          add l "plan_us" s.dur_us;
          add l "plans_spanned" 1.0
      | "plan.bracket" -> add l "bracket_us" s.dur_us
      | "plan.evaluate" ->
          add l "evaluate_us" s.dur_us;
          add l "evaluates" 1.0
      | "recurrence.generate" -> (
          add l "generate_us" s.dur_us;
          add l "generates" 1.0;
          match List.assoc_opt "periods" s.attrs with
          | Some (Jsonx.Int n) -> add l "periods" (float_of_int n)
          | _ -> ())
      | "plan.expected_work" ->
          add l "expected_work_us" s.dur_us;
          add l "expected_works" 1.0
      | "mc.estimate" ->
          add l "mc_estimate_us" s.dur_us;
          add l "mc_estimates" 1.0
      | "mc.chunk" ->
          add l "mc_chunk_us" s.dur_us;
          add l "mc_chunks" 1.0
      | _ -> ())
    (Obs.Span.spans recorder)

(* A fresh span recorder and the handle that carries it. *)
let spanned () =
  let r = Obs.Span.create () in
  (r, Obs.create ~spans:r ())

(* [plan_spans l lf ~c] plans once with a span recorder attached, for
   the planner's phase breakdown. *)
let plan_spans l lf ~c =
  let r, obs = spanned () in
  ignore (Guideline.plan ~obs lf ~c : Guideline.result);
  add_spans l r

type calls = { mutable evals : int; mutable derivs : int }

(* [counting calls lf] is [lf] behind a wrapper that counts every call the
   planner makes to p and p'. The wrapper keeps support and shape, so the
   planner takes the same path and returns the same plan. *)
let counting calls lf =
  Life_function.make ~validate:false ~name:(Life_function.name lf)
    ~support:(Life_function.support lf) ~shape:(Life_function.shape lf)
    ~dp:(fun t ->
      calls.derivs <- calls.derivs + 1;
      Life_function.deriv lf t)
    (fun t ->
      calls.evals <- calls.evals + 1;
      Life_function.eval lf t)

(* One untimed counting plan of [lf] at [c]. *)
let count_plan_calls l lf ~c =
  let calls = { evals = 0; derivs = 0 } in
  ignore (Guideline.plan (counting calls lf) ~c : Guideline.result);
  add l "evals" (float_of_int calls.evals);
  add l "derivs" (float_of_int calls.derivs);
  add l "counted_plans" 1.0

(* Micro-loop: 1024 evaluations of [lf] spread over its horizon. *)
let eval_cost l lf =
  let h = Life_function.horizon lf in
  let xs = Array.init 64 (fun i -> h *. (float_of_int i +. 0.5) /. 64.0) in
  let reps = 16 in
  let (), us =
    timed_us (fun () ->
        for _ = 1 to reps do
          Array.iter
            (fun x -> ignore (Sys.opaque_identity (Life_function.eval lf x)))
            xs
        done)
  in
  add l "eval_ns" (us *. 1e3);
  add l "eval_calls" (float_of_int (reps * Array.length xs))

(* Sixteen x64 batches from [sampler]; returns the draws so that episode
   replays can use reclaim times drawn beforehand. *)
let draw_cost l sampler g =
  let draws = Array.make (16 * 64) 0.0 in
  let (), us =
    timed_us (fun () ->
        for i = 0 to Array.length draws - 1 do
          draws.(i) <- Reclaim.draw sampler g
        done)
  in
  add l "draw_ns" (us *. 1e3);
  add l "draws" (float_of_int (Array.length draws));
  (draws, us *. 1e3 /. float_of_int (Array.length draws))

(* [Episode.run] of [schedule] against each reclaim time in [draws]. *)
let episode_cost l schedule ~c draws =
  let (), us =
    timed_us (fun () ->
        Array.iter
          (fun reclaim_at ->
            ignore
              (Sys.opaque_identity (Episode.run schedule ~c ~reclaim_at)))
          draws)
  in
  add l "episode_ns" (us *. 1e3);
  add l "episodes_run" (float_of_int (Array.length draws));
  us *. 1e3 /. float_of_int (Array.length draws)

let reclaim_create l lf =
  let sampler, us = timed_us (fun () -> Reclaim.create lf) in
  add l "reclaim_create_us" us;
  add l "reclaim_creates" 1.0;
  (sampler, us)

(* Plans seen so far in this process, keyed by (physical p, bitwise c):
   the hash key narrows the search, physical equality decides. *)
type seen = (string * int64, Life_function.t) Hashtbl.t

let new_seen () : seen = Hashtbl.create 256

let note_plan l (seen : seen) lf ~c =
  let key = (Life_function.name lf, Int64.bits_of_float c) in
  let repeat = List.exists (fun p -> p == lf) (Hashtbl.find_all seen key) in
  if not repeat then Hashtbl.add seen key lf;
  add l "plans" 1.0;
  if repeat then add l "plan_repeats" 1.0

(* Every per-layer metric, in report order, as (name, unit, value) read
   from the ledger. The [gc.*] and [host.*] entries come from the
   untraced loop in [E2e]. *)
let metrics l =
  let frac_unexplained total parts = if total > 0.0 then (total -. parts) /. total else 0.0 in
  let plan_us = get l "plan_us" in
  [
    ("lifefn.make_us", "us", ratio l "make_us" "makes");
    ("lifefn.eval_calls_per_plan", "count", ratio l "evals" "counted_plans");
    ("lifefn.deriv_calls_per_plan", "count", ratio l "derivs" "counted_plans");
    ("lifefn.eval_ns", "ns", ratio l "eval_ns" "eval_calls");
    ("sched.plan_us", "us", ratio l "plan_us" "plans_spanned");
    ("sched.plans_per_op", "count", ratio l "plans" "ops");
    ("sched.plan_repeat_share", "frac", ratio l "plan_repeats" "plans");
    ("sched.bracket_us", "us", ratio l "bracket_us" "plans_spanned");
    ("sched.evals_per_plan", "count", ratio l "evaluates" "plans_spanned");
    ("sched.generate_us", "us", ratio l "generate_us" "generates");
    ("sched.expected_work_us", "us", ratio l "expected_work_us" "expected_works");
    ("sched.periods_per_eval", "count", ratio l "periods" "generates");
    ( "sched.plan_unexplained_frac",
      "frac",
      frac_unexplained plan_us (get l "bracket_us" +. get l "evaluate_us") );
    ("sim.reclaim_create_us", "us", ratio l "reclaim_create_us" "reclaim_creates");
    ("sim.draw_ns", "ns", ratio l "draw_ns" "draws");
    ("sim.episode_ns", "ns", ratio l "episode_ns" "episodes_run");
    ("sim.mc_chunk_us", "us", ratio l "mc_chunk_us" "mc_chunks");
    ( "sim.mc_gather_us",
      "us",
      if get l "mc_estimates" > 0.0 then
        (get l "mc_estimate_us" -. get l "mc_chunk_us") /. get l "mc_estimates"
      else 0.0 );
    ( "sim.mc_unexplained_frac",
      "frac",
      if get l "mc_predicted_us" > 0.0 then
        frac_unexplained (get l "untraced_us") (get l "mc_predicted_us")
      else 0.0 );
    ("sim.farm_policy_share", "frac", ratio l "farm_policy_us" "farm_run_us");
    ("sim.farm_episodes_per_op", "count", ratio l "farm_episodes" "ops");
    ("sim.farm_periods_per_op", "count", ratio l "farm_periods" "ops");
    ("sim.farm_loop_share", "frac", ratio l "farm_loop_us" "farm_run_us");
    ( "obs.trace_overhead_frac",
      "frac",
      frac_unexplained (get l "traced_us") (get l "untraced_us") );
  ]
