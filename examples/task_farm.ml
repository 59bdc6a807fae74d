(* A data-parallel task farm over a network of workstations — the paper's
   motivating deployment (§1). A master owns a blocked matrix-multiply
   workload and steals cycles from three colleagues' machines, each with a
   different owner-behaviour profile. We compare scheduling policies at
   farm level, where the cost of a bad policy is wall-clock makespan.

   Run with: dune exec examples/task_farm.exe *)

let () =
  let c = 1.0 in

  (* The workload: a 24x24-block matrix product, each of the 576 blocks an
     independent task of 2·64³ flops at 2e-6 min per flop (~1.05 min). *)
  let blocks = 24 * 24 in
  let per_block = 2.0 *. Float.pow 64.0 3.0 *. 2e-6 in
  let total = Kahan.sum (Array.make blocks per_block) in
  Format.printf "Workload: %d block-multiply tasks, %.1f min total@." blocks
    total;

  (* The fleet: one predictable owner (uniform), one memoryless owner
     (geometric-decreasing), one coffee-breaker (geometric-increasing). *)
  let fleet =
    [
      {
        Farm.ws_life = Families.uniform ~lifespan:120.0;
        ws_presence_mean = 45.0;
      };
      {
        Farm.ws_life = Families.geometric_decreasing ~a:(exp 0.02);
        ws_presence_mean = 60.0;
      };
      {
        Farm.ws_life = Families.geometric_increasing ~lifespan:45.0;
        ws_presence_mean = 30.0;
      };
    ]
  in
  List.iteri
    (fun i ws ->
      Format.printf "  ws%d: %a, owner present %.0f min on average@." i
        Life_function.pp ws.Farm.ws_life ws.Farm.ws_presence_mean)
    fleet;

  let run ?obs policy seed =
    Farm.run ?obs
      {
        Farm.c;
        total_work = total;
        workstations = fleet;
        policy;
        max_time = 1e6;
      }
      ~seed
  in
  let policies =
    [
      Farm.guideline_policy;
      Farm.adaptive_policy;
      Farm.greedy_policy;
      Farm.fixed_chunk_policy ~chunk:10.0;
      Farm.fixed_chunk_policy ~chunk:60.0;
    ]
  in
  Format.printf "@.%-22s %12s %12s %10s@." "policy" "makespan" "work lost"
    "overhead";
  List.iter
    (fun policy ->
      (* Average over a handful of seeds for a stable ranking. *)
      let seeds = [ 1L; 2L; 3L; 4L; 5L ] in
      let n = float_of_int (List.length seeds) in
      let mk, lost, ovh =
        List.fold_left
          (fun (a, b, d) seed ->
            let r = run policy seed in
            ( a +. (r.Farm.makespan /. n),
              b +. (r.Farm.total_lost /. n),
              d +. (r.Farm.total_overhead /. n) ))
          (0.0, 0.0, 0.0) seeds
      in
      Format.printf "%-22s %12.1f %12.1f %10.1f@." policy.Farm.policy_name mk
        lost ovh)
    policies;

  (* Detail of one guideline run, with its event trace collected: the
     same report numbers, then the trace's own summary (the fold
     cstrace report prints and cstrace check judges). *)
  let events = ref [] in
  let sink = Obs.Sink.Custom (fun ev -> events := ev :: !events) in
  let r = run ~obs:(Obs.create ~sink ()) Farm.guideline_policy 42L in
  Format.printf "@.One guideline run in detail (seed 42):@.";
  Format.printf "  finished: %b, makespan %.1f min@." r.Farm.finished
    r.Farm.makespan;
  List.iter
    (fun w ->
      Format.printf
        "  ws%d: banked %.1f min over %d episodes (%d periods done, %d \
         killed, %.1f min lost)@."
        w.Farm.ws_id w.Farm.work_done w.Farm.episodes w.Farm.periods_completed
        w.Farm.periods_killed w.Farm.work_lost)
    r.Farm.per_workstation;
  Format.printf "@.The same run, folded back from its trace:@.%a"
    Trace_report.pp
    (Trace_report.of_events (List.rev !events))
