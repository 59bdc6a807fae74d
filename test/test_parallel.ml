(* The determinism contract of lib/parallel (DESIGN.md §10): results are
   bit-identical for any domain count. These tests pin both halves —
   Domain_pool's chunk-order reduce discipline in isolation, and the
   instrumented hot paths (Monte_carlo, Optimizer, Guideline.plan_batch)
   run serially vs on a 4-domain pool. All float checks use exact
   equality (Alcotest's [float 0.0]): "close" would mask exactly the
   reduction-order bugs this layer exists to rule out. *)

let exact = Alcotest.(check (float 0.0))
let uniform_lf = Families.uniform ~lifespan:100.0
let schedule = (Guideline.plan uniform_lf ~c:1.0).Guideline.schedule

(* ---- Domain_pool mechanics ---- *)

let test_create_validation () =
  Alcotest.check_raises "domains 0" (Invalid_argument
    "Domain_pool.create: domains must be in [1, 128] (got 0)")
    (fun () -> ignore (Domain_pool.create ~domains:0));
  Domain_pool.with_pool ~domains:3 (fun p ->
      Alcotest.(check int) "domains" 3 (Domain_pool.domains p))

let test_parallel_for_covers_all_chunks () =
  Domain_pool.with_pool ~domains:4 (fun p ->
      let hits = Array.make 1000 0 in
      Domain_pool.parallel_for p ~chunks:1000 (fun i ->
          hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "each chunk exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_map_reduce_order () =
  (* A non-commutative reduce exposes any deviation from chunk-index
     order: build the chunk list and compare to the identity. *)
  Domain_pool.with_pool ~domains:4 (fun p ->
      let r =
        Domain_pool.map_reduce p ~chunks:100 ~map:(fun i -> [ i ])
          ~reduce:(fun acc x -> acc @ x)
          ~init:[]
      in
      Alcotest.(check (list int)) "in chunk order" (List.init 100 Fun.id) r)

let test_pool_reuse () =
  Domain_pool.with_pool ~domains:2 (fun p ->
      let total () =
        Domain_pool.map_reduce p ~chunks:50 ~map:Fun.id ~reduce:( + ) ~init:0
      in
      Alcotest.(check int) "first use" 1225 (total ());
      Alcotest.(check int) "second use" 1225 (total ());
      Alcotest.(check int) "third use" 1225 (total ()))

exception Chunk_failed of int

let test_exception_propagation () =
  Domain_pool.with_pool ~domains:4 (fun p ->
      (* Several chunks raise; the lowest-indexed failure must surface,
         matching what a serial in-order run would hit first. *)
      (try
         Domain_pool.parallel_for p ~chunks:64 (fun i ->
             if i mod 10 = 3 then raise (Chunk_failed i));
         Alcotest.fail "expected Chunk_failed"
       with Chunk_failed i ->
         Alcotest.(check int) "lowest failing chunk" 3 i);
      (* ... and the pool must remain usable afterwards. *)
      let r =
        Domain_pool.map_reduce p ~chunks:10 ~map:Fun.id ~reduce:( + ) ~init:0
      in
      Alcotest.(check int) "pool usable after failure" 45 r)

let test_shutdown () =
  let p = Domain_pool.create ~domains:2 in
  Domain_pool.shutdown p;
  Domain_pool.shutdown p;
  Alcotest.check_raises "use after shutdown"
    (Invalid_argument "Domain_pool.parallel_for: pool is shut down") (fun () ->
      Domain_pool.parallel_for p ~chunks:1 ignore)

let test_run_front_end () =
  let sum chunks f =
    let acc = Atomic.make 0 in
    f ~chunks (fun i -> ignore (Atomic.fetch_and_add acc i));
    Atomic.get acc
  in
  let serial = sum 100 (fun ~chunks f -> Domain_pool.run ~chunks f) in
  let pooled =
    Domain_pool.with_pool ~domains:3 (fun p ->
        sum 100 (fun ~chunks f -> Domain_pool.run ~pool:p ~chunks f))
  in
  Alcotest.(check int) "inline" 4950 serial;
  Alcotest.(check int) "pool" 4950 pooled

(* ---- the chunk-order tripwire ---- *)

let test_chunk_tripwire () =
  (* Two pooled jobs, 257 chunks in all: the claim protocol runs every
     chunk exactly once, so the tripwire counts no violation. *)
  Domain_pool.with_pool ~domains:3 (fun p ->
      let hits = Array.make 257 0 in
      Domain_pool.parallel_for p ~chunks:200 (fun i ->
          hits.(i) <- hits.(i) + 1);
      Domain_pool.parallel_for p ~chunks:57 (fun i ->
          hits.(200 + i) <- hits.(200 + i) + 1);
      Alcotest.(check bool) "each chunk exactly once" true
        (Array.for_all (fun h -> h = 1) hits);
      Alcotest.(check int) "no order violations" 0
        (Domain_pool.chunk_order_violations p))

let test_resource_sample_count () =
  (* The gc.samples counter and the accessor report the same count:
     one per sample call, and none for creating the sampler. *)
  let m = Obs.Metrics.create () in
  let res = Obs.Resource.create m in
  let counter () = Obs.Metrics.count (Obs.Metrics.counter m "gc.samples") in
  Alcotest.(check int) "none at create" 0 (counter ());
  Obs.Resource.sample res;
  Obs.Resource.sample res;
  Alcotest.(check int) "two samples" 2 (Obs.Resource.samples res);
  Alcotest.(check int) "counter = accessor" (Obs.Resource.samples res)
    (counter ())

(* ---- Prng.split_n: the chunk-stream grid ---- *)

let test_split_n () =
  let drain g = Array.init 8 (fun _ -> Prng.next_int64 g) in
  let a = Prng.split_n (Prng.create ~seed:9L) 5 in
  let b = Prng.split_n (Prng.create ~seed:9L) 5 in
  Alcotest.(check int) "count" 5 (Array.length a);
  (* Deterministic: same parent seed, same child streams, index-wise. *)
  Array.iteri
    (fun i gi ->
      Alcotest.(check (array int64))
        (Printf.sprintf "child %d reproducible" i)
        (drain gi) (drain b.(i)))
    a;
  (* A longer grid is a prefix-extension: chunk k's stream must not
     depend on how many chunks follow it (the grid geometry depends on
     the trial count, and trials differing must not re-seed chunk 0). *)
  let long = Prng.split_n (Prng.create ~seed:9L) 9 in
  let short = Prng.split_n (Prng.create ~seed:9L) 5 in
  Alcotest.(check (array int64))
    "prefix stability" (drain short.(0)) (drain long.(0))

(* ---- Monte_carlo: bit-identical across domain counts ---- *)

let check_estimate_equal msg (a : Monte_carlo.estimate)
    (b : Monte_carlo.estimate) =
  let lo_a, hi_a = a.ci95 and lo_b, hi_b = b.ci95 in
  Alcotest.(check int) (msg ^ ": trials") a.trials b.trials;
  exact (msg ^ ": mean_work") a.mean_work b.mean_work;
  exact (msg ^ ": ci95 lo") lo_a lo_b;
  exact (msg ^ ": ci95 hi") hi_a hi_b;
  exact (msg ^ ": mean_overhead") a.mean_overhead b.mean_overhead;
  exact (msg ^ ": mean_lost") a.mean_lost b.mean_lost;
  exact (msg ^ ": interrupted_fraction") a.interrupted_fraction
    b.interrupted_fraction;
  exact (msg ^ ": analytic") a.analytic b.analytic

let test_estimate_bit_identical () =
  (* 2500 trials → 5 chunks: enough to spread over 4 domains while
     staying fast. Also an uneven tail chunk (2500 = 4×512 + 452). *)
  let serial =
    Monte_carlo.estimate ~trials:2500 uniform_lf ~c:1.0 ~schedule ~seed:11L
  in
  let on domains =
    Domain_pool.with_pool ~domains (fun p ->
        Monte_carlo.estimate ~pool:p ~trials:2500 uniform_lf ~c:1.0 ~schedule
          ~seed:11L)
  in
  let four = on 4 and one = on 1 in
  check_estimate_equal "serial vs 4 domains" serial four;
  check_estimate_equal "serial vs 1 domain" serial one

let test_estimate_pool_reuse () =
  (* One pool, two different estimates: results must match the inline
     runs (pool identity carries no state between calls),
     and the reclaim stream of each call is fully seed-determined. *)
  Domain_pool.with_pool ~domains:4 (fun p ->
      let e1 =
        Monte_carlo.estimate ~pool:p ~trials:1500 uniform_lf ~c:1.0 ~schedule
          ~seed:3L
      in
      let e2 =
        Monte_carlo.estimate ~pool:p ~trials:1500 uniform_lf ~c:2.0 ~schedule
          ~seed:3L
      in
      let e1' =
        Monte_carlo.estimate ~trials:1500 uniform_lf ~c:1.0 ~schedule ~seed:3L
      in
      let e2' =
        Monte_carlo.estimate ~trials:1500 uniform_lf ~c:2.0 ~schedule ~seed:3L
      in
      check_estimate_equal "first call" e1' e1;
      check_estimate_equal "second call" e2' e2)

let test_estimate_validation () =
  Alcotest.check_raises "trials 1"
    (Invalid_argument "Monte_carlo.estimate: trials must be >= 2, got 1")
    (fun () ->
      ignore
        (Monte_carlo.estimate ~trials:1 uniform_lf ~c:1.0 ~schedule ~seed:1L))

let test_compare_policies_bit_identical () =
  let policies =
    [ ("guideline", schedule);
      ("half", (Guideline.plan uniform_lf ~c:0.5).Guideline.schedule) ]
  in
  let run ?pool () =
    Monte_carlo.compare_policies ?pool ~trials:1200 uniform_lf ~c:1.0
      ~policies ~seed:21L
  in
  let serial = run ()
  and four = Domain_pool.with_pool ~domains:4 (fun pool -> run ~pool ()) in
  Alcotest.(check int) "policy count" (List.length serial) (List.length four);
  List.iter2
    (fun (a : Monte_carlo.policy_run) (b : Monte_carlo.policy_run) ->
      Alcotest.(check string) "policy order" a.policy_name b.policy_name;
      Alcotest.(check int) "episodes" a.episodes b.episodes;
      exact "mean work" a.mean_work_per_episode b.mean_work_per_episode)
    serial four;
  (* Best-first ordering. *)
  (match serial with
  | first :: rest ->
      List.iter
        (fun (r : Monte_carlo.policy_run) ->
          Alcotest.(check bool) "sorted best-first" true
            (first.mean_work_per_episode >= r.mean_work_per_episode))
        rest
  | [] -> Alcotest.fail "no policies returned");
  Alcotest.check_raises "empty policies"
    (Invalid_argument
       "Monte_carlo.compare_policies: policies must not be empty")
    (fun () ->
      ignore
        (Monte_carlo.compare_policies ~trials:10 uniform_lf ~c:1.0 ~policies:[]
           ~seed:1L))

(* ---- Optimizer: multi-start + speculative sweep parity ---- *)

let test_optimizer_parallel_parity () =
  let geo_inc = Families.geometric_increasing ~lifespan:30.0 in
  let serial = Optimizer.optimal_schedule ~m_max:5 ~patience:2 geo_inc ~c:1.0 in
  let parallel =
    Domain_pool.with_pool ~domains:4 (fun p ->
        Optimizer.optimal_schedule ~pool:p ~m_max:5 ~patience:2 geo_inc ~c:1.0)
  in
  exact "expected_work" serial.Optimizer.expected_work
    parallel.Optimizer.expected_work;
  Alcotest.(check int) "m" serial.Optimizer.m parallel.Optimizer.m;
  Alcotest.(check int) "sweeps" serial.Optimizer.sweeps
    parallel.Optimizer.sweeps;
  Alcotest.(check (array (float 0.0)))
    "schedule periods"
    (Schedule.periods serial.Optimizer.schedule)
    (Schedule.periods parallel.Optimizer.schedule)

(* ---- Guideline.plan_batch ---- *)

let test_plan_batch_matches_plan () =
  let cs = [ 0.5; 1.0; 2.0; 3.0 ] in
  let weibull = Families.weibull ~shape:1.5 ~scale:80.0 in
  let scenarios =
    List.concat_map (fun lf -> List.map (fun c -> (lf, c)) cs)
      [ uniform_lf; weibull ]
  in
  let batch =
    Domain_pool.with_pool ~domains:4 (fun p ->
        Guideline.plan_batch ~pool:p scenarios)
  in
  let serial = List.map (fun (lf, c) -> Guideline.plan lf ~c) scenarios in
  Alcotest.(check int) "length" (List.length serial) (List.length batch);
  List.iter2
    (fun (a : Guideline.result) (b : Guideline.result) ->
      exact "t0" a.t0 b.t0;
      exact "expected_work" a.expected_work b.expected_work;
      Alcotest.(check (array (float 0.0)))
        "periods" (Schedule.periods a.schedule) (Schedule.periods b.schedule))
    serial batch;
  Alcotest.(check int) "empty batch" 0 (List.length (Guideline.plan_batch []))

let test_guideline_batch_dedups () =
  let lf = Families.uniform ~lifespan:100.0 in
  let lf2 = Families.geometric_increasing ~lifespan:30.0 in
  let batch = [ (lf, 1.0); (lf2, 1.0); (lf, 1.0); (lf, 2.0); (lf2, 1.0) ] in
  let rs = Array.of_list (Guideline.plan_batch batch) in
  Alcotest.(check int) "result per input" 5 (Array.length rs);
  (* Duplicates fan out the same computation: physically shared. *)
  Alcotest.(check bool) "dup scenario shares result" true (rs.(0) == rs.(2));
  Alcotest.(check bool) "dup scenario shares result (2)" true
    (rs.(1) == rs.(4));
  Alcotest.(check bool) "different c not shared" true (rs.(0) != rs.(3));
  (* And order matches the undeduped map. *)
  List.iteri
    (fun i (lf, c) ->
      let direct = Guideline.plan lf ~c in
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "slot %d matches direct" i)
        direct.Guideline.expected_work
        rs.(i).Guideline.expected_work)
    batch

(* ---- Observability merge: serial and parallel runs agree ---- *)

let obs_fingerprint ~domains =
  (* Span durations are wall-clock and exempt from the contract; the
     event stream and the span topology are not. *)
  let events = ref [] in
  let spans = Obs.Span.create () in
  let obs =
    Obs.create
      ~sink:(Obs.Sink.Custom (fun e -> events := e :: !events))
      ~spans ()
  in
  Domain_pool.with_pool ~domains (fun pool ->
      ignore
        (Monte_carlo.estimate ~obs ~pool ~trials:1500 uniform_lf ~c:1.0
           ~schedule ~seed:5L));
  ( List.rev !events,
    List.map
      (fun (s : Obs.Span.span) -> (s.name, s.parent, s.depth))
      (Obs.Span.spans spans) )

let test_obs_merge_parity () =
  let ev1, s1 = obs_fingerprint ~domains:1 in
  let ev4, s4 = obs_fingerprint ~domains:4 in
  Alcotest.(check bool) "events present" true (ev1 <> []);
  Alcotest.(check bool) "event streams equal" true (ev1 = ev4);
  Alcotest.(check (list (triple string int int)))
    "span topology" s1 s4

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "parallel_for coverage" `Quick
            test_parallel_for_covers_all_chunks;
          Alcotest.test_case "map_reduce order" `Quick test_map_reduce_order;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "shutdown" `Quick test_shutdown;
          Alcotest.test_case "run front-end" `Quick test_run_front_end;
        ] );
      ( "utilization",
        [
          Alcotest.test_case "accounting invariants" `Quick
            test_chunk_tripwire;
          Alcotest.test_case "resource sample count" `Quick
            test_resource_sample_count;
        ] );
      ("prng", [ Alcotest.test_case "split_n grid" `Quick test_split_n ]);
      ( "monte-carlo",
        [
          Alcotest.test_case "estimate bit-identical" `Quick
            test_estimate_bit_identical;
          Alcotest.test_case "estimate pool reuse" `Quick
            test_estimate_pool_reuse;
          Alcotest.test_case "estimate validation" `Quick
            test_estimate_validation;
          Alcotest.test_case "compare_policies bit-identical" `Quick
            test_compare_policies_bit_identical;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "parallel parity" `Quick
            test_optimizer_parallel_parity;
        ] );
      ( "guideline",
        [
          Alcotest.test_case "plan_batch matches plan" `Quick
            test_plan_batch_matches_plan;
          Alcotest.test_case "Guideline.plan_batch dedups" `Quick
            test_guideline_batch_dedups;
        ] );
      ( "obs",
        [ Alcotest.test_case "merge parity" `Quick test_obs_merge_parity ] );
    ]
