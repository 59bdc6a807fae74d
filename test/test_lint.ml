(* cslint rule fixtures: each rule gets a positive case, a suppressed
   case, and a clean case, asserted on exact finding counts and
   locations. Fixtures are inline strings fed through
   Lint_engine.lint_source, so the tests exercise the same parse +
   iterate + suppress pipeline as the CLI without touching the
   filesystem. *)

let lint ?(path = "lib/fixture.ml") src =
  match Lint_engine.lint_source ~path src with
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let rules (r : Lint_engine.report) =
  List.map (fun (f : Lint_finding.t) -> f.rule) r.findings

let check_rules name expected r =
  Alcotest.(check (list string)) name expected (rules r)

(* ---- R1: polymorphic comparison with float operands ---- *)

let test_r1_literal () =
  let r = lint "let f x = x = 1.0\n" in
  check_rules "literal rhs" [ "R1" ] r;
  let f = List.hd r.findings in
  Alcotest.(check int) "line" 1 f.Lint_finding.line;
  Alcotest.(check int) "col" 10 f.Lint_finding.col

let test_r1_arith_and_compare () =
  let r =
    lint "let f a b c = (a +. b) <> c\nlet g x = compare (x /. 2.0) 1\n"
  in
  check_rules "arith operands" [ "R1"; "R1" ] r

let test_r1_clean_and_suppressed () =
  check_rules "int = is fine" []
    (lint "let f x = x = 1\nlet g a b = Tol.equal a b\n");
  (* An ordering comparison on floats is not R1's business. *)
  check_rules "ordering is fine" [] (lint "let f x = x <= 1.0\n");
  let r = lint "let f x = (x = 1.0) [@lint.allow \"R1\"]\n" in
  check_rules "suppressed" [] r;
  Alcotest.(check int) "counted" 1 r.suppressed

(* ---- R2: naive float accumulation (lib/ and bench/ only) ---- *)

let test_r2_fold () =
  check_rules "List.fold_left" [ "R2" ]
    (lint "let s xs = List.fold_left ( +. ) 0.0 xs\n");
  check_rules "Array.fold_left" [ "R2" ]
    (lint ~path:"bench/fixture.ml" "let s a = Array.fold_left ( +. ) 0.0 a\n");
  (* A non-float fold is fine; so is a fold with a custom combiner. *)
  check_rules "int fold" [] (lint "let s xs = List.fold_left ( + ) 0 xs\n");
  check_rules "combiner" []
    (lint "let s xs = List.fold_left (fun a x -> a +. exp x) 0.0 xs\n")

let test_r2_ref_accumulation () =
  let src =
    "let s xs =\n\
    \  let acc = ref 0.0 in\n\
    \  List.iter (fun x -> acc := !acc +. x) xs;\n\
    \  !acc\n"
  in
  let r = lint src in
  check_rules "ref accumulation" [ "R2" ] r;
  Alcotest.(check int) "line" 3 (List.hd r.findings).Lint_finding.line;
  (* Flipped operand order still counts; -. does not (not accumulation). *)
  check_rules "flipped" [ "R2" ]
    (lint "let f a x = a := x +. !a\n");
  check_rules "subtraction" [] (lint "let f a x = a := !a -. x\n");
  (* Accumulating into a different ref than the one dereferenced is a
     plain assignment, not the accumulation idiom. *)
  check_rules "different ref" [] (lint "let f a b x = a := !b +. x\n")

let test_r2_scope_and_suppression () =
  let src = "let s xs = List.fold_left ( +. ) 0.0 xs\n" in
  check_rules "examples exempt" [] (lint ~path:"examples/fixture.ml" src);
  check_rules "bin exempt" [] (lint ~path:"bin/fixture.ml" src);
  let r =
    lint
      "let f a x = (a := !a +. x) [@lint.allow \"R2\"]\nlet g a x = a := !a +. x\n"
  in
  check_rules "one suppressed one not" [ "R2" ] r;
  Alcotest.(check int) "line of live finding" 2
    (List.hd r.findings).Lint_finding.line

(* ---- R3: stdlib Random ---- *)

let test_r3 () =
  check_rules "value use" [ "R3" ] (lint "let r () = Random.float 1.0\n");
  check_rules "submodule" [ "R3" ]
    (lint "let r st = Random.State.float st 1.0\n");
  check_rules "open" [ "R3" ] (lint "open Random\n");
  check_rules "Stdlib-qualified" [ "R3" ]
    (lint "let r () = Stdlib.Random.bits ()\n");
  (* Prng is the generator itself, built without Random: no exemption. *)
  check_rules "prng.ml covered" [ "R3" ]
    (lint ~path:"lib/numerics/prng.ml" "let r () = Random.float 1.0\n");
  check_rules "file-wide allow" []
    (lint "[@@@lint.allow \"R3\"]\nlet r () = Random.bool ()\n")

(* ---- R4: ambient I/O from lib/ ---- *)

let test_r4 () =
  let r4 name src = check_rules name [ "R4" ] (lint src) in
  r4 "print_endline" "let p () = print_endline \"x\"\n";
  r4 "Printf.printf" "let p n = Printf.printf \"%d\" n\n";
  r4 "prerr_string" "let p () = prerr_string \"x\"\n";
  r4 "Printf.eprintf" "let p n = Printf.eprintf \"%d\" n\n";
  r4 "Format.eprintf" "let p n = Format.eprintf \"%d\" n\n";
  r4 "Fmt.pr" "let p n = Fmt.pr \"%d\" n\n";
  r4 "Stdlib-qualified" "let p () = Stdlib.print_string \"x\"\n";
  r4 "stdout" "let p n = Printf.fprintf stdout \"%d\" n\n";
  r4 "read_line" "let r () = read_line ()\n";
  r4 "open_in" "let o p = open_in p\n";
  r4 "close_out" "let c oc = close_out oc\n";
  r4 "input_line" "let l ic = input_line ic\n";
  r4 "output_string" "let w oc = output_string oc \"x\"\n";
  check_rules "In_channel, both paths" [ "R4"; "R4" ]
    (lint "let r p = In_channel.with_open_bin p In_channel.input_all\n");
  r4 "Out_channel" "let w oc = Out_channel.output_string oc \"x\"\n";
  r4 "Sys.getenv" "let e () = Sys.getenv \"HOME\"\n";
  r4 "Sys.file_exists" "let e p = Sys.file_exists p\n";
  r4 "Unix" "let pid () = Unix.getpid ()\n";
  r4 "Unix alias" "module U = Unix\n";
  r4 "Unix open" "open Unix\n";
  check_rules "Unix open in mli" [ "R4" ]
    (lint ~path:"lib/fixture.mli" "open Unix\n");
  check_rules "sprintf fine" []
    (lint "let p n = Printf.sprintf \"%d\" n\n");
  check_rules "caller's channel fine" []
    (lint "let p oc n = Printf.fprintf oc \"%d\" n\n");
  check_rules "Sys.argv fine" [] (lint "let argv () = Sys.argv\n");
  check_rules "bin exempt" []
    (lint ~path:"bin/fixture.ml" "let p () = print_endline \"x\"\n");
  check_rules "bench exempt" []
    (lint ~path:"bench/fixture.ml" "let o p = open_out p\n")

(* ---- R5: .mli pairing, both directions ---- *)

let test_r5 () =
  let fs =
    Lint_engine.missing_mli_findings
      [ "lib/a.ml"; "lib/b.ml"; "lib/b.mli"; "bin/c.ml"; "lib/dune" ]
  in
  Alcotest.(check (list string))
    "only unpaired lib ml" [ "R5" ]
    (List.map (fun (f : Lint_finding.t) -> f.rule) fs);
  Alcotest.(check string) "file" "lib/a.ml" (List.hd fs).Lint_finding.file

let test_r5_orphan_mli () =
  let fs =
    Lint_engine.missing_mli_findings
      [ "lib/gone.mli"; "lib/b.ml"; "lib/b.mli"; "bin/c.mli" ]
  in
  Alcotest.(check (list string))
    "orphan lib mli" [ "R5" ]
    (List.map (fun (f : Lint_finding.t) -> f.rule) fs);
  let f = List.hd fs in
  Alcotest.(check string) "file" "lib/gone.mli" f.Lint_finding.file;
  Alcotest.(check bool) "says orphan" true
    (String.length f.Lint_finding.message >= 6
    && String.sub f.Lint_finding.message 0 6 = "orphan")

(* ---- interfaces are linted, not skipped ---- *)

let test_mli_rules () =
  check_rules "Random alias in mli" [ "R3" ]
    (lint ~path:"lib/fixture.mli" "module R = Random\n");
  check_rules "open Random in mli" [ "R3" ]
    (lint ~path:"lib/fixture.mli" "open Random\n");
  check_rules "prng.mli covered" [ "R3" ]
    (lint ~path:"lib/numerics/prng.mli" "module R = Random\n");
  check_rules "plain mli clean" []
    (lint ~path:"lib/fixture.mli" "val f : float -> float\n");
  (* File-wide allows parse and suppress in interfaces too. *)
  let r =
    lint ~path:"lib/fixture.mli"
      "[@@@lint.allow \"R3\"]\nmodule R = Random\n"
  in
  check_rules "mli file-wide allow" [] r;
  Alcotest.(check int) "counted" 1 r.suppressed

(* ---- R6: Obj.magic / Obj.repr ---- *)

let test_r6 () =
  check_rules "magic" [ "R6" ] (lint "let c x = Obj.magic x\n");
  check_rules "repr" [ "R6" ] (lint "let c x = Obj.repr x\n");
  check_rules "Stdlib-qualified" [ "R6" ]
    (lint "let c x = Stdlib.Obj.magic x\n");
  check_rules "benign Obj fine" [] (lint "let t x = Obj.tag x\n");
  check_rules "suppressed" []
    (lint "let c x = (Obj.magic x) [@lint.allow \"R6\"]\n")

(* ---- R7: raw Domain.spawn outside lib/parallel/ ---- *)

let test_r7 () =
  check_rules "spawn in lib" [ "R7" ]
    (lint "let d f = Domain.spawn f\n");
  check_rules "spawn in bin" [ "R7" ]
    (lint ~path:"bin/fixture.ml" "let d f = Domain.spawn f\n");
  check_rules "lib/parallel exempt" []
    (lint ~path:"lib/parallel/domain_pool.ml" "let d f = Domain.spawn f\n");
  (* The rest of the Domain API is fine anywhere — only spawn creates
     execution contexts the pool can't account for. *)
  check_rules "join fine" [] (lint "let j d = Domain.join d\n");
  check_rules "suppressed" []
    (lint "let d f = (Domain.spawn f) [@lint.allow \"R7\"]\n")

(* ---- R8: wall-clock reads outside lib/obs/obs_clock.ml ---- *)

let test_r8 () =
  check_rules "gettimeofday in lib" [ "R8" ]
    (lint "let now () = Unix.gettimeofday ()\n");
  check_rules "Unix.time in bin" [ "R8" ]
    (lint ~path:"bin/fixture.ml" "let now () = Unix.time ()\n");
  check_rules "Sys.time in lib" [ "R8" ]
    (lint "let cpu () = Sys.time ()\n");
  check_rules "Stdlib-qualified" [ "R8" ]
    (lint "let cpu () = Stdlib.Sys.time ()\n");
  check_rules "obs_clock exempt" []
    (lint ~path:"lib/obs/obs_clock.ml" "let now () = Unix.gettimeofday ()\n");
  (* R8 fences only the clocks; the rest of Unix is R4's business in lib/
     and stays available in bin/. *)
  check_rules "other Unix is R4's" [ "R4" ]
    (lint "let pid () = Unix.getpid ()\n");
  check_rules "other Unix fine in bin" []
    (lint ~path:"bin/fixture.ml" "let pid () = Unix.getpid ()\n");
  check_rules "Sys.argv fine" [] (lint "let argv () = Sys.argv\n");
  check_rules "suppressed" []
    (lint "let now () = (Unix.time () [@lint.allow \"R8\"])\n")

let test_r9 () =
  check_rules "Gc.stat in lib" [ "R9" ]
    (lint "let words () = (Gc.stat ()).Gc.heap_words\n");
  check_rules "Gc.quick_stat in bin" [ "R9" ]
    (lint ~path:"bin/fixture.ml"
       "let minor () = (Gc.quick_stat ()).Gc.minor_words\n");
  check_rules "Gc.counters in lib" [ "R9" ]
    (lint "let c () = Gc.counters ()\n");
  check_rules "obs_resource exempt" []
    (lint ~path:"lib/obs/obs_resource.ml"
       "let words () = (Gc.quick_stat ()).Gc.minor_words\n");
  (* The rest of Gc stays available — only the stats probes are fenced. *)
  check_rules "Gc.compact fine" [] (lint "let go () = Gc.compact ()\n");
  check_rules "Gc.full_major fine" []
    (lint "let go () = Gc.full_major ()\n");
  check_rules "suppressed" []
    (lint "let s () = (Gc.quick_stat () [@lint.allow \"R9\"])\n")

(* ---- R14: no module-lifetime mutable state in lib/ ---- *)

let test_r14 () =
  let sched = "lib/sched/fixture.ml" in
  check_rules "toplevel Hashtbl in sched" [ "R14" ]
    (lint ~path:sched "let memo = Hashtbl.create 16\n");
  check_rules "toplevel Hashtbl.of_seq in sched" [ "R14" ]
    (lint ~path:sched "let memo = Hashtbl.of_seq Seq.empty\n");
  check_rules "toplevel Atomic in sched" [ "R14" ]
    (lint ~path:sched "let gen = Atomic.make 0\n");
  check_rules "toplevel ref in sched" [ "R14" ]
    (lint ~path:sched "let last = ref None\n");
  List.iter
    (fun alloc ->
      check_rules ("toplevel " ^ alloc) [ "R14" ]
        (lint ("let state = " ^ alloc ^ "\n")))
    [
      "Buffer.create 64"; "Queue.create ()"; "Stack.create ()";
      "Array.make 8 0.0"; "Array.init 8 float_of_int";
      "Array.make_matrix 2 2 0"; "Array.create_float 8"; "Bytes.make 8 'x'";
      "Bytes.init 8 Char.chr"; "Bytes.create 8"; "Stdlib.ref 0";
    ];
  (* An array literal is fine: R14 is about state, and a literal table
     nobody writes is a constant. *)
  check_rules "array literal fine" []
    (lint "let factors = [| 0.5; 1.0; 2.0 |]\n");
  (* The allocation can hide under static structure... *)
  check_rules "tupled cache" [ "R14"; "R14" ]
    (lint ~path:sched "let caches = (Hashtbl.create 4, Hashtbl.create 4)\n");
  check_rules "let-bound then returned" [ "R14" ]
    (lint ~path:sched "let memo = let h = Hashtbl.create 4 in h\n");
  check_rules "nested module" [ "R14" ]
    (lint ~path:sched
       "module Cache = struct let table = Hashtbl.create 8 end\n");
  (* ...but per-call state inside a function body is not module state. *)
  check_rules "function-local Hashtbl fine" []
    (lint ~path:sched
       "let f xs = let h = Hashtbl.create 16 in List.iter (fun x -> \
        Hashtbl.replace h x x) xs; h\n");
  check_rules "function-local ref fine" []
    (lint ~path:sched "let count xs = let n = ref 0 in List.iter (fun _ -> \
                       incr n) xs; !n\n");
  (* Every lib/ directory is covered, not only the planning core. *)
  check_rules "sim covered" [ "R14" ]
    (lint ~path:"lib/sim/fixture.ml" "let memo = Hashtbl.create 16\n");
  check_rules "other lib dirs covered" [ "R14" ]
    (lint ~path:"lib/obs/fixture.ml" "let memo = Hashtbl.create 16\n");
  check_rules "bin exempt" []
    (lint ~path:"bin/fixture.ml" "let memo = Hashtbl.create 16\n");
  check_rules "suppressed" []
    (lint ~path:sched
       "let memo = (Hashtbl.create 16 [@lint.allow \"R14\"])\n")

(* ---- malformed suppression payloads, parse errors ---- *)

let test_malformed_allow () =
  let r = lint "let f x = (x = 1.0) [@lint.allow]\n" in
  (* The R1 finding survives and the bad attribute is itself reported. *)
  Alcotest.(check (list string))
    "E1 plus live R1" [ "E1"; "R1" ]
    (List.sort_uniq String.compare (rules r))

let test_parse_error () =
  match Lint_engine.lint_source ~path:"lib/bad.ml" "let let let\n" with
  | Ok _ -> Alcotest.fail "expected parse error"
  | Error e ->
      Alcotest.(check bool) "names the file" true
        (String.length e > 0
        && String.sub e 0 (min 10 (String.length e)) = "lib/bad.ml")

(* ---- M1: stale suppressions ---- *)

let test_m1_unused_allow () =
  (* The comparison is on ints, so the R1 allow suppresses nothing. *)
  let r = lint "let f x = (x = 1) [@lint.allow \"R1\"]\n" in
  check_rules "stale allow reported" [ "M1" ] r;
  Alcotest.(check int) "nothing suppressed" 0 r.suppressed;
  (* A used allow is not stale. *)
  check_rules "used allow silent" []
    (lint "let f x = (x = 1.0) [@lint.allow \"R1\"]\n");
  (* A file-wide allow is stale once its file no longer does what it
     excuses, as for the six lib/ files that do I/O or hold state by
     design. *)
  check_rules "stale file-wide allow" [ "M1" ]
    (lint "[@@@lint.allow \"R4\"]\nlet f x = x + 1\n");
  (* An allow naming a rule that does not exist never matches. *)
  check_rules "unknown rule is stale" [ "M1" ]
    (lint "let f x = x [@lint.allow \"R99\"]\n")

(* ---- probe shapes: determinism bugs only a whole-program pass used
   to see. Each is seeded where it would plausibly land, and the widened
   R14 (every lib/ file) or R4 (ambient I/O) now reports it at the
   primitive. ---- *)

let probe name ~path ~rule src =
  Alcotest.test_case name `Quick (fun () ->
      check_rules name [ rule ] (lint ~path src))

let clean name ?(path = "lib/sim/fixture.ml") src =
  Alcotest.test_case name `Quick (fun () ->
      check_rules name [] (lint ~path src))

let probes =
  [
    probe "families Hashtbl memo" ~path:"lib/lifefn/families.ml" ~rule:"R14"
      "let weibull_memo : (float * float, unit) Hashtbl.t = Hashtbl.create 8\n\
       let weibull ~shape ~scale =\n\
      \  Hashtbl.replace weibull_memo (shape, scale) ();\n\
      \  shape *. scale\n";
    probe "rootfind ref counter" ~path:"lib/numerics/rootfind.ml" ~rule:"R14"
      "let brent_calls = ref 0\n\
       let brent f ~lo ~hi = incr brent_calls; f lo +. f hi\n";
    probe "Monte_carlo chunk closure bumps a ref"
      ~path:"lib/sim/monte_carlo.ml" ~rule:"R14"
      "let chunks_run = ref 0\n\
       let estimate ?pool ~chunks f =\n\
      \  let run_chunk k = incr chunks_run; f k in\n\
      \  Domain_pool.run ?pool ~chunks run_chunk\n";
    probe "Monte_carlo chunk closure bumps an Atomic"
      ~path:"lib/sim/monte_carlo.ml" ~rule:"R14"
      "let chunks_run = Atomic.make 0\n\
       let estimate ?pool ~chunks f =\n\
      \  Domain_pool.run ?pool ~chunks (fun k ->\n\
      \    Atomic.incr chunks_run; f k)\n";
    probe "farm ref counter" ~path:"lib/sim/farm.ml" ~rule:"R14"
      "let runs = ref 0\nlet run config ~seed = incr runs; (config, seed)\n";
    probe "workload Buffer" ~path:"lib/workload/task.ml" ~rule:"R14"
      "let label_buf = Buffer.create 64\n\
       let make ~label =\n\
      \  Buffer.clear label_buf;\n\
      \  Buffer.add_string label_buf label;\n\
      \  Buffer.contents label_buf\n";
    probe "numerics scratch Array" ~path:"lib/numerics/quadrature.ml"
      ~rule:"R14"
      "let scratch = Array.make 2 0.0\n\
       let simpson f ~lo ~hi = scratch.(0) <- lo; f lo +. f hi\n";
    probe "survival Printf.eprintf" ~path:"lib/trace/survival.ml" ~rule:"R4"
      "let of_observations obs =\n\
      \  let n = Array.length obs in\n\
      \  if n = 0 then Printf.eprintf \"survival: no observations\\n%!\";\n\
      \  n\n";
    probe "Guideline.plan reads Sys.getenv_opt" ~path:"lib/sched/guideline.ml"
      ~rule:"R4"
      "let plan lf ~c =\n\
      \  match Sys.getenv_opt \"CS_PLAN_DEBUG\" with\n\
      \  | Some _ -> (lf, c)\n\
      \  | None -> (lf, c)\n";
    clean "function-local state silent"
      "let count xs =\n\
      \  let seen = Hashtbl.create 16 and n = ref 0 in\n\
      \  let buf = Buffer.create 16 and scratch = Array.make 4 0.0 in\n\
      \  List.iter (fun x -> Hashtbl.replace seen x (); incr n) xs;\n\
      \  Buffer.add_string buf \"x\";\n\
      \  scratch.(0) <- 1.0;\n\
      \  (Hashtbl.length seen, !n, Buffer.length buf, scratch)\n";
    clean "Sensitivity.default_factors silent" ~path:"lib/sched/sensitivity.ml"
      "let default_factors = [| 0.25; 0.5; 0.8; 1.0; 1.25; 2.0; 4.0 |]\n";
    clean "local flush silent" ~path:"lib/sched/uniqueness.ml"
      "let clusters xs =\n\
      \  let out = ref [] and current = ref [] in\n\
      \  let flush () = out := !current :: !out; current := [] in\n\
      \  List.iter (fun x -> if x then flush () else current := [ x ]) xs;\n\
      \  flush ();\n\
      \  !out\n";
    clean "Format.fprintf to a caller's formatter silent"
      ~path:"lib/sched/schedule.ml"
      "let pp ppf periods =\n\
      \  List.iter (fun t -> Format.fprintf ppf \"%g@ \" t) periods\n";
    probe "Unix.gettimeofday is R8 once" ~path:"lib/sim/fixture.ml" ~rule:"R8"
      "let now () = Unix.gettimeofday ()\n";
  ]

let test_rule_metadata_complete () =
  Alcotest.(check (list string))
    "rule ids"
    [
      "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "R8"; "R9"; "R14"; "M1";
    ]
    (List.map (fun (m : Lint_rules.meta) -> m.id) Lint_rules.all_meta)

let () =
  Alcotest.run "lint"
    [
      ( "r1",
        [
          Alcotest.test_case "float literal" `Quick test_r1_literal;
          Alcotest.test_case "arith and compare" `Quick test_r1_arith_and_compare;
          Alcotest.test_case "clean and suppressed" `Quick
            test_r1_clean_and_suppressed;
        ] );
      ( "r2",
        [
          Alcotest.test_case "fold_left (+.)" `Quick test_r2_fold;
          Alcotest.test_case "ref accumulation" `Quick test_r2_ref_accumulation;
          Alcotest.test_case "scope and suppression" `Quick
            test_r2_scope_and_suppression;
        ] );
      ("r3", [ Alcotest.test_case "stdlib Random" `Quick test_r3 ]);
      ("r4", [ Alcotest.test_case "printing from lib" `Quick test_r4 ]);
      ( "r5",
        [
          Alcotest.test_case "mli pairing" `Quick test_r5;
          Alcotest.test_case "orphan mli" `Quick test_r5_orphan_mli;
        ] );
      ("mli", [ Alcotest.test_case "interface rules" `Quick test_mli_rules ]);
      ("r6", [ Alcotest.test_case "Obj escape hatches" `Quick test_r6 ]);
      ("r7", [ Alcotest.test_case "raw Domain.spawn" `Quick test_r7 ]);
      ("r8", [ Alcotest.test_case "wall-clock reads" `Quick test_r8 ]);
      ("r9", [ Alcotest.test_case "direct Gc stats" `Quick test_r9 ]);
      ("r14", [ Alcotest.test_case "memo state fence" `Quick test_r14 ]);
      ("m1", [ Alcotest.test_case "unused allows" `Quick test_m1_unused_allow ]);
      ("probes", probes);
      ( "machinery",
        [
          Alcotest.test_case "malformed allow" `Quick test_malformed_allow;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "rule metadata" `Quick test_rule_metadata_complete;
        ] );
    ]
