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
  check_rules "prng.ml exempt" []
    (lint ~path:"lib/numerics/prng.ml" "let r () = Random.float 1.0\n");
  check_rules "file-wide allow" []
    (lint "[@@@lint.allow \"R3\"]\nlet r () = Random.bool ()\n")

(* ---- R4: printing from lib/ ---- *)

let test_r4 () =
  check_rules "print_endline" [ "R4" ] (lint "let p () = print_endline \"x\"\n");
  check_rules "Printf.printf" [ "R4" ]
    (lint "let p n = Printf.printf \"%d\" n\n");
  check_rules "sprintf fine" []
    (lint "let p n = Printf.sprintf \"%d\" n\n");
  check_rules "bin exempt" []
    (lint ~path:"bin/fixture.ml" "let p () = print_endline \"x\"\n")

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
  check_rules "prng.mli exempt" []
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
  check_rules "obs_clock exempt" []
    (lint ~path:"lib/obs/obs_clock.ml" "let now () = Unix.gettimeofday ()\n");
  (* The rest of Unix/Sys stays available — only the clocks are fenced. *)
  check_rules "other Unix fine" [] (lint "let pid () = Unix.getpid ()\n");
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

(* ---- R14: no module-lifetime memo/cache state in lib/sched ---- *)

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
  (* Scoped to lib/sched: the same binding is legal outside the
     planning core. *)
  check_rules "sim exempt" []
    (lint ~path:"lib/sim/fixture.ml" "let memo = Hashtbl.create 16\n");
  check_rules "other lib dirs exempt" []
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
  (* Allows naming deep-only rules are out of scope for a shallow run:
     lint_source never evaluates R10-R12, so it cannot call them stale. *)
  check_rules "deep-rule allow not stale in shallow run" []
    (lint "let f x = x [@lint.allow \"R11\"]\n")

(* ---- deep pass: call graph, effect fixpoint, R10/R11 ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let parse_impl path src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  Parse.implementation lexbuf

let infer files =
  Lint_effects.infer
    (Lint_callgraph.build
       (List.map (fun (p, s) -> (p, parse_impl p s)) files))

let has_effect table ~mdl ~binding e =
  Lint_effect.mem e (Lint_effects.effects table ~mdl ~binding)

let test_fixpoint_mutual_recursion () =
  let table =
    infer
      [
        ( "lib/fix.ml",
          "let rec even n = if n = 0 then stamp () > 0.0 else odd (n - 1)\n\
           and odd n = if n = 0 then false else even (n - 1)\n\
           and stamp () = Unix.gettimeofday ()\n" );
      ]
  in
  Alcotest.(check bool) "stamp has clock" true
    (has_effect table ~mdl:"Fix" ~binding:"stamp" Lint_effect.Clock);
  Alcotest.(check bool) "even absorbs clock" true
    (has_effect table ~mdl:"Fix" ~binding:"even" Lint_effect.Clock);
  Alcotest.(check bool) "odd absorbs clock through even" true
    (has_effect table ~mdl:"Fix" ~binding:"odd" Lint_effect.Clock);
  let w = Lint_effects.witness table ~mdl:"Fix" ~binding:"odd" Lint_effect.Clock in
  Alcotest.(check bool) "witness names the primitive" true
    (contains w "Unix.gettimeofday")

let test_higher_order_propagation () =
  let table =
    infer
      [
        ( "lib/ho.ml",
          "let tick () = Unix.gettimeofday ()\n\
           let stamp_all xs = List.map tick xs\n\
           let pure_all xs = List.map (fun x -> x + 1) xs\n" );
      ]
  in
  (* Passing an effectful function to List.map taints the caller: every
     referenced value path is an edge, not just application heads. *)
  Alcotest.(check bool) "List.map tick taints" true
    (has_effect table ~mdl:"Ho" ~binding:"stamp_all" Lint_effect.Clock);
  Alcotest.(check bool) "pure map stays pure" true
    (Lint_effect.is_empty
       (Lint_effects.effects table ~mdl:"Ho" ~binding:"pure_all"))

let test_unknown_callee_taint () =
  let table =
    infer
      [
        ( "lib/fc.ml",
          "module M = Mystery (Unit)\n\
           let go x = M.run x\n\
           module S = Map.Make (String)\n\
           let tidy m = S.cardinal m\n" );
      ]
  in
  (* A functor application the analysis cannot see through taints the
     caller with Unknown; a whitelisted-stdlib functor does not. *)
  Alcotest.(check bool) "opaque functor taints" true
    (has_effect table ~mdl:"Fc" ~binding:"go" Lint_effect.Unknown);
  Alcotest.(check bool) "Map.Make is pure" true
    (Lint_effect.is_empty (Lint_effects.effects table ~mdl:"Fc" ~binding:"tidy"))

let deep_findings files =
  let table = infer files in
  Lint_deep.run table ~manifest:Lint_deep.No_manifest_check
    ~manifest_path:".cseffects"

let test_r10_clock_in_core () =
  let findings =
    deep_findings
      [
        ( "lib/sched/guideline.ml",
          "let plan c = Helper.now () +. c\nlet shape c = c *. 2.0\n" );
        ("lib/sched/helper.ml", "let now () = Unix.gettimeofday ()\n");
      ]
  in
  let r10 =
    List.filter (fun (_, r) -> r.Lint_rules.r_rule = "R10") findings
  in
  Alcotest.(check bool) "R10 fired" true (List.length r10 >= 2);
  Alcotest.(check bool) "chain reaches Guideline.plan" true
    (List.exists
       (fun (file, r) ->
         file = "lib/sched/guideline.ml"
         && contains r.Lint_rules.r_msg "Guideline.plan"
         && contains r.Lint_rules.r_msg "clock")
       r10)

let test_r10_domain_allowed () =
  (* Domain_pool must be in the parsed set, else its entry points are
     unknown callees and taint with Unknown instead of domain. *)
  let findings =
    deep_findings
      [
        ( "lib/parallel/domain_pool.ml",
          "let run ~chunks f = Domain.join (Domain.spawn (fun () -> f chunks))\n"
        );
        ( "lib/sched/batch.ml",
          "let plan_batch pool n f = Domain_pool.run ~chunks:n (fun i -> f i)\n"
        );
      ]
  in
  Alcotest.(check int) "domain effect is legitimate in the core" 0
    (List.length
       (List.filter (fun (_, r) -> r.Lint_rules.r_rule = "R10") findings))

let test_r11_mutable_capture () =
  let findings =
    deep_findings
      [
        ( "lib/workload/tally.ml",
          "let total = ref 0.0\n\
           let go n =\n\
          \  Domain_pool.run ~chunks:n (fun i -> total := !total +. float_of_int i)\n"
        );
      ]
  in
  let r11 =
    List.filter (fun (_, r) -> r.Lint_rules.r_rule = "R11") findings
  in
  Alcotest.(check bool) "R11 fired on captured ref" true (List.length r11 >= 1);
  Alcotest.(check bool) "names the mutable" true
    (List.exists (fun (_, r) -> contains r.Lint_rules.r_msg "Tally.total") r11);
  (* Chunk-local state is the sanctioned shape. *)
  let clean =
    deep_findings
      [
        ( "lib/workload/tally.ml",
          "let go n =\n\
          \  Domain_pool.run ~chunks:n (fun i ->\n\
          \    let acc = ref 0.0 in\n\
          \    acc := !acc +. float_of_int i; !acc)\n" );
      ]
  in
  Alcotest.(check int) "local ref is fine" 0
    (List.length
       (List.filter (fun (_, r) -> r.Lint_rules.r_rule = "R11") clean))

let test_r11_read_only_capture () =
  (* Reading a toplevel ref inside a pool closure races with any writer;
     the mutable classification must win over the binding one. *)
  let findings =
    deep_findings
      [
        ( "lib/workload/tally.ml",
          "let total = ref 0.0\n\
           let go n = Domain_pool.run ~chunks:n (fun i -> !total +. float_of_int i)\n"
        );
      ]
  in
  Alcotest.(check bool) "read capture caught" true
    (List.exists
       (fun (_, r) ->
         r.Lint_rules.r_rule = "R11"
         && contains r.Lint_rules.r_msg "captures toplevel mutable")
       findings)

let test_r11_indirect_through_callee () =
  let findings =
    deep_findings
      [
        ( "lib/workload/tally.ml",
          "let total = ref 0.0\n\
           let bump x = total := !total +. x\n\
           let go n = Domain_pool.run ~chunks:n (fun i -> bump (float_of_int i))\n"
        );
      ]
  in
  Alcotest.(check bool) "capture through a callee is caught" true
    (List.exists (fun (_, r) -> r.Lint_rules.r_rule = "R11") findings)

(* ---- effects manifest: render / load / diff round-trip ---- *)

let test_manifest_roundtrip () =
  let sigs =
    [
      ("Alpha", Lint_effect.of_list [ Lint_effect.Clock; Lint_effect.Io ]);
      ("Beta", Lint_effect.empty);
    ]
  in
  let path = Filename.temp_file "cslint" ".cseffects" in
  Lint_manifest.save path sigs;
  (match Lint_manifest.load path with
  | Error e -> Alcotest.fail e
  | Ok entries ->
      Alcotest.(check int) "two entries" 2 (List.length entries);
      Alcotest.(check int) "no drift" 0
        (List.length (Lint_manifest.diff entries sigs));
      let grown =
        [
          ( "Alpha",
            Lint_effect.of_list
              [ Lint_effect.Clock; Lint_effect.Io; Lint_effect.Gc ] );
          ("Gamma", Lint_effect.empty);
        ]
      in
      let drifts = Lint_manifest.diff entries grown in
      Alcotest.(check int) "three drifts" 3 (List.length drifts);
      Alcotest.(check bool) "new effect detected" true
        (List.exists
           (function
             | Lint_manifest.New_effects ("Alpha", s) ->
                 Lint_effect.mem Lint_effect.Gc s
             | _ -> false)
           drifts);
      Alcotest.(check bool) "missing module detected" true
        (List.exists
           (function
             | Lint_manifest.Missing_module "Gamma" -> true
             | _ -> false)
           drifts);
      Alcotest.(check bool) "stale module detected" true
        (List.exists
           (function
             | Lint_manifest.Stale_module ("Beta", _) -> true
             | _ -> false)
           drifts));
  Sys.remove path

let test_manifest_rejects_garbage () =
  let path = Filename.temp_file "cslint" ".cseffects" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc "Alpha: clock\nno-colon-line\n");
  (match Lint_manifest.load path with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
      Alcotest.(check bool) "names the file and line" true
        (String.length e > String.length path
        && String.sub e 0 (String.length path) = path));
  Sys.remove path

(* Distinct module names, each locking any subset of the effects. *)
let gen_sigs =
  QCheck.Gen.(
    map
      (List.mapi (fun k (suffix, effects) ->
           (Printf.sprintf "M%d%s" k suffix, Lint_effect.of_list effects)))
      (list_size (int_bound 12)
         (pair
            (string_size ~gen:(oneofl [ 'a'; 'z'; '_'; '0'; '9'; 'Q' ])
               (int_bound 6))
            (list_size (int_bound 3) (oneofl Lint_effect.all)))))

let with_temp_manifest k =
  let path = Filename.temp_file "cslint" ".cseffects" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> k path)

let prop_manifest_roundtrip =
  QCheck.Test.make ~name:"load of save gives back the signatures" ~count:200
    (QCheck.make ~print:Lint_manifest.render gen_sigs)
    (fun sigs ->
      with_temp_manifest (fun path ->
          Lint_manifest.save path sigs;
          match Lint_manifest.load path with
          | Error _ -> false
          | Ok entries ->
              List.map
                (fun (e : Lint_manifest.entry) ->
                  (e.mf_module, Lint_effect.to_list e.mf_effects))
                entries
              = List.map
                  (fun (m, s) -> (m, Lint_effect.to_list s))
                  (List.sort (fun (a, _) (b, _) -> String.compare a b) sigs)))

let prop_manifest_mutations =
  Mutation.total ~name:"mutated manifest loads or errors"
    (QCheck.Gen.map Lint_manifest.render gen_sigs)
    (fun text ->
      with_temp_manifest (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc text);
          Lint_manifest.load path))

let test_rule_metadata_complete () =
  Alcotest.(check (list string))
    "rule ids"
    [
      "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7"; "R8"; "R9"; "R10"; "R11";
      "R12"; "R14"; "M1";
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
      ( "deep",
        [
          Alcotest.test_case "mutual recursion converges" `Quick
            test_fixpoint_mutual_recursion;
          Alcotest.test_case "higher-order propagation" `Quick
            test_higher_order_propagation;
          Alcotest.test_case "unknown callee taints" `Quick
            test_unknown_callee_taint;
          Alcotest.test_case "R10 clock in core" `Quick test_r10_clock_in_core;
          Alcotest.test_case "R10 domain allowed" `Quick test_r10_domain_allowed;
          Alcotest.test_case "R11 mutable capture" `Quick
            test_r11_mutable_capture;
          Alcotest.test_case "R11 read-only capture" `Quick
            test_r11_read_only_capture;
          Alcotest.test_case "R11 indirect capture" `Quick
            test_r11_indirect_through_callee;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "round-trip and drift" `Quick
            test_manifest_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_manifest_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_manifest_roundtrip;
          QCheck_alcotest.to_alcotest prop_manifest_mutations;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "malformed allow" `Quick test_malformed_allow;
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "rule metadata" `Quick test_rule_metadata_complete;
        ] );
    ]
