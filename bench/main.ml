(* Experiment harness: regenerates every table of EXPERIMENTS.md.

   Usage:
     dune exec bench/main.exe            # all experiment tables + timings
     dune exec bench/main.exe -- e4 e9   # selected experiments
     dune exec bench/main.exe -- tables  # all tables, no timings
     dune exec bench/main.exe -- timing  # only the Bechamel benchmarks

   [timing] also writes BENCH_T1.json (machine-readable ns/call + r^2
   per benchmark plus git SHA / hostname / OCaml metadata) and appends
   the same record to BENCH_HISTORY.jsonl. [--quick] shrinks the
   sampling quota and warmups so CI can exercise the pipeline without
   burning minutes; its numbers are for plumbing, not comparison.
   [--jobs N] sizes the domain pool behind the "(parallel)" variants;
   it defaults to the host's recommended domain count. *)

let usage () =
  print_endline "cycle-stealing reproduction harness";
  print_endline "experiments:";
  List.iter
    (fun (id, desc, _) -> Printf.printf "  %-7s %s\n" id desc)
    Tables.all;
  Printf.printf "  %-7s %s\n" "timing" "Bechamel micro-benchmarks";
  Printf.printf "  %-7s %s\n" "tables" "all experiment tables";
  Printf.printf "  %-7s %s\n" "all" "tables + timing (default)"

let quick = ref false
(* A pool wider than the host's cores makes the "(parallel)" rows read
   slower than serial; Domain_pool.create caps the count at 128. *)
let jobs = ref (Int.min 128 (Domain.recommended_domain_count ()))

let run_one id =
  match List.find_opt (fun (eid, _, _) -> eid = id) Tables.all with
  | Some (_, _, f) -> f ()
  | None -> (
      match id with
      | "timing" -> Timing.run ~quick:!quick ~jobs:!jobs ()
      | "tables" -> List.iter (fun (_, _, f) -> f ()) Tables.all
      | "all" ->
          List.iter (fun (_, _, f) -> f ()) Tables.all;
          Timing.run ~quick:!quick ~jobs:!jobs ()
      | "help" | "-h" | "--help" -> usage ()
      | other ->
          Printf.eprintf "unknown experiment %S\n" other;
          usage ();
          exit 2)

let () =
  print_endline
    "Reproduction harness: Rosenberg, \"Guidelines for Data-Parallel \
     Cycle-Stealing in Networks of Workstations, I\" (TR 98-15 / IPPS 1998)";
  (* --csv DIR mirrors every printed table into DIR/<experiment>.csv;
     --quick shrinks the timing suite's quota/warmups for CI; --jobs N
     sizes the domain pool behind the "(parallel)" timing variants
     (default: the host's recommended domain count; results are
     bit-identical for any N). *)
  let rec split_flags acc = function
    | "--csv" :: dir :: rest ->
        Tbl.set_csv_dir (Some dir);
        split_flags acc rest
    | "--quick" :: rest ->
        quick := true;
        split_flags acc rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 ->
            jobs := n;
            split_flags acc rest
        | Some _ | None ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 2)
    | id :: rest -> split_flags (id :: acc) rest
    | [] -> List.rev acc
  in
  match split_flags [] (List.tl (Array.to_list Sys.argv)) with
  | [] -> run_one "all"
  | ids -> List.iter run_one ids
