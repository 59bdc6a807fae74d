(* Smoke test of the end-to-end benchmark. Runs every workload named in
   BENCHMARK.json at --quick size, once plain and once traced, and checks
   that each run prints every metric BENCHMARK.json lists for its mode
   with a finite value, that no op failed, and that the two runs of a
   workload print the same output digest.

     smoke.exe E2E_EXE BENCHMARK_JSON *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("smoke: " ^ s);
      exit 1)
    fmt

let names key bench =
  match Jsonx.member key bench with
  | Some (Jsonx.List xs) ->
      List.filter_map (fun x -> Option.bind (Jsonx.member "name" x) Jsonx.get_string) xs
  | _ -> fail "BENCHMARK.json has no %S list" key

(* Runs the benchmark and returns its stdout lines. *)
let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_lines ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> fail "%s exited non-zero" (String.concat " " args)

let digest_of lines =
  match
    List.find_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ "digest"; _; d ] -> Some d
        | _ -> None)
      lines
  with
  | Some d -> d
  | None -> fail "no digest line"

let check_result ~workload ~expected lines =
  let last = match List.rev lines with l :: _ -> l | [] -> fail "%s: no output" workload in
  let j = match Jsonx.of_string last with Ok j -> j | Error e -> fail "%s: last line: %s" workload e in
  (match Option.bind (Jsonx.member "failed" j) Jsonx.get_int with
  | Some 0 -> ()
  | _ -> fail "%s: failed ops, error_rate > 0" workload);
  (match Option.bind (Jsonx.member "correct" j) Jsonx.get_bool with
  | Some true -> ()
  | _ -> fail "%s: correct is not true" workload);
  let metrics = match Jsonx.member "metrics" j with Some m -> m | None -> fail "%s: no metrics" workload in
  List.iter
    (fun name ->
      match Option.bind (Option.bind (Jsonx.member name metrics) (Jsonx.member "value")) Jsonx.get_float with
      | Some v when Float.is_finite v -> ()
      | _ -> fail "%s: metric %s missing or not finite" workload name)
    expected

let () =
  match Sys.argv with
  | [| _; exe; bench_path |] ->
      (* A bare name would be looked up in PATH. *)
      let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
      let bench =
        match Jsonx.of_string (In_channel.with_open_bin bench_path In_channel.input_all) with
        | Ok j -> j
        | Error e -> fail "%s: %s" bench_path e
      in
      let end_to_end = names "end_to_end" bench and per_layer = names "per_layer" bench in
      List.iter
        (fun workload ->
          let run_mode trace expected =
            let lines =
              run exe [ "--workload"; workload; "--seed"; "3"; "--quick"; "--trace"; trace ]
            in
            check_result ~workload ~expected lines;
            digest_of lines
          in
          let plain = run_mode "0" end_to_end in
          let traced = run_mode "1" per_layer in
          if not (String.equal plain traced) then
            fail "%s: digest %s plain vs %s traced on the same seed" workload plain traced)
        (names "workloads" bench)
  | _ -> fail "usage: smoke.exe E2E_EXE BENCHMARK_JSON"
