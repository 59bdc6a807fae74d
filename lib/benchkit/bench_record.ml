(* Bench_record reads and writes BENCH_T1.json and its history: file I/O is
   its job. *)
[@@@lint.allow "R4"]

type entry = { ns_per_call : float; r_square : float; advisory : bool }

type t = {
  schema : int;
  suite : string;
  ocaml : string;
  git_sha : string;
  hostname : string;
  quota_seconds : float;
  unix_time : float;
  results : (string * entry) list;
}

let schema_version = 2

let make ?(suite = "T1") ~ocaml ~git_sha ~hostname ~quota_seconds ~unix_time
    results =
  {
    schema = schema_version;
    suite;
    ocaml;
    git_sha;
    hostname;
    quota_seconds;
    unix_time;
    results =
      List.sort (fun (a, _) (b, _) -> String.compare a b) results;
  }

let json_num x = if Float.is_finite x then Jsonx.Float x else Jsonx.Null

let to_json t =
  Jsonx.Obj
    [
      ("v", Jsonx.Int t.schema);
      ("suite", Jsonx.String t.suite);
      ("ocaml", Jsonx.String t.ocaml);
      ("git_sha", Jsonx.String t.git_sha);
      ("hostname", Jsonx.String t.hostname);
      ("quota_seconds", Jsonx.Float t.quota_seconds);
      ("unix_time", Jsonx.Float t.unix_time);
      ( "results",
        Jsonx.Obj
          (List.map
             (fun (name, r) ->
               ( name,
                 Jsonx.Obj
                   (("ns_per_call", json_num r.ns_per_call)
                   :: ("r_square", json_num r.r_square)
                   ::
                   (if r.advisory then [ ("advisory", Jsonx.Bool true) ]
                    else [])) ))
             t.results) );
    ]

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Jsonx.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let num_or_nan name j =
  (* ns_per_call / r_square are written as null when non-finite. *)
  match Jsonx.member name j with
  | Some Jsonx.Null -> Ok Float.nan
  | Some v -> (
      match Jsonx.get_float v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "field %S is not a number" name))
  | None -> Error (Printf.sprintf "missing field %S" name)

let of_json j =
  let* v = field "v" Jsonx.get_int j in
  let* () =
    if v = 1 || v = schema_version then Ok ()
    else Error (Printf.sprintf "unsupported bench schema v%d" v)
  in
  let* suite = field "suite" Jsonx.get_string j in
  let* ocaml = field "ocaml" Jsonx.get_string j in
  let str_default name default =
    match Jsonx.member name j with
    | None -> Ok default
    | Some s -> (
        match Jsonx.get_string s with
        | Some s -> Ok s
        | None -> Error (Printf.sprintf "field %S is not a string" name))
  in
  let* git_sha = str_default "git_sha" "unknown" in
  let* hostname = str_default "hostname" "unknown" in
  let* quota_seconds = field "quota_seconds" Jsonx.get_float j in
  let* unix_time = field "unix_time" Jsonx.get_float j in
  let* results =
    match Jsonx.member "results" j with
    | Some (Jsonx.Obj kvs) ->
        List.fold_left
          (fun acc (name, rj) ->
            let* acc = acc in
            let* ns_per_call = num_or_nan "ns_per_call" rj in
            let* r_square = num_or_nan "r_square" rj in
            let* advisory =
              match Jsonx.member "advisory" rj with
              | None -> Ok (not (Bench_fit.reliable_r2 r_square))
              | Some b -> (
                  match Jsonx.get_bool b with
                  | Some b -> Ok b
                  | None -> Error "field \"advisory\" is not a boolean")
            in
            Ok ((name, { ns_per_call; r_square; advisory }) :: acc))
          (Ok []) kvs
    | Some _ | None -> Error "missing or ill-typed field \"results\""
  in
  Ok
    {
      schema = v;
      suite;
      ocaml;
      git_sha;
      hostname;
      quota_seconds;
      unix_time;
      results =
        List.sort (fun (a, _) (b, _) -> String.compare a b) results;
    }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text ->
      let* j = Jsonx.of_string text in
      Result.map_error (fun e -> path ^ ": " ^ e) (of_json j)

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Jsonx.to_string (to_json t) ^ "\n"))

let append_history path t =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Jsonx.to_string (to_json t) ^ "\n"))

let load_history path =
  match read_file path with
  | exception Sys_error msg -> Error msg
  | text ->
      let lines = String.split_on_char '\n' text in
      let rec go n acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest ->
            if String.trim line = "" then go (n + 1) acc rest
            else begin
              match Result.bind (Jsonx.of_string line) of_json with
              | Ok t -> go (n + 1) (t :: acc) rest
              | Error e -> Error (Printf.sprintf "%s:%d: %s" path n e)
            end
      in
      go 1 [] lines
