(* Capturing the trace header asks git for the commit through a Unix
   process. *)
[@@@lint.allow "R4"]

type t = {
  schema : int;
  git_sha : string option;
  seed : int64 option;
  jobs : int option;
  scenario : string option;
}

let meta_version = 1

let capture_git_sha () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> None
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> Some line
      | _ -> None
      | exception _ -> None)

let make ?git_sha ?seed ?jobs ?scenario () =
  let git_sha =
    match git_sha with Some _ as s -> s | None -> capture_git_sha ()
  in
  { schema = Obs_event.schema_version; git_sha; seed; jobs; scenario }

let to_json t =
  let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
  Jsonx.Obj
    (("v", Jsonx.Int meta_version)
    :: ("type", Jsonx.String "meta")
    :: ("schema", Jsonx.Int t.schema)
    :: (opt "git_sha" (fun s -> Jsonx.String s) t.git_sha
       @ opt "seed" (fun s -> Jsonx.Int (Int64.to_int s)) t.seed
       @ opt "jobs" (fun j -> Jsonx.Int j) t.jobs
       @ opt "scenario" (fun s -> Jsonx.String s) t.scenario))

let is_meta_json j =
  match Jsonx.member "type" j with
  | Some (Jsonx.String "meta") -> true
  | _ -> false

let ( let* ) = Result.bind

let of_json j =
  let* v =
    match Option.bind (Jsonx.member "v" j) Jsonx.get_int with
    | Some v -> Ok v
    | None -> Error "meta header: missing or ill-typed field \"v\""
  in
  if v <> meta_version then
    Error
      (Printf.sprintf "meta header: unsupported version %d (want %d)" v
         meta_version)
  else
    let* () =
      if is_meta_json j then Ok ()
      else Error "meta header: field \"type\" is not \"meta\""
    in
    let* schema =
      match Option.bind (Jsonx.member "schema" j) Jsonx.get_int with
      | Some s -> Ok s
      | None -> Error "meta header: missing or ill-typed field \"schema\""
    in
    let* () =
      if schema = Obs_event.schema_version then Ok ()
      else
        Error
          (Printf.sprintf
             "meta header: trace written with event schema v%d, this reader \
              understands v%d"
             schema Obs_event.schema_version)
    in
    let str name = Option.bind (Jsonx.member name j) Jsonx.get_string in
    let int name = Option.bind (Jsonx.member name j) Jsonx.get_int in
    Ok
      {
        schema;
        git_sha = str "git_sha";
        seed = Option.map Int64.of_int (int "seed");
        jobs = int "jobs";
        scenario = str "scenario";
      }

let pp ppf t =
  Format.fprintf ppf "schema v%d" t.schema;
  (match t.scenario with
  | Some s -> Format.fprintf ppf ", scenario %S" s
  | None -> ());
  (match t.seed with
  | Some s -> Format.fprintf ppf ", seed %Ld" s
  | None -> ());
  (match t.jobs with
  | Some j -> Format.fprintf ppf ", jobs %d" j
  | None -> ());
  match t.git_sha with
  | Some sha -> Format.fprintf ppf ", git %s" sha
  | None -> ()
