type entry = { at : int; metrics : Obs_metrics.snapshot }

type t = {
  registry : Obs_metrics.t;
  every : int;
  capacity : int;
  ring : entry option array;
  mutable head : int;  (* next write position *)
  mutable captured : int;
  mutable next_at : int;
}

let default_capacity = 512

let create ?(capacity = default_capacity) ~every registry =
  if every <= 0 then invalid_arg "Obs_snapshot.create: every must be > 0";
  if capacity <= 0 then invalid_arg "Obs_snapshot.create: capacity must be > 0";
  {
    registry;
    every;
    capacity;
    ring = Array.make capacity None;
    head = 0;
    captured = 0;
    next_at = every;
  }

let capture t ~at =
  t.ring.(t.head) <- Some { at; metrics = Obs_metrics.snapshot t.registry };
  t.head <- (t.head + 1) mod t.capacity;
  t.captured <- t.captured + 1

let tick t ~at =
  if at >= t.next_at then begin
    capture t ~at;
    (* Skip past any marks the stride jumped over, so a coarse tick
       granularity produces one capture per tick, not a burst. *)
    t.next_at <- (((at / t.every) + 1) * t.every)
  end

let captured t = t.captured
let dropped t = Stdlib.max 0 (t.captured - t.capacity)

let entries t =
  let n = Stdlib.min t.captured t.capacity in
  let start = (t.head - n + t.capacity) mod t.capacity in
  List.init n (fun i ->
      match t.ring.((start + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let last_at t =
  match List.rev (entries t) with e :: _ -> Some e.at | [] -> None

let entry_to_json e =
  Jsonx.Obj
    [
      ("v", Jsonx.Int Obs_event.schema_version);
      ("type", Jsonx.String "snapshot");
      ("at", Jsonx.Int e.at);
      ("metrics", Obs_metrics.snapshot_to_json e.metrics);
    ]

let entry_of_json j =
  let ( let* ) = Result.bind in
  let* v =
    match Option.bind (Jsonx.member "v" j) Jsonx.get_int with
    | Some v -> Ok v
    | None -> Error "snapshot: missing or ill-typed field \"v\""
  in
  if v <> Obs_event.schema_version then
    Error
      (Printf.sprintf "snapshot: unsupported schema version %d (want %d)" v
         Obs_event.schema_version)
  else
    let* () =
      match Jsonx.member "type" j with
      | Some (Jsonx.String "snapshot") -> Ok ()
      | _ -> Error "snapshot: field \"type\" is not \"snapshot\""
    in
    let* at =
      match Option.bind (Jsonx.member "at" j) Jsonx.get_int with
      | Some at -> Ok at
      | None -> Error "snapshot: missing or ill-typed field \"at\""
    in
    let* metrics =
      match Jsonx.member "metrics" j with
      | Some m -> Obs_metrics.snapshot_of_json m
      | None -> Error "snapshot: missing field \"metrics\""
    in
    Ok { at; metrics }

let write_jsonl ?meta t oc =
  let emit_meta m =
    output_string oc (Jsonx.to_string (Obs_meta.to_json m));
    output_char oc '\n'
  in
  Option.iter emit_meta meta;
  (* A wrapped ring means the file is a *shard*: its first entry is not
     the run's first capture. Re-emit the provenance header at the wrap
     boundary so a reader that starts at the rotation point (or a shard
     produced by splitting the file there) still opens with its meta
     line, and any loader of the shard still sees its provenance. *)
  List.iteri
    (fun i e ->
      if i = 0 && dropped t > 0 then Option.iter emit_meta meta;
      output_string oc (Jsonx.to_string (entry_to_json e));
      output_char oc '\n')
    (entries t)

(* Meta lines are legal anywhere, not just at line 1: a shard written
   after a ring wrap re-emits its header, and concatenating rotated
   shards interleaves them mid-file. Every header is still validated —
   a schema mismatch anywhere is an error, not a skip. *)
let load_with_meta path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go line_no meta acc =
        match input_line ic with
        | exception End_of_file -> Ok (meta, List.rev acc)
        | "" -> go (line_no + 1) meta acc
        | line -> (
            match Jsonx.of_string line with
            | Error msg ->
                Error (Printf.sprintf "%s:%d: %s" path line_no msg)
            | Ok j when Obs_meta.is_meta_json j -> (
                match Obs_meta.of_json j with
                | Error msg ->
                    Error (Printf.sprintf "%s:%d: %s" path line_no msg)
                | Ok m ->
                    let meta =
                      match meta with Some _ -> meta | None -> Some m
                    in
                    go (line_no + 1) meta acc)
            | Ok j -> (
                match entry_of_json j with
                | Error msg ->
                    Error (Printf.sprintf "%s:%d: %s" path line_no msg)
                | Ok e -> go (line_no + 1) meta (e :: acc)))
      in
      go 1 None [])

let load path = Result.map snd (load_with_meta path)
