(* The Jsonl sink opens, writes and closes the trace file: file I/O is its
   job. *)
[@@@lint.allow "R4"]

type t =
  | Null
  | Jsonl of out_channel
  | Custom of (Obs_event.t -> unit)

let consumes = function Null -> false | Jsonl _ | Custom _ -> true

let emit sink ev =
  match sink with
  | Null -> ()
  | Jsonl oc ->
      output_string oc (Jsonx.to_string (Obs_event.to_json ev));
      output_char oc '\n'
  | Custom f -> f ev

let with_jsonl_file ?meta path k =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      (match meta with
      | Some m ->
          output_string oc (Jsonx.to_string (Obs_meta.to_json m));
          output_char oc '\n'
      | None -> ());
      k (Jsonl oc))
