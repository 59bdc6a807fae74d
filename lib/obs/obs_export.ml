(* ------------------------------------------------------------------ *)
(* Folded stacks (flamegraph.pl / speedscope)                         *)

(* Frame names may not contain the format's two separators. *)
let sanitize_frame name =
  String.map
    (function ';' | ' ' | '\t' | '\n' | '\r' -> '_' | c -> c)
    name

let folded_of_spans spans =
  (* Path (root;...;name) and self time per span: self = dur minus the
     children's durations, clamped at 0 (clock granularity can make
     nested sums exceed the parent). *)
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun (sp : Obs_span.span) -> Hashtbl.replace by_id sp.Obs_span.id sp)
    spans;
  let child_us = Hashtbl.create 64 in
  List.iter
    (fun (sp : Obs_span.span) ->
      if sp.Obs_span.parent >= 0 then
        let prev =
          Option.value ~default:0.0 (Hashtbl.find_opt child_us sp.Obs_span.parent)
        in
        Hashtbl.replace child_us sp.Obs_span.parent (prev +. sp.Obs_span.dur_us))
    spans;
  let rec path (sp : Obs_span.span) =
    let frame = sanitize_frame sp.Obs_span.name in
    match Hashtbl.find_opt by_id sp.Obs_span.parent with
    | Some parent -> path parent ^ ";" ^ frame
    | None -> frame
  in
  let weights = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (sp : Obs_span.span) ->
      let p = path sp in
      let kids =
        Option.value ~default:0.0 (Hashtbl.find_opt child_us sp.Obs_span.id)
      in
      let self = Float.max 0.0 (sp.Obs_span.dur_us -. kids) in
      (match Hashtbl.find_opt weights p with
      | None ->
          order := p :: !order;
          Hashtbl.replace weights p self
      | Some w -> Hashtbl.replace weights p (w +. self)))
    spans;
  List.map
    (fun p ->
      (* Integer microseconds; weight-0 paths are kept so the stack set
         stays deterministic even when all wall times collapse. *)
      Printf.sprintf "%s %d" p
        (Stdlib.max 0 (int_of_float (Float.round (Hashtbl.find weights p)))))
    (List.sort String.compare !order)

let validate_folded lines =
  let check i line =
    match String.rindex_opt line ' ' with
    | None -> Error (Printf.sprintf "line %d: no weight column" (i + 1))
    | Some sp ->
        let stack = String.sub line 0 sp in
        let weight = String.sub line (sp + 1) (String.length line - sp - 1) in
        if stack = "" then Error (Printf.sprintf "line %d: empty stack" (i + 1))
        else if String.contains stack ' ' then
          Error (Printf.sprintf "line %d: space inside stack" (i + 1))
        else if
          List.exists (fun f -> f = "") (String.split_on_char ';' stack)
        then Error (Printf.sprintf "line %d: empty frame" (i + 1))
        else
          match int_of_string_opt weight with
          | Some w when w >= 0 -> Ok ()
          | Some _ -> Error (Printf.sprintf "line %d: negative weight" (i + 1))
          | None ->
              Error
                (Printf.sprintf "line %d: weight %S is not an integer" (i + 1)
                   weight)
  in
  let rec go i = function
    | [] -> Ok (List.length lines)
    | line :: rest -> (
        match check i line with Ok () -> go (i + 1) rest | Error _ as e -> e)
  in
  go 0 lines

let spans_of_chrome j =
  let ( let* ) = Result.bind in
  let* n_events, _depth = Obs_span.validate_chrome j in
  ignore n_events;
  match Jsonx.member "traceEvents" j with
  | Some (Jsonx.List events) ->
      (* Events are in creation order and nest strictly, so the parent
         of a depth-d span is the most recent span at depth d-1. *)
      let stack = ref [] in
      let spans =
        List.mapi
          (fun i ev ->
            let str name =
              Option.get (Option.bind (Jsonx.member name ev) Jsonx.get_string)
            in
            let flt name =
              Option.get (Option.bind (Jsonx.member name ev) Jsonx.get_float)
            in
            let args =
              match Jsonx.member "args" ev with
              | Some (Jsonx.Obj fields) -> fields
              | _ -> []
            in
            let depth =
              Option.get
                (Option.bind (List.assoc_opt "depth" args) Jsonx.get_int)
            in
            stack := List.filter (fun (_, d) -> d < depth) !stack;
            let parent = match !stack with (id, _) :: _ -> id | [] -> -1 in
            stack := (i, depth) :: !stack;
            {
              Obs_span.id = i;
              parent;
              depth;
              name = str "name";
              start_us = flt "ts";
              dur_us = flt "dur";
              attrs = List.remove_assoc "depth" args;
            })
          events
      in
      Ok spans
  | _ -> Error "missing traceEvents"
