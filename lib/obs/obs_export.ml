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

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                         *)

let sanitize_metric_name name =
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
        | _ -> '_')
      name
  in
  match mapped.[0] with
  | '0' .. '9' -> "_" ^ mapped
  | _ -> mapped
  | exception Invalid_argument _ -> "_"

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Jsonx.to_string (Jsonx.Float v)

let prometheus ?(namespace = "cs") reg =
  let s = Obs_metrics.snapshot reg in
  let full name = sanitize_metric_name (namespace ^ "_" ^ name) in
  let lines = ref [] in
  let out l = lines := l :: !lines in
  List.iter
    (fun (name, count) ->
      let n = full name ^ "_total" in
      out (Printf.sprintf "# HELP %s Counter %s." n name);
      out (Printf.sprintf "# TYPE %s counter" n);
      out (Printf.sprintf "%s %d" n count))
    s.Obs_metrics.snap_counters;
  List.iter
    (fun (name, v) ->
      let n = full name in
      out (Printf.sprintf "# HELP %s Gauge %s." n name);
      out (Printf.sprintf "# TYPE %s gauge" n);
      out (Printf.sprintf "%s %s" n (prom_float v)))
    s.Obs_metrics.snap_gauges;
  List.iter
    (fun (name, (h : Obs_metrics.hist_stats)) ->
      let n = full name in
      out (Printf.sprintf "# HELP %s Histogram %s." n name);
      out (Printf.sprintf "# TYPE %s summary" n);
      out (Printf.sprintf "%s{quantile=\"0.5\"} %s" n (prom_float h.hs_p50));
      out (Printf.sprintf "%s{quantile=\"0.95\"} %s" n (prom_float h.hs_p95));
      out (Printf.sprintf "%s{quantile=\"0.99\"} %s" n (prom_float h.hs_p99));
      out (Printf.sprintf "%s_sum %s" n (prom_float h.hs_sum));
      out (Printf.sprintf "%s_count %d" n h.hs_count))
    s.Obs_metrics.snap_histograms;
  List.rev !lines

(* --- validation --------------------------------------------------- *)

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | _ -> false

let is_name_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
  | _ -> false

let valid_metric_name s =
  s <> ""
  && is_name_start s.[0]
  && String.for_all is_name_char (String.sub s 1 (String.length s - 1))

let valid_types =
  [ "counter"; "gauge"; "summary"; "histogram"; "untyped" ]

let parse_value s =
  match s with
  | "NaN" | "+Inf" | "-Inf" -> true
  | _ -> Option.is_some (float_of_string_opt s)

(* An escape-aware scanner over a label block: comma-separated pairs of
   key = double-quoted value, where a value may contain backslash,
   quote and newline escapes (and therefore commas and quotes that a
   naive comma-split would trip over). *)
let valid_label_body body =
  let len = String.length body in
  let rec key i =
    match String.index_from_opt body i '=' with
    | None -> false
    | Some eq ->
        let k = String.sub body i (eq - i) in
        valid_metric_name k && value (eq + 1)
  and value i = i < len && body.[i] = '"' && scan (i + 1)
  and scan i =
    if i >= len then false
    else
      match body.[i] with
      | '\\' ->
          i + 1 < len
          && (match body.[i + 1] with
             | '\\' | '"' | 'n' -> true
             | _ -> false)
          && scan (i + 2)
      | '"' -> after (i + 1)
      | _ -> scan (i + 1)
  and after i =
    if i = len then true else body.[i] = ',' && i + 1 < len && key (i + 1)
  in
  len > 0 && key 0

(* Split "name{labels}" into the name and a validity check on the label
   block. *)
let parse_sample_name s =
  match String.index_opt s '{' with
  | None -> if valid_metric_name s then Some s else None
  | Some lb ->
      if String.length s = 0 || s.[String.length s - 1] <> '}' then None
      else
        let name = String.sub s 0 lb in
        let body = String.sub s (lb + 1) (String.length s - lb - 2) in
        if valid_metric_name name && valid_label_body body then Some name
        else None

let strip_suffix name =
  let drop suffix =
    if String.ends_with ~suffix name then
      Some (String.sub name 0 (String.length name - String.length suffix))
    else None
  in
  match drop "_sum" with
  | Some base -> Some base
  | None -> drop "_count"

let validate_prometheus lines =
  let typed : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let samples = ref 0 in
  let rec go i = function
    | [] -> Ok !samples
    | "" :: rest -> go (i + 1) rest
    | line :: rest ->
        let fail msg = Error (Printf.sprintf "line %d: %s" (i + 1) msg) in
        if String.length line > 0 && line.[0] = '#' then begin
          match String.split_on_char ' ' line with
          | "#" :: "TYPE" :: name :: ty :: [] ->
              if not (valid_metric_name name) then
                fail (Printf.sprintf "invalid metric name %S" name)
              else if not (List.mem ty valid_types) then
                fail (Printf.sprintf "unknown type %S" ty)
              else if Hashtbl.mem typed name then
                fail (Printf.sprintf "duplicate TYPE for %S" name)
              else begin
                Hashtbl.replace typed name ty;
                go (i + 1) rest
              end
          | "#" :: "HELP" :: name :: _ ->
              if not (valid_metric_name name) then
                fail (Printf.sprintf "invalid metric name %S" name)
              else go (i + 1) rest
          | _ -> fail "malformed comment (expected # HELP or # TYPE)"
        end
        else
          match String.rindex_opt line ' ' with
          | None -> fail "no value column"
          | Some sp -> (
              let head = String.sub line 0 sp in
              let value = String.sub line (sp + 1) (String.length line - sp - 1)
              in
              match parse_sample_name head with
              | None -> fail (Printf.sprintf "malformed sample name %S" head)
              | Some name ->
                  let known n = Hashtbl.mem typed n in
                  let series_ok =
                    known name
                    ||
                    match strip_suffix name with
                    | Some base -> (
                        match Hashtbl.find_opt typed base with
                        | Some ("summary" | "histogram") -> true
                        | _ -> false)
                    | None -> false
                  in
                  if not series_ok then
                    fail
                      (Printf.sprintf "sample %S has no preceding # TYPE" name)
                  else if not (parse_value value) then
                    fail (Printf.sprintf "unparsable value %S" value)
                  else begin
                    Stdlib.incr samples;
                    go (i + 1) rest
                  end)
  in
  go 0 lines
