(* Declarative health rules evaluated over one list of named values. *)

type severity = Warn | Critical

type op = Lt | Le | Gt | Ge | Eq | Ne

type rule = {
  severity : severity;
  selector : string;
  optional : bool;
  op : op;
  threshold : float;
}

type status = Pass | Fail of { value : float } | Missing | Skipped

type verdict = Healthy | Unhealthy of severity

type report = { outcomes : (rule * status) list; verdict : verdict }

(* --- parsing ------------------------------------------------------- *)

let op_of_string = function
  | "<" -> Some Lt
  | "<=" -> Some Le
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | "==" -> Some Eq
  | "!=" -> Some Ne
  | _ -> None

let op_to_string = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let parse_rule line =
  match tokens line with
  | [ sev; sel; op; value ] -> (
      let severity =
        match sev with
        | "warn" -> Some Warn
        | "critical" -> Some Critical
        | _ -> None
      in
      (* NaN compares false with everything: a rule against it could
         never pass, and a [!=] could never fail. *)
      let threshold =
        match float_of_string_opt value with
        | Some t when not (Float.is_nan t) -> Some t
        | _ -> None
      in
      match (severity, op_of_string op, threshold) with
      | None, _, _ -> Error (Printf.sprintf "unknown severity %S" sev)
      | _, None, _ -> Error (Printf.sprintf "unknown operator %S" op)
      | _, _, None -> Error (Printf.sprintf "bad threshold %S" value)
      | Some severity, Some op, Some threshold ->
          let optional = String.ends_with ~suffix:"?" sel in
          let selector =
            if optional then String.sub sel 0 (String.length sel - 1) else sel
          in
          if selector = "" then Error "empty selector"
          else Ok { severity; selector; optional; op; threshold })
  | _ -> Error "expected: SEVERITY SELECTOR OP VALUE"

let parse doc =
  let lines = String.split_on_char '\n' doc in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        if String.trim line = "" then go (n + 1) acc rest
        else (
          match parse_rule line with
          | Ok r -> go (n + 1) (r :: acc) rest
          | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  go 1 [] lines

(* --- resolution ---------------------------------------------------- *)

(* A name as listed; else a distribution's bare name, read as its mean;
   else [name.count] of a value listed under the bare name. *)
let resolve values selector =
  let find name =
    match List.assoc_opt name values with
    | Some v when not (Float.is_nan v) -> Some v
    | _ -> None
  in
  match find selector with
  | Some v -> Some v
  | None -> (
      match find (selector ^ ".mean") with
      | Some v -> Some v
      | None ->
          if String.ends_with ~suffix:".count" selector then
            find (String.sub selector 0 (String.length selector - 6))
          else None)

(* --- evaluation ---------------------------------------------------- *)

let holds op value threshold =
  match op with
  | Lt -> value < threshold
  | Le -> value <= threshold
  | Gt -> value > threshold
  | Ge -> value >= threshold
  | Eq -> Tol.exactly value threshold
  | Ne -> not (Tol.exactly value threshold)

let eval_rule values rule =
  match resolve values rule.selector with
  | Some value ->
      if holds rule.op value rule.threshold then Pass else Fail { value }
  | None -> if rule.optional then Skipped else Missing

let evaluate ~rules values =
  let outcomes = List.map (fun r -> (r, eval_rule values r)) rules in
  let worst =
    List.fold_left
      (fun acc (rule, status) ->
        let level =
          match status with
          | Pass | Skipped -> 0
          | Missing -> 1
          | Fail _ -> ( match rule.severity with Warn -> 1 | Critical -> 2)
        in
        max acc level)
      0 outcomes
  in
  let verdict =
    match worst with
    | 0 -> Healthy
    | 1 -> Unhealthy Warn
    | _ -> Unhealthy Critical
  in
  { outcomes; verdict }

let exit_code r =
  match r.verdict with
  | Healthy -> 0
  | Unhealthy Warn -> 1
  | Unhealthy Critical -> 2

(* --- rendering ----------------------------------------------------- *)

let severity_to_string = function Warn -> "warn" | Critical -> "critical"

let verdict_to_string = function
  | Healthy -> "ok"
  | Unhealthy Warn -> "warn"
  | Unhealthy Critical -> "critical"

let pp_op ppf op = Format.pp_print_string ppf (op_to_string op)

(* [%g] when it reads back as the same float, so the usual short
   thresholds print as they are written; otherwise Jsonx's round-trip
   form. Either way a printed rule parses back to itself. *)
let threshold_repr x =
  let s = Printf.sprintf "%g" x in
  if Tol.exactly (float_of_string s) x then s else Jsonx.shortest_g x

let pp_rule ppf r =
  Format.fprintf ppf "%s %s%s %a %s" (severity_to_string r.severity) r.selector
    (if r.optional then "?" else "")
    pp_op r.op (threshold_repr r.threshold)

let pp_status ppf = function
  | Pass -> Format.pp_print_string ppf "[PASS]"
  | Fail _ -> Format.pp_print_string ppf "[FAIL]"
  | Missing -> Format.pp_print_string ppf "[MISS]"
  | Skipped -> Format.pp_print_string ppf "[SKIP]"

let pp_report ppf r =
  List.iter
    (fun (rule, status) ->
      Format.fprintf ppf "%a %a" pp_status status pp_rule rule;
      (match status with
      | Fail { value } -> Format.fprintf ppf "  (value %s)" (threshold_repr value)
      | Missing -> Format.fprintf ppf "  (metric absent)"
      | Pass | Skipped -> ());
      Format.pp_print_newline ppf ())
    r.outcomes;
  Format.fprintf ppf "verdict: %s (%d rule(s))@."
    (verdict_to_string r.verdict)
    (List.length r.outcomes)

let status_to_json = function
  | Pass -> [ ("status", Jsonx.String "pass") ]
  | Fail { value } ->
      [ ("status", Jsonx.String "fail"); ("value", Jsonx.Float value) ]
  | Missing -> [ ("status", Jsonx.String "missing") ]
  | Skipped -> [ ("status", Jsonx.String "skipped") ]

let report_to_json r =
  Jsonx.Obj
    [
      ("v", Jsonx.Int 1);
      ("verdict", Jsonx.String (verdict_to_string r.verdict));
      ( "rules",
        Jsonx.List
          (List.map
             (fun (rule, status) ->
               Jsonx.Obj
                 ([
                    ( "severity",
                      Jsonx.String (severity_to_string rule.severity) );
                    ("selector", Jsonx.String rule.selector);
                    ("optional", Jsonx.Bool rule.optional);
                    ("op", Jsonx.String (op_to_string rule.op));
                    ("threshold", Jsonx.Float rule.threshold);
                  ]
                 @ status_to_json status))
             r.outcomes) );
    ]
