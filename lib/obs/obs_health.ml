(* Declarative health rules evaluated over one metric snapshot. *)

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

let finite v = if Float.is_nan v then None else Some v

let hist_field (hs : Obs_metrics.hist_stats) = function
  | "count" -> Some (float_of_int hs.hs_count)
  | "sum" -> Some hs.hs_sum
  | "mean" -> Some hs.hs_mean
  | "min" -> Some hs.hs_min
  | "max" -> Some hs.hs_max
  | "p50" -> Some hs.hs_p50
  | "p95" -> Some hs.hs_p95
  | "p99" -> Some hs.hs_p99
  | _ -> None

let resolve (snap : Obs_metrics.snapshot) selector =
  let counter name =
    List.assoc_opt name snap.snap_counters |> Option.map float_of_int
  in
  let exact () =
    match counter selector with
    | Some v -> Some v
    | None -> (
        match List.assoc_opt selector snap.snap_gauges with
        | Some v -> finite v
        | None ->
            Option.bind
              (List.assoc_opt selector snap.snap_histograms)
              (fun hs -> finite hs.Obs_metrics.hs_mean))
  in
  match exact () with
  | Some v -> Some v
  | None -> (
      match String.rindex_opt selector '.' with
      | None -> None
      | Some i ->
          let base = String.sub selector 0 i in
          let stat =
            String.sub selector (i + 1) (String.length selector - i - 1)
          in
          let from_hist =
            Option.bind
              (List.assoc_opt base snap.snap_histograms)
              (fun hs -> Option.bind (hist_field hs stat) finite)
          in
          if from_hist <> None then from_hist
          else if stat = "count" then counter base
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

let eval_rule snap rule =
  match resolve snap rule.selector with
  | Some value ->
      if holds rule.op value rule.threshold then Pass else Fail { value }
  | None -> if rule.optional then Skipped else Missing

let evaluate ~rules snap =
  let outcomes = List.map (fun r -> (r, eval_rule snap r)) rules in
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

let pp_rule ppf r =
  Format.fprintf ppf "%s %s%s %a %g" (severity_to_string r.severity) r.selector
    (if r.optional then "?" else "")
    pp_op r.op r.threshold

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
      | Fail { value } -> Format.fprintf ppf "  (value %g)" value
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
