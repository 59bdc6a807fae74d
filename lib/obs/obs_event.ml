type t =
  | Run_started of { time : float; source : string; seed : int64 option }
  | Plan_computed of {
      source : string;
      t0 : float;
      periods : int;
      expected_work : float;
    }
  | Episode_started of { time : float; ws : int; ep : int }
  | Period_dispatched of {
      time : float;
      ws : int;
      ep : int;
      period : float;
      assigned : float;
    }
  | Period_completed of {
      time : float;
      ws : int;
      ep : int;
      period : float;
      banked : float;
      overhead : float;
    }
  | Period_killed of {
      time : float;
      ws : int;
      ep : int;
      lost : float;
      overhead : float;
    }
  | Owner_returned of { time : float; ws : int; ep : int }
  | Episode_finished of {
      time : float;
      ws : int;
      ep : int;
      work_done : float;
      interrupted : bool;
    }
  | Pool_drained of { time : float; remaining : float }
  | Run_finished of { time : float }

let schema_version = 2

(* ------------------------------------------------------------------ *)
(* Accessors (the query layer keys on these)                          *)

let kind = function
  | Run_started _ -> "run_started"
  | Plan_computed _ -> "plan_computed"
  | Episode_started _ -> "episode_started"
  | Period_dispatched _ -> "period_dispatched"
  | Period_completed _ -> "period_completed"
  | Period_killed _ -> "period_killed"
  | Owner_returned _ -> "owner_returned"
  | Episode_finished _ -> "episode_finished"
  | Pool_drained _ -> "pool_drained"
  | Run_finished _ -> "run_finished"

let time = function
  | Run_started { time; _ }
  | Episode_started { time; _ }
  | Period_dispatched { time; _ }
  | Period_completed { time; _ }
  | Period_killed { time; _ }
  | Owner_returned { time; _ }
  | Episode_finished { time; _ }
  | Pool_drained { time; _ }
  | Run_finished { time } ->
      Some time
  | Plan_computed _ -> None

let ids = function
  | Episode_started { ws; ep; _ }
  | Period_dispatched { ws; ep; _ }
  | Period_completed { ws; ep; _ }
  | Period_killed { ws; ep; _ }
  | Owner_returned { ws; ep; _ }
  | Episode_finished { ws; ep; _ } ->
      Some (ws, ep)
  | Run_started _ | Plan_computed _ | Pool_drained _ | Run_finished _ -> None

(* ------------------------------------------------------------------ *)
(* Encoding                                                           *)

let obj ty fields =
  Jsonx.Obj
    (("v", Jsonx.Int schema_version) :: ("type", Jsonx.String ty) :: fields)

let to_json = function
  | Run_started { time; source; seed } ->
      obj "run_started"
        (("t", Jsonx.Float time)
        :: ("source", Jsonx.String source)
        ::
        (match seed with
        | Some s -> [ ("seed", Jsonx.Int (Int64.to_int s)) ]
        | None -> []))
  | Plan_computed { source; t0; periods; expected_work } ->
      obj "plan_computed"
        [
          ("source", Jsonx.String source);
          ("t0", Jsonx.Float t0);
          ("periods", Jsonx.Int periods);
          ("expected_work", Jsonx.Float expected_work);
        ]
  | Episode_started { time; ws; ep } ->
      obj "episode_started"
        [ ("t", Jsonx.Float time); ("ws", Jsonx.Int ws); ("ep", Jsonx.Int ep) ]
  | Period_dispatched { time; ws; ep; period; assigned } ->
      obj "period_dispatched"
        [
          ("t", Jsonx.Float time);
          ("ws", Jsonx.Int ws);
          ("ep", Jsonx.Int ep);
          ("period", Jsonx.Float period);
          ("assigned", Jsonx.Float assigned);
        ]
  | Period_completed { time; ws; ep; period; banked; overhead } ->
      obj "period_completed"
        [
          ("t", Jsonx.Float time);
          ("ws", Jsonx.Int ws);
          ("ep", Jsonx.Int ep);
          ("period", Jsonx.Float period);
          ("banked", Jsonx.Float banked);
          ("overhead", Jsonx.Float overhead);
        ]
  | Period_killed { time; ws; ep; lost; overhead } ->
      obj "period_killed"
        [
          ("t", Jsonx.Float time);
          ("ws", Jsonx.Int ws);
          ("ep", Jsonx.Int ep);
          ("lost", Jsonx.Float lost);
          ("overhead", Jsonx.Float overhead);
        ]
  | Owner_returned { time; ws; ep } ->
      obj "owner_returned"
        [ ("t", Jsonx.Float time); ("ws", Jsonx.Int ws); ("ep", Jsonx.Int ep) ]
  | Episode_finished { time; ws; ep; work_done; interrupted } ->
      obj "episode_finished"
        [
          ("t", Jsonx.Float time);
          ("ws", Jsonx.Int ws);
          ("ep", Jsonx.Int ep);
          ("work_done", Jsonx.Float work_done);
          ("interrupted", Jsonx.Bool interrupted);
        ]
  | Pool_drained { time; remaining } ->
      obj "pool_drained"
        [ ("t", Jsonx.Float time); ("remaining", Jsonx.Float remaining) ]
  | Run_finished { time } -> obj "run_finished" [ ("t", Jsonx.Float time) ]

(* ------------------------------------------------------------------ *)
(* Decoding                                                           *)

let ( let* ) = Result.bind

let field name get j =
  match Jsonx.member name j with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
      match get v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "ill-typed field %S" name))

(* The writer renders a non-finite float as null, so a trace can only
   carry finite ones; "1e999" still parses, to infinity. *)
let f_float name =
  field name (fun v ->
      match Jsonx.get_float v with
      | Some x when Float.is_finite x -> Some x
      | _ -> None)
let f_int name = field name Jsonx.get_int
let f_string name = field name Jsonx.get_string
let f_bool name = field name Jsonx.get_bool

let of_json j =
  let* v = f_int "v" j in
  if v <> schema_version then
    Error (Printf.sprintf "unsupported schema version %d (want %d)" v
             schema_version)
  else
    let* ty = f_string "type" j in
    match ty with
    | "run_started" ->
        let* time = f_float "t" j in
        let* source = f_string "source" j in
        let seed =
          match Jsonx.member "seed" j with
          | Some s -> Option.map Int64.of_int (Jsonx.get_int s)
          | None -> None
        in
        Ok (Run_started { time; source; seed })
    | "plan_computed" ->
        let* source = f_string "source" j in
        let* t0 = f_float "t0" j in
        let* periods = f_int "periods" j in
        let* expected_work = f_float "expected_work" j in
        Ok (Plan_computed { source; t0; periods; expected_work })
    | "episode_started" ->
        let* time = f_float "t" j in
        let* ws = f_int "ws" j in
        let* ep = f_int "ep" j in
        Ok (Episode_started { time; ws; ep })
    | "period_dispatched" ->
        let* time = f_float "t" j in
        let* ws = f_int "ws" j in
        let* ep = f_int "ep" j in
        let* period = f_float "period" j in
        let* assigned = f_float "assigned" j in
        Ok (Period_dispatched { time; ws; ep; period; assigned })
    | "period_completed" ->
        let* time = f_float "t" j in
        let* ws = f_int "ws" j in
        let* ep = f_int "ep" j in
        let* period = f_float "period" j in
        let* banked = f_float "banked" j in
        let* overhead = f_float "overhead" j in
        Ok (Period_completed { time; ws; ep; period; banked; overhead })
    | "period_killed" ->
        let* time = f_float "t" j in
        let* ws = f_int "ws" j in
        let* ep = f_int "ep" j in
        let* lost = f_float "lost" j in
        let* overhead = f_float "overhead" j in
        Ok (Period_killed { time; ws; ep; lost; overhead })
    | "owner_returned" ->
        let* time = f_float "t" j in
        let* ws = f_int "ws" j in
        let* ep = f_int "ep" j in
        Ok (Owner_returned { time; ws; ep })
    | "episode_finished" ->
        let* time = f_float "t" j in
        let* ws = f_int "ws" j in
        let* ep = f_int "ep" j in
        let* work_done = f_float "work_done" j in
        let* interrupted = f_bool "interrupted" j in
        Ok (Episode_finished { time; ws; ep; work_done; interrupted })
    | "pool_drained" ->
        let* time = f_float "t" j in
        let* remaining = f_float "remaining" j in
        Ok (Pool_drained { time; remaining })
    | "run_finished" ->
        let* time = f_float "t" j in
        Ok (Run_finished { time })
    | other -> Error (Printf.sprintf "unknown event type %S" other)

(* ------------------------------------------------------------------ *)
(* Human-readable rendering                                           *)

let pp ppf = function
  | Run_started { time; source; seed } ->
      Format.fprintf ppf "[%12.4f] run_started source=%s%s" time source
        (match seed with
        | Some s -> Printf.sprintf " seed=%Ld" s
        | None -> "")
  | Plan_computed { source; t0; periods; expected_work } ->
      Format.fprintf ppf
        "[    planner] plan_computed source=%s t0=%.4f periods=%d E=%.6f"
        source t0 periods expected_work
  | Episode_started { time; ws; ep } ->
      Format.fprintf ppf "[%12.4f] ws%d ep%d episode_started" time ws ep
  | Period_dispatched { time; ws; ep; period; assigned } ->
      Format.fprintf ppf
        "[%12.4f] ws%d ep%d period_dispatched period=%.4f assigned=%.4f" time
        ws ep period assigned
  | Period_completed { time; ws; ep; period; banked; overhead } ->
      Format.fprintf ppf
        "[%12.4f] ws%d ep%d period_completed period=%.4f banked=%.4f \
         overhead=%.4f"
        time ws ep period banked overhead
  | Period_killed { time; ws; ep; lost; overhead } ->
      Format.fprintf ppf
        "[%12.4f] ws%d ep%d period_killed lost=%.4f overhead=%.4f" time ws ep
        lost overhead
  | Owner_returned { time; ws; ep } ->
      Format.fprintf ppf "[%12.4f] ws%d ep%d owner_returned" time ws ep
  | Episode_finished { time; ws; ep; work_done; interrupted } ->
      Format.fprintf ppf
        "[%12.4f] ws%d ep%d episode_finished work_done=%.4f interrupted=%b"
        time ws ep work_done interrupted
  | Pool_drained { time; remaining } ->
      Format.fprintf ppf "[%12.4f] pool_drained remaining=%.6f" time remaining
  | Run_finished { time } -> Format.fprintf ppf "[%12.4f] run_finished" time
