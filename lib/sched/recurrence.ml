type stop_reason =
  | Exhausted_support
  | Unproductive
  | Tail_negligible
  | Period_cap

type generated = { schedule : Schedule.t; stop : stop_reason }

let tail_threshold = 1e-15

(* One eq. 3.6 step from the previous period's end [at.x], where [at]
   holds p and p'. *)
let step lf ~c ~prev_period ~(at : Life_function.point) =
  let rhs = at.p +. ((prev_period -. c) *. at.dp) in
  (* p is monotone decreasing, so p(prev_end + t) = rhs has a unique
     positive root, p⁻¹(rhs) − prev_end. rhs > 0 puts it inside a bounded
     support; an unbounded p that never drops to rhs gives infinity. *)
  if rhs <= 0.0 || rhs >= at.p then None
  else
    let t = Life_function.inverse lf rhs -. at.x in
    if t > 0.0 && t < infinity then Some t else None

let next_period lf ~c ~prev_period ~prev_end =
  if c < 0.0 then invalid_arg "Recurrence.next_period: c must be >= 0";
  if prev_period <= 0.0 then
    invalid_arg "Recurrence.next_period: prev_period must be > 0";
  if prev_end < prev_period -. 1e-9 then
    invalid_arg "Recurrence.next_period: prev_end < prev_period";
  (* [deriv] itself, not [eval_deriv]: this entry point may be asked
     where p is clamped, and answers there as it always has. *)
  step lf ~c ~prev_period
    ~at:
      {
        Life_function.x = prev_end;
        p = Life_function.eval lf prev_end;
        dp = Life_function.deriv lf prev_end;
      }

let stop_label = function
  | Exhausted_support -> "exhausted-support"
  | Unproductive -> "unproductive"
  | Tail_negligible -> "tail-negligible"
  | Period_cap -> "period-cap"

(* Runs eq. 3.6 from [t0], hands each period to [emit] in order, and
   returns why the recurrence stopped, with G and the last term read at
   the recurrence's own last period end (see [score]). [generate]
   collects the periods and [score] scores them, so the two see the
   same periods. Each period end costs one
   [eval_deriv]: its p serves the tail test, the next step and [emit],
   which gets the point along with the period; its p' serves the step
   and G. *)
let iterate ~max_periods lf ~c ~t0 emit =
  let at = Life_function.point () in
  Life_function.eval_deriv lf t0 at;
  emit t0 at;
  let count = ref 1 in
  let prev_period = ref t0 in
  let prev_end = ref t0 in
  let stop = ref None in
  while !stop = None do
    if !count >= max_periods then stop := Some Period_cap
    else if at.p < tail_threshold then stop := Some Tail_negligible
    else if !prev_period <= c then stop := Some Unproductive
    else begin
      (* The callers checked c >= 0; the loop keeps prev_period > c and
         prev_end >= prev_period, so [next_period]'s checks would pass.
         p(prev_end) >= 1e-15 puts prev_end inside the support, where
         [at.dp] is p'(prev_end). *)
      match step lf ~c ~prev_period:!prev_period ~at with
      | None -> stop := Some Exhausted_support
      | Some t ->
          incr count;
          prev_period := t;
          (* Thm 3.1 defines T_k = T_{k-1} + t_k; the uncompensated
             recurrence IS the object under study, and test_recurrence
             pins its fixed points to 1e-9. *)
          (prev_end := !prev_end +. t) [@lint.allow "R2"];
          Life_function.eval_deriv lf !prev_end at;
          emit t at
    end
  done;
  let stop = Option.get !stop in
  (* G is the right-hand side the next step would solve for (on
     [Exhausted_support], the one it just refused), so it costs no call. *)
  let slope = at.p +. ((!prev_period -. c) *. at.dp) in
  let last_term = (!prev_period -. c) *. at.p in
  (stop, slope, last_term)

let check_args name ~c ~t0 =
  if t0 <= 0.0 then invalid_arg (name ^ ": t0 must be > 0");
  if c < 0.0 then invalid_arg (name ^ ": c must be >= 0")

(* Runs [body] under a [recurrence.generate] span when [obs] carries a
   recorder; [body] returns its value, the period count and the stop. *)
let spanned obs body =
  match Obs.span_recorder obs with
  | None ->
      let v, _, _ = body () in
      v
  | Some r ->
      Obs.Span.enter r "recurrence.generate";
      let v, periods, stop =
        try body ()
        with e ->
          Obs.Span.exit r;
          raise e
      in
      Obs.Span.exit r
        ~attrs:
          [
            ("periods", Jsonx.Int periods);
            ("stop", Jsonx.String (stop_label stop));
          ];
      v

let default_max_periods = 100_000

let generate ?(obs = Obs.disabled) ?(max_periods = default_max_periods) lf
    ~c ~t0 =
  check_args "Recurrence.generate" ~c ~t0;
  spanned obs (fun () ->
      let rev_periods = ref [] in
      let stop, _, _ =
        iterate ~max_periods lf ~c ~t0 (fun t _ ->
            rev_periods := t :: !rev_periods)
      in
      let schedule = Schedule.of_list (List.rev !rev_periods) in
      ({ schedule; stop }, Schedule.num_periods schedule, stop))

type score = {
  work : float;
  slope : float;
  last_term : float;
  stop : stop_reason;
}

let score ?(obs = Obs.disabled) lf ~c ~t0 =
  check_args "Recurrence.score" ~c ~t0;
  spanned obs (fun () ->
      let acc = Schedule.work_start () in
      let periods = ref 0 in
      let stop, slope, last_term =
        iterate ~max_periods:default_max_periods lf ~c ~t0
          (fun t at ->
            incr periods;
            Schedule.work_add acc ~c lf ~at t)
      in
      ( { work = Schedule.work_total acc; slope; last_term; stop },
        !periods,
        stop ))

let expected_work_at ?obs lf ~c ~t0 = (score ?obs lf ~c ~t0).work

let residuals lf ~c s =
  let { Schedule.periods; ends } = s in
  let n = Array.length periods in
  Array.init (Int.max 0 (n - 1)) (fun k ->
      (* defect of eq. 3.6 at step k+1 *)
      Life_function.eval lf ends.(k + 1)
      -. Life_function.eval lf ends.(k)
      -. ((periods.(k) -. c) *. Life_function.deriv lf ends.(k)))
