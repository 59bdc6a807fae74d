type t = { periods : float array; ends : float array }

exception Invalid_schedule of string

let build periods =
  { periods; ends = Kahan.cumulative periods }

(* Takes ownership of [ts]: callers pass an array nobody else holds. *)
let validated ts =
  let n = Array.length ts in
  if n = 0 then raise (Invalid_schedule "Schedule.of_periods: empty schedule");
  Array.iteri
    (fun i t ->
      if not (Float.is_finite t) || t <= 0.0 then
        raise
          (Invalid_schedule
             (Printf.sprintf "Schedule.of_periods: period %d is %g" i t)))
    ts;
  build ts

let of_periods ts = validated (Array.copy ts)
let of_list ts = validated (Array.of_list ts)
let periods s = Array.copy s.periods
let num_periods s = Array.length s.periods

let period s k =
  if k < 0 || k >= Array.length s.periods then
    invalid_arg "Schedule.period: index out of range";
  s.periods.(k)

let total_duration s = s.ends.(Array.length s.ends - 1)
let positive_sub x y = Float.max 0.0 (x -. y)

let work_capacity ~c s =
  Kahan.sum_by (fun t -> positive_sub t c) s.periods

type work = { end_sum : Kahan.t; terms : Kahan.t }

let work_start () = { end_sum = Kahan.create (); terms = Kahan.create () }

(* The running end is the compensated prefix sum that [build] stores
   (Kahan.cumulative adds, then reads the total), so folding a
   schedule's periods here reproduces its [ends] bit for bit. [at.p] is
   p at [at.x], so it is p at the end whenever the two are the same
   float, and taking it changes no bit. The test is Float.equal, which
   inlines, and not Tol.exactly, whose call would box [at.x] for every
   term of [expected_work]. *)
let work_add acc ~c lf ~(at : Life_function.point) t =
  Kahan.add acc.end_sum t;
  let w = positive_sub t c in
  if w > 0.0 then begin
    let t_end = Kahan.total acc.end_sum in
    let p =
      if Float.equal at.x t_end then at.p else Life_function.eval lf t_end
    in
    Kahan.add acc.terms (w *. p)
  end

let work_total acc = Kahan.total acc.terms

let expected_work ~c lf s =
  if c < 0.0 then invalid_arg "Schedule.expected_work: c must be >= 0";
  let acc = work_start () in
  (* A point at no instant: every term evaluates p itself. *)
  let at = Life_function.point () in
  Array.iter (work_add acc ~c lf ~at) s.periods;
  work_total acc

let expected_work_detail ~c lf s =
  Array.mapi
    (fun i t ->
      (t, s.ends.(i), positive_sub t c *. Life_function.eval lf s.ends.(i)))
    s.periods

(* Proposition 2.1: merge every unproductive period (length <= c) into its
   successor. The merged period ends at the same instant the successor did
   and carries strictly more productive time, so E can only improve. The
   last period is kept as is: with no successor, merging is undefined, and
   the proposition explicitly exempts it. *)
let productive_normal_form ~c s =
  let n = Array.length s.periods in
  let out = ref [] in
  let carry = ref 0.0 in
  for i = 0 to n - 1 do
    let t = s.periods.(i) +. !carry in
    if t <= c && i < n - 1 then carry := t
    else begin
      out := t :: !out;
      carry := 0.0
    end
  done;
  build (Array.of_list (List.rev !out))

let append s t =
  if not (Float.is_finite t) || t <= 0.0 then
    raise (Invalid_schedule (Printf.sprintf "Schedule.append: period %g" t));
  build (Array.append s.periods [| t |])

let equal ?(tol = 1e-9) s1 s2 =
  Array.length s1.periods = Array.length s2.periods
  && Array.for_all2
       (fun a b -> Float.abs (a -. b) <= tol)
       s1.periods s2.periods

let pp ppf s =
  let n = Array.length s.periods in
  let shown = Int.min n 8 in
  Format.fprintf ppf "@[<h>[";
  for i = 0 to shown - 1 do
    if i > 0 then Format.fprintf ppf "; ";
    Format.fprintf ppf "%.4g" s.periods.(i)
  done;
  if n > shown then Format.fprintf ppf "; ... (%d periods)" n;
  Format.fprintf ppf "] duration %.4g@]" (total_duration s)
