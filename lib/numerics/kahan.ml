type t = { mutable sum : float; mutable comp : float }

let create () = { sum = 0.0; comp = 0.0 }

let copy acc = { sum = acc.sum; comp = acc.comp }

(* Neumaier's improvement on Kahan: swap roles when the addend dominates,
   so cancellation is captured on whichever operand is smaller. [comp_after
   acc x t] is the compensation once [x] is folded in, [t] being the new
   running sum. Inlined, so [sum]'s loop passes no boxed float. *)
let[@inline] comp_after acc x t =
  if Float.abs acc.sum >= Float.abs x then acc.comp +. ((acc.sum -. t) +. x)
  else acc.comp +. ((x -. t) +. acc.sum)

let[@inline] add acc x =
  let t = acc.sum +. x in
  acc.comp <- comp_after acc x t;
  acc.sum <- t

let total acc = acc.sum +. acc.comp

let total_with acc x =
  let t = acc.sum +. x in
  t +. comp_after acc x t

let sum a =
  let acc = create () in
  for i = 0 to Array.length a - 1 do
    add acc a.(i)
  done;
  total acc

let sum_list l =
  let acc = create () in
  List.iter (add acc) l;
  total acc

let sum_by f a =
  let acc = create () in
  Array.iter (fun x -> add acc (f x)) a;
  total acc

let cumulative a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n 0.0 in
    let acc = create () in
    for i = 0 to n - 1 do
      add acc a.(i);
      out.(i) <- total acc
    done;
    out
  end
