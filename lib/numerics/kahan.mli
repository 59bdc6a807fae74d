(** Compensated (Kahan–Babuška–Neumaier) floating-point summation.

    Expected-work sums over schedules with hundreds of periods mix terms of
    very different magnitudes; naive summation loses the low-order bits that
    the optimality comparisons in the benchmark tables depend on. *)

type t
(** A running compensated sum. *)

val create : unit -> t
(** [create ()] is a fresh accumulator holding [0.0]. *)

val add : t -> float -> unit
(** [add acc x] folds [x] into the running sum using Neumaier's variant,
    which remains correct when the addend exceeds the running total. *)

val total : t -> float
(** [total acc] is the compensated value of everything added so far. *)

val copy : t -> t
(** [copy acc] is a fresh accumulator in [acc]'s state; adding to either
    leaves the other unchanged. *)

val total_with : t -> float -> float
(** [total_with acc x] is what [add acc x; total acc] would return, bit for
    bit, but [acc] is left unchanged. So one snapshot can settle many
    different last addends, from several domains at once. *)

val sum : float array -> float
(** [sum a] is the compensated sum of all elements of [a]. *)

val sum_list : float list -> float
(** [sum_list l] is the compensated sum of all elements of [l]. *)

val sum_by : ('a -> float) -> 'a array -> float
(** [sum_by f a] is the compensated sum of [f a.(i)] over all [i]. *)

val cumulative : float array -> float array
(** [cumulative a] is the array of prefix sums [s] with
    [s.(i) = a.(0) + ... + a.(i)], each computed with compensation.
    Returns [[||]] on empty input. *)
