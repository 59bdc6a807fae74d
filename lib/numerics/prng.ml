(* The 256-bit xoshiro state s0..s3 lives unboxed in 32 bytes, at byte
   offsets 0, 8, 16 and 24, so a step stores no boxed int64: mutable
   [int64] record fields would allocate four per step. *)
type t = Bytes.t

let get g k = Bytes.get_int64_ne g (8 * k)
let set g k x = Bytes.set_int64_ne g (8 * k) x

let of_words s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  set g 0 s0;
  set g 1 s1;
  set g 2 s2;
  set g 3 s3;
  g

(* splitmix64: used only to expand a user seed into the 256-bit xoshiro
   state, per the xoshiro authors' seeding recommendation. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let st = ref seed in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  of_words s0 s1 s2 s3

let copy = Bytes.copy

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++ step, inlined into each caller below so that [float]
   boxes only the float it returns, never the int64 in between. *)
let[@inline] step g =
  let open Int64 in
  let s0 = get g 0 and s1 = get g 1 and s2 = get g 2 and s3 = get g 3 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set g 0 s0;
  set g 1 s1;
  set g 2 (logxor s2 t);
  set g 3 (rotl s3 45);
  result

let next_int64 g = step g

let split g =
  let seed = next_int64 g in
  let st = ref (Int64.logxor seed 0xA5A5A5A5A5A5A5A5L) in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  of_words s0 s1 s2 s3

let split_n g n =
  if n < 0 then invalid_arg "Prng.split_n: n must be >= 0";
  if n = 0 then [||]
  else begin
    (* Explicit loop: the children must be drawn from [g] in index
       order, and Array.init's evaluation order is unspecified. *)
    let a = Array.make n g in
    for i = 0 to n - 1 do
      a.(i) <- split g
    done;
    a
  end

let float g =
  (* Top 53 bits give a uniform dyadic rational in [0, 1). *)
  let bits = Int64.shift_right_logical (step g) 11 in
  Int64.to_float bits *. 0x1.0p-53

let float_range g ~lo ~hi =
  if not (lo < hi) then
    invalid_arg "Prng.float_range: requires lo < hi";
  lo +. ((hi -. lo) *. float g)

let int g ~bound =
  if bound <= 0 then invalid_arg "Prng.int: requires bound > 0";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let b = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int b) in
  let rec draw () =
    let r = Int64.shift_right_logical (next_int64 g) 1 in
    if r >= limit then draw () else Int64.to_int (Int64.rem r b)
  in
  draw ()

let bool g = Int64.compare (next_int64 g) 0L < 0

let exponential g ~rate =
  if not (rate > 0.0) then invalid_arg "Prng.exponential: requires rate > 0";
  let u = float g in
  (* log1p (-u) is exact near u = 0 where -log (1 - u) cancels. *)
  -.Float.log1p (-.u) /. rate

let normal g ~mu ~sigma =
  if not (sigma >= 0.0) then invalid_arg "Prng.normal: requires sigma >= 0";
  let rec polar () =
    let u = float_range g ~lo:(-1.0) ~hi:1.0 in
    let v = float_range g ~lo:(-1.0) ~hi:1.0 in
    let s = (u *. u) +. (v *. v) in
    if s >= 1.0 || Tol.exactly s 0.0 then polar ()
    else u *. sqrt (-2.0 *. log s /. s)
  in
  mu +. (sigma *. polar ())

let weibull g ~shape ~scale =
  if not (shape > 0.0 && scale > 0.0) then
    invalid_arg "Prng.weibull: requires shape > 0 and scale > 0";
  let u = float g in
  scale *. Float.pow (-.Float.log1p (-.u)) (1.0 /. shape)
