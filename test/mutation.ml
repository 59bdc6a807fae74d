(* Mutations of a decoder's input, shared by the QCheck properties that
   every decoder of outside bytes answers [Ok] or [Error] on a damaged
   document and never raises: Jsonx.of_string (test_obs) and
   Obs_health.parse (test_health).
   One mutation is applied to a valid document. [sep] splits it into
   the pieces that [Duplicate] and [Reorder] act on: lines by default,
   the comma-separated pieces of a one-line JSON value otherwise. *)

type kind = Truncate | Flip | Oversize | Duplicate | Reorder

let kinds = [| Truncate; Flip; Oversize; Duplicate; Reorder |]

(* Past every range a decoder might hold: float overflow and
   underflow, an integer past 64 bits, and a 400-digit run. *)
let oversized =
  [|
    "1e999"; "-1e999"; "1e-999"; "123456789012345678901234567890";
    String.make 400 '9';
  |]

let is_digit c = c >= '0' && c <= '9'

let apply ?(sep = '\n') doc kind i j =
  let len = String.length doc in
  match kind with
  | Truncate -> String.sub doc 0 (i mod (len + 1))
  | Flip when len = 0 -> doc
  | Flip ->
      let b = Bytes.of_string doc and k = i mod len in
      Bytes.set b k (Char.chr (Char.code doc.[k] lxor (1 lsl (j mod 8))));
      Bytes.to_string b
  | Oversize ->
      (* Replace the first digit run at or after byte [i], or insert the
         number there when no digit follows. *)
      let at = i mod (len + 1) in
      let start = ref at in
      while !start < len && not (is_digit doc.[!start]) do incr start done;
      let start = if !start = len then at else !start in
      let stop = ref start in
      while !stop < len && is_digit doc.[!stop] do incr stop done;
      String.sub doc 0 start
      ^ oversized.(j mod Array.length oversized)
      ^ String.sub doc !stop (len - !stop)
  | Duplicate | Reorder ->
      let parts = Array.of_list (String.split_on_char sep doc) in
      let n = Array.length parts in
      let a = i mod n and b = j mod n in
      let parts =
        if kind = Duplicate then
          List.concat
            (List.mapi (fun k p -> if k = a then [ p; p ] else [ p ])
               (Array.to_list parts))
        else begin
          let pa = parts.(a) in
          parts.(a) <- parts.(b);
          parts.(b) <- pa;
          Array.to_list parts
        end
      in
      String.concat (String.make 1 sep) parts

(* [decode] must return on every mutation of every document [doc]
   generates; an exception fails the property. *)
let total ~name ?(count = 300) ?sep doc decode =
  let mutated (d, k, i, j) = apply ?sep d k i j in
  QCheck.Test.make ~name ~count
    (QCheck.make
       ~print:(fun m -> String.escaped (mutated m))
       QCheck.Gen.(
         quad doc (oneofa kinds) (int_bound 100_000) (int_bound 100_000)))
    (fun m -> match decode (mutated m) with Ok _ | Error _ -> true)
