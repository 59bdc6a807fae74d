let feq ?(eps = 1e-12) a b =
  Alcotest.(check (float eps)) "float equality" a b

let test_empty_sum () = feq 0.0 (Kahan.sum [||])

let test_simple_sum () = feq 6.0 (Kahan.sum [| 1.0; 2.0; 3.0 |])

let test_compensation_catastrophic () =
  (* Classic case: 1.0 + 1e100 - 1e100 loses the 1.0 naively when summed in
     an unfavourable order; Neumaier keeps it. *)
  feq 2.0 (Kahan.sum [| 1.0; 1e100; 1.0; -1e100 |])

let test_many_small_terms () =
  let n = 1_000_000 in
  let a = Array.make n 0.1 in
  let expected = 0.1 *. float_of_int n in
  feq ~eps:1e-7 expected (Kahan.sum a)

let test_incremental_matches_batch () =
  let acc = Kahan.create () in
  let values = [| 3.14; -2.71; 1e-9; 1e9; -1e9 |] in
  Array.iter (Kahan.add acc) values;
  feq (Kahan.sum values) (Kahan.total acc)

let test_sum_by () =
  feq 14.0 (Kahan.sum_by (fun x -> x *. x) [| 1.0; 2.0; 3.0 |])

let test_cumulative_empty () =
  Alcotest.(check int) "empty" 0 (Array.length (Kahan.cumulative [||]))

let test_cumulative_values () =
  let c = Kahan.cumulative [| 1.0; 2.0; 3.0 |] in
  feq 1.0 c.(0);
  feq 3.0 c.(1);
  feq 6.0 c.(2)

let test_cumulative_last_equals_sum () =
  let a = Array.init 1000 (fun i -> sin (float_of_int i)) in
  let c = Kahan.cumulative a in
  feq ~eps:1e-12 (Kahan.sum a) c.(999)

(* [total_with acc x] against [add] then [total] on a copy, as bits, over
   seeded running sums whose terms span twelve decades and both signs, so
   that both of Neumaier's branches are taken; [acc] must not move. *)
let test_total_with_is_add_then_total () =
  let g = Prng.create ~seed:11L in
  let term () =
    let m = 10.0 ** Prng.float_range g ~lo:(-6.0) ~hi:6.0 in
    if Prng.bool g then m else -.m
  in
  let bits = Int64.bits_of_float in
  for _ = 1 to 500 do
    let acc = Kahan.create () in
    for _ = 1 to Prng.int g ~bound:40 do
      Kahan.add acc (term ())
    done;
    let before = bits (Kahan.total acc) in
    let x = term () in
    let after = Kahan.copy acc in
    Kahan.add after x;
    if bits (Kahan.total_with acc x) <> bits (Kahan.total after) then
      Alcotest.failf "total_with %h differs from add then total" x;
    if bits (Kahan.total acc) <> before then
      Alcotest.fail "total_with changed its accumulator"
  done

let test_copy_is_independent () =
  let acc = Kahan.create () in
  List.iter (Kahan.add acc) [ 1.0; 1e100; 1.0 ];
  let snap = Kahan.copy acc in
  Kahan.add acc (-1e100);
  feq 2.0 (Kahan.total acc);
  Alcotest.(check int64) "copy unchanged by adds to the original"
    (Int64.bits_of_float (1e100 +. 2.0))
    (Int64.bits_of_float (Kahan.total snap));
  Kahan.add snap (-1e100);
  feq 2.0 (Kahan.total snap);
  feq 2.0 (Kahan.total acc)

let prop_sum_matches_sorted_naive =
  QCheck.Test.make ~name:"kahan sum ~ naive sum on benign data" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 50) (float_range (-1e3) 1e3))
    (fun a ->
      let naive = Array.fold_left ( +. ) 0.0 a in
      Float.abs (Kahan.sum a -. naive) <= 1e-9 *. Float.max 1.0 (Float.abs naive))

let () =
  Alcotest.run "kahan"
    [
      ( "kahan",
        [
          Alcotest.test_case "empty sum" `Quick test_empty_sum;
          Alcotest.test_case "simple sum" `Quick test_simple_sum;
          Alcotest.test_case "catastrophic cancellation" `Quick
            test_compensation_catastrophic;
          Alcotest.test_case "many small terms" `Quick test_many_small_terms;
          Alcotest.test_case "incremental = batch" `Quick
            test_incremental_matches_batch;
          Alcotest.test_case "sum_by" `Quick test_sum_by;
          Alcotest.test_case "cumulative empty" `Quick test_cumulative_empty;
          Alcotest.test_case "cumulative values" `Quick test_cumulative_values;
          Alcotest.test_case "cumulative last = sum" `Quick
            test_cumulative_last_equals_sum;
          Alcotest.test_case "total_with = add then total" `Quick
            test_total_with_is_add_then_total;
          Alcotest.test_case "copy is independent" `Quick
            test_copy_is_independent;
          QCheck_alcotest.to_alcotest prop_sum_matches_sorted_naive;
        ] );
    ]
