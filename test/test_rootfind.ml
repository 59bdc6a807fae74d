let check_root ?(eps = 1e-9) expected (o : Rootfind.outcome) =
  Alcotest.(check (float eps)) "root" expected o.Rootfind.root

let test_bisect_linear () =
  check_root 2.0 (Rootfind.bisect (fun x -> x -. 2.0) ~lo:0.0 ~hi:10.0)

let test_bisect_endpoint_root () =
  check_root 0.0 (Rootfind.bisect (fun x -> x) ~lo:0.0 ~hi:1.0)

let test_bisect_no_bracket () =
  match Rootfind.bisect (fun x -> (x *. x) +. 1.0) ~lo:(-1.0) ~hi:1.0 with
  | exception Rootfind.No_bracket _ -> ()
  | _ -> Alcotest.fail "expected No_bracket"

let test_bisect_transcendental () =
  (* cos x = x has root ~0.7390851332151607 *)
  check_root 0.7390851332151607
    (Rootfind.bisect (fun x -> cos x -. x) ~lo:0.0 ~hi:1.0)

let test_brent_polynomial () =
  (* (x+3)(x-1)^2 has a simple root at -3 *)
  check_root (-3.0)
    (Rootfind.brent
       (fun x -> (x +. 3.0) *. (x -. 1.0) *. (x -. 1.0))
       ~lo:(-4.0) ~hi:0.0)

let test_brent_faster_than_bisect () =
  let evals_brent = ref 0 and evals_bisect = ref 0 in
  let f counter x =
    incr counter;
    exp x -. 2.0
  in
  let rb = Rootfind.brent (f evals_brent) ~lo:0.0 ~hi:2.0 in
  let rc = Rootfind.bisect (f evals_bisect) ~lo:0.0 ~hi:2.0 in
  check_root (log 2.0) rb;
  check_root (log 2.0) rc;
  Alcotest.(check bool) "brent uses fewer iterations" true
    (rb.Rootfind.iterations <= rc.Rootfind.iterations)

let test_brent_no_bracket () =
  match Rootfind.brent (fun _ -> 1.0) ~lo:0.0 ~hi:1.0 with
  | exception Rootfind.No_bracket _ -> ()
  | _ -> Alcotest.fail "expected No_bracket"

let test_expand_bracket () =
  let lo, hi = Rootfind.expand_bracket (fun x -> x -. 100.0) ~lo:0.0 ~hi:1.0 in
  Alcotest.(check bool) "brackets 100" true (lo <= 100.0 && hi >= 100.0)

let test_expand_bracket_fails () =
  match
    Rootfind.expand_bracket (fun x -> (x *. x) +. 1.0) ~lo:0.0 ~hi:1.0
  with
  | exception Rootfind.No_bracket _ -> ()
  | _ -> Alcotest.fail "expected No_bracket"

let prop_brent_residual_small =
  (* For random monotone cubics with a bracketed root, the residual at the
     returned root is tiny. *)
  QCheck.Test.make ~name:"brent residual small on monotone cubics" ~count:200
    QCheck.(pair (float_range 0.1 10.0) (float_range (-5.0) 5.0))
    (fun (a, b) ->
      let f x = (a *. x *. x *. x) +. x -. b in
      let r = Rootfind.brent f ~lo:(-10.0) ~hi:10.0 in
      Float.abs r.Rootfind.residual < 1e-6)

let () =
  Alcotest.run "rootfind"
    [
      ( "rootfind",
        [
          Alcotest.test_case "bisect linear" `Quick test_bisect_linear;
          Alcotest.test_case "bisect endpoint root" `Quick
            test_bisect_endpoint_root;
          Alcotest.test_case "bisect no bracket" `Quick test_bisect_no_bracket;
          Alcotest.test_case "bisect transcendental" `Quick
            test_bisect_transcendental;
          Alcotest.test_case "brent polynomial" `Quick test_brent_polynomial;
          Alcotest.test_case "brent beats bisect" `Quick
            test_brent_faster_than_bisect;
          Alcotest.test_case "brent no bracket" `Quick test_brent_no_bracket;
          Alcotest.test_case "expand bracket" `Quick test_expand_bracket;
          Alcotest.test_case "expand bracket fails" `Quick
            test_expand_bracket_fails;
          QCheck_alcotest.to_alcotest prop_brent_residual_small;
        ] );
    ]
