let test_determinism () =
  let g1 = Prng.create ~seed:123L in
  let g2 = Prng.create ~seed:123L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 g1)
      (Prng.next_int64 g2)
  done

let test_different_seeds_differ () =
  let g1 = Prng.create ~seed:1L in
  let g2 = Prng.create ~seed:2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 g1 = Prng.next_int64 g2 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

(* The next [n] outputs of [g], drawn in order. *)
let draws g n =
  let a = Array.make n 0L in
  for i = 0 to n - 1 do
    a.(i) <- Prng.next_int64 g
  done;
  a

let test_copy_is_independent () =
  let g = Prng.create ~seed:9L in
  let _ = Prng.next_int64 g in
  let h = Prng.copy g in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 g)
    (Prng.next_int64 h);
  (* Advancing one of two copies must leave the other's stream exactly
     where a third copy, taken at the same point, says it is; and the
     advanced one must really have moved on by k outputs. *)
  let k = 5 in
  List.iter
    (fun advance_original ->
      let g = Prng.create ~seed:9L in
      let _ = Prng.next_int64 g in
      let h = Prng.copy g in
      let witness = Prng.copy g in
      let moved, kept = if advance_original then (g, h) else (h, g) in
      for _ = 1 to k do
        ignore (Prng.next_int64 moved)
      done;
      let expected = draws witness (k + 8) in
      Alcotest.(check (array int64)) "untouched copy unchanged"
        (Array.sub expected 0 8) (draws kept 8);
      Alcotest.(check (array int64)) "advanced copy moved on"
        (Array.sub expected k 8) (draws moved 8))
    [ true; false ]

(* Known answers of the xoshiro256++/splitmix64 streams. Any change to
   the generator's storage or seeding that alters one bit of any stream
   fails here, where the tests above compare two streams of one build. *)
let test_known_streams () =
  List.iter
    (fun (seed, expected) ->
      Alcotest.(check (array int64))
        (Printf.sprintf "seed %Ld" seed)
        expected
        (draws (Prng.create ~seed) 8))
    [
      ( 0L,
        [|
          5987356902031041503L; 7051070477665621255L; 6633766593972829180L;
          211316841551650330L; 9136120204379184874L; 379361710973160858L;
          -2633320696210193810L; -2849859482894481063L;
        |] );
      ( 42L,
        [|
          -3425465463722317665L; 5881210131331364753L; -297100157724070516L;
          -5513075133950446152L; -3809169831026726285L; -7598242172641419651L;
          2312344417745909078L; -7284205130074240186L;
        |] );
      ( Int64.min_int,
        [|
          -2672315425270097330L; -5326904149564894327L; -343156467607060188L;
          -9143473603532983327L; 4523517144723699435L; -463870060975211186L;
          8173102088013256430L; 5525985921365508460L;
        |] );
    ]

let test_known_splits () =
  let child0 =
    [|
      -7384938001587474153L; -6450260297577643313L; -2661996793603478373L;
      1728850538401358170L;
    |]
  in
  let g = Prng.create ~seed:42L in
  let child = Prng.split g in
  Alcotest.(check (array int64)) "split child" child0 (draws child 4);
  Alcotest.(check (array int64)) "parent after split"
    [|
      5881210131331364753L; -297100157724070516L; -5513075133950446152L;
      -3809169831026726285L;
    |]
    (draws g 4);
  let kids = Prng.split_n (Prng.create ~seed:42L) 3 in
  Array.iteri
    (fun i expected ->
      Alcotest.(check (array int64))
        (Printf.sprintf "split_n child %d" i)
        expected (draws kids.(i) 4))
    [|
      child0;
      [|
        -7343069399395463115L; -5619138425836720041L; -7294810148187464744L;
        3269661154341190234L;
      |];
      [|
        3855163076759406669L; 1922452201357810525L; -2236960002918818623L;
        -200474661374476391L;
      |];
    |]

let test_known_floats () =
  let g = Prng.create ~seed:42L in
  List.iter
    (fun expected ->
      Alcotest.(check string) "float bits" (Printf.sprintf "%h" expected)
        (Printf.sprintf "%h" (Prng.float g)))
    [
      0x1.a0ec9a9e88ecdp-1; 0x1.467905d15dbccp-2; 0x1.f7c0f9f61849dp-1;
      0x1.66fb3ec019b06p-1;
    ]

(* The state is unboxed, so a draw allocates only the float it returns
   (2 words); state held in boxed int64 fields would cost 23. *)
let test_float_allocation () =
  let g = Prng.create ~seed:3L in
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Prng.float g))
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int n in
  if per_call > 2.0 then
    Alcotest.failf "Prng.float allocates %.2f minor words per call" per_call

let test_split_diverges () =
  let g = Prng.create ~seed:5L in
  let child = Prng.split g in
  let overlap = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 g = Prng.next_int64 child then incr overlap
  done;
  Alcotest.(check bool) "split stream distinct" true (!overlap < 4)

let test_float_range_01 () =
  let g = Prng.create ~seed:7L in
  for _ = 1 to 10_000 do
    let u = Prng.float g in
    if u < 0.0 || u >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_float_mean () =
  let g = Prng.create ~seed:11L in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.float g
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check (float 0.01)) "uniform mean ~ 0.5" 0.5 mean

let test_int_bounds_and_coverage () =
  let g = Prng.create ~seed:13L in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let k = Prng.int g ~bound:10 in
    if k < 0 || k >= 10 then Alcotest.fail "int out of range";
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      if c < 800 || c > 1200 then
        Alcotest.failf "bucket count %d far from uniform" c)
    counts

let test_int_invalid_bound () =
  let g = Prng.create ~seed:1L in
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Prng.int: requires bound > 0") (fun () ->
      ignore (Prng.int g ~bound:0))

let test_exponential_mean () =
  let g = Prng.create ~seed:17L in
  let n = 200_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Prng.exponential g ~rate:2.0
  done;
  Alcotest.(check (float 0.01)) "Exp(2) mean ~ 0.5" 0.5 (!acc /. float_of_int n)

let test_normal_moments () =
  let g = Prng.create ~seed:19L in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Prng.normal g ~mu:3.0 ~sigma:2.0) in
  let s = Stats.summarize xs in
  Alcotest.(check (float 0.05)) "normal mean" 3.0 s.Stats.mean;
  Alcotest.(check (float 0.1)) "normal stddev" 2.0 s.Stats.stddev

let test_weibull_median () =
  let g = Prng.create ~seed:23L in
  let n = 100_000 in
  let xs = Array.init n (fun _ -> Prng.weibull g ~shape:2.0 ~scale:1.0) in
  (* Weibull median = scale * (ln 2)^(1/shape) *)
  let expected = Float.pow (log 2.0) 0.5 in
  Alcotest.(check (float 0.02)) "weibull median" expected
    (Stats.quantile xs ~q:0.5)

let test_float_range_args () =
  let g = Prng.create ~seed:31L in
  Alcotest.check_raises "lo >= hi rejected"
    (Invalid_argument "Prng.float_range: requires lo < hi") (fun () ->
      ignore (Prng.float_range g ~lo:1.0 ~hi:1.0))

let () =
  Alcotest.run "prng"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_different_seeds_differ;
          Alcotest.test_case "copy independence" `Quick test_copy_is_independent;
          Alcotest.test_case "split diverges" `Quick test_split_diverges;
          Alcotest.test_case "float in [0,1)" `Quick test_float_range_01;
          Alcotest.test_case "uniform mean" `Quick test_float_mean;
          Alcotest.test_case "int coverage" `Quick test_int_bounds_and_coverage;
          Alcotest.test_case "int invalid bound" `Quick test_int_invalid_bound;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "normal moments" `Quick test_normal_moments;
          Alcotest.test_case "weibull median" `Quick test_weibull_median;
          Alcotest.test_case "float_range validation" `Quick
            test_float_range_args;
          Alcotest.test_case "known streams" `Quick test_known_streams;
          Alcotest.test_case "known splits" `Quick test_known_splits;
          Alcotest.test_case "known floats" `Quick test_known_floats;
          Alcotest.test_case "float allocation" `Quick test_float_allocation;
        ] );
    ]
