module Rng = Revmax_prelude.Rng
module Util = Revmax_prelude.Util
module Summary = Revmax_prelude.Summary
module Table = Revmax_prelude.Table

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independence () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  (* the split stream must differ from the parent's continuation *)
  let xs = List.init 16 (fun _ -> Rng.int64 a) in
  let ys = List.init 16 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* Frozen regression vector: the exact first outputs of each stream from
   [split_n (create 2014) 4]. Any change to the splitting scheme breaks
   bit-identical parallel replay of recorded experiments, so it must fail
   this test loudly rather than slip through. *)
let test_rng_split_n_fixed_vector () =
  let expected =
    [|
      [| -222154820207809816L; -6699427474680733029L; 5999488019019728583L |];
      [| -1003571501047460538L; -19407928421901143L; -8743373286907793499L |];
      [| 6942381633699297496L; -4158942187869236374L; 396306503263995938L |];
      [| 1104322556368567664L; -848950122893573342L; 7047298098243484596L |];
    |]
  in
  let streams = Rng.split_n (Rng.create 2014) 4 in
  Alcotest.(check int) "stream count" 4 (Array.length streams);
  Array.iteri
    (fun i s ->
      Array.iteri
        (fun j v ->
          Alcotest.(check int64) (Printf.sprintf "stream %d output %d" i j) v (Rng.int64 s))
        expected.(i))
    streams;
  (match Rng.split_n (Rng.create 1) (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "split_n accepted a negative count");
  Alcotest.(check int) "split_n 0 is empty" 0 (Array.length (Rng.split_n (Rng.create 1) 0))

(* Statistical independence smoke test: sibling streams from [split_n]
   should look uncorrelated — per-stream means near 1/2 and pairwise
   sample correlations near zero. Thresholds are loose (4-sigma-ish for
   n = 4096) so the test is deterministic-stable, yet any accidental
   stream aliasing (correlation 1.0) fails immediately. *)
let test_rng_split_n_independence () =
  let k = 6 and n = 4096 in
  let streams = Rng.split_n (Rng.create 99) k in
  let samples = Array.map (fun s -> Array.init n (fun _ -> Rng.unit_float s)) streams in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
  let means = Array.map mean samples in
  Array.iteri
    (fun i m ->
      if Float.abs (m -. 0.5) > 0.02 then
        Alcotest.failf "stream %d mean %.4f drifts from 1/2" i m)
    means;
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      let xi = samples.(i) and xj = samples.(j) in
      let mi = means.(i) and mj = means.(j) in
      let cov = ref 0.0 and vi = ref 0.0 and vj = ref 0.0 in
      for t = 0 to n - 1 do
        let di = xi.(t) -. mi and dj = xj.(t) -. mj in
        cov := !cov +. (di *. dj);
        vi := !vi +. (di *. di);
        vj := !vj +. (dj *. dj)
      done;
      let r = !cov /. sqrt (!vi *. !vj) in
      if Float.abs r > 0.07 then
        Alcotest.failf "streams %d,%d correlated: r = %.4f" i j r
    done
  done

let test_rng_int_bounds () =
  let rng = Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done;
  (* large bound path *)
  for _ = 1 to 1_000 do
    let v = Rng.int rng (1 lsl 40) in
    if v < 0 || v >= 1 lsl 40 then Alcotest.failf "out of range (large): %d" v
  done

let test_rng_int_uniformity () =
  let rng = Rng.create 3 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d skewed: %d vs %d" i c expected)
    counts

let test_unit_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.unit_float rng in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "unit_float out of range: %f" v
  done

let test_gaussian_moments () =
  let rng = Rng.create 5 in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  let s = Summary.of_array xs in
  Helpers.check_float ~eps:0.02 "gaussian mean" 0.0 s.Summary.mean;
  Helpers.check_float ~eps:0.02 "gaussian std" 1.0 s.Summary.std

let test_exponential_mean () =
  let rng = Rng.create 6 in
  let xs = Array.init 100_000 (fun _ -> Rng.exponential rng ~rate:2.0) in
  Helpers.check_float ~eps:0.02 "exponential mean" 0.5 (Util.mean xs)

let test_pareto_support () =
  let rng = Rng.create 8 in
  for _ = 1 to 10_000 do
    let v = Rng.pareto rng ~alpha:2.0 ~x_min:3.0 in
    if v < 3.0 then Alcotest.failf "pareto below x_min: %f" v
  done

let test_shuffle_permutes () =
  let rng = Rng.create 9 in
  let a = Array.init 50 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  let sorted = Array.copy b in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" a sorted

let test_permutation_valid () =
  let rng = Rng.create 10 in
  let p = Rng.permutation rng 20 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 (fun i -> i)) sorted

let test_sample_without_replacement () =
  let rng = Rng.create 12 in
  (* dense and sparse paths *)
  List.iter
    (fun (n, k) ->
      let s = Rng.sample_without_replacement rng n k in
      Alcotest.(check int) "count" k (Array.length s);
      let tbl = Hashtbl.create k in
      Array.iter
        (fun v ->
          if v < 0 || v >= n then Alcotest.failf "out of range: %d" v;
          if Hashtbl.mem tbl v then Alcotest.failf "duplicate: %d" v;
          Hashtbl.add tbl v ())
        s)
    [ (10, 8); (1000, 5); (5, 5); (7, 0) ]

let test_bernoulli_frequency () =
  let rng = Rng.create 13 in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  Helpers.check_float ~eps:0.01 "bernoulli(0.3)" 0.3 (float_of_int !hits /. float_of_int n)

let test_clamp () =
  Helpers.check_float "below" 0.0 (Util.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  Helpers.check_float "above" 1.0 (Util.clamp ~lo:0.0 ~hi:1.0 7.0);
  Helpers.check_float "inside" 0.5 (Util.clamp ~lo:0.0 ~hi:1.0 0.5)

let test_sum_floats_kahan () =
  (* naive summation loses the small additions; Kahan keeps them *)
  let a = Array.make 10_001 1e-8 in
  a.(0) <- 1e8;
  let expected = 1e8 +. (1e-8 *. 10_000.0) in
  Helpers.check_float ~eps:1e-12 "kahan sum" expected (Util.sum_floats a)

let test_argmax () =
  let a = [| 3.0; 9.0; 2.0; 9.0 |] in
  Alcotest.(check int) "first max" 1 (Util.argmax Fun.id a);
  Alcotest.check_raises "empty" (Invalid_argument "Util.argmax: empty array") (fun () ->
      ignore (Util.argmax Fun.id [||]))

let test_top_k_by () =
  let a = [| 5; 1; 9; 3; 7 |] in
  let top = Util.top_k_by 3 float_of_int a in
  Alcotest.(check (array int)) "top 3 desc" [| 9; 7; 5 |] top;
  let all = Util.top_k_by 10 float_of_int a in
  Alcotest.(check int) "short array" 5 (Array.length all)

(* [allocated_words] counts the calling domain only. The measured closure
   lets a sibling domain allocate about 900,000 words (a 300,000-cell
   list) and waits for it to finish, so every one of those words falls
   between the two reads. *)
let test_allocated_words_ignores_siblings () =
  let go = Atomic.make false and finished = Atomic.make false in
  let sibling =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        let cells = List.init 300_000 Fun.id in
        Atomic.set finished true;
        List.length cells)
  in
  let (), words =
    Util.allocated_words (fun () ->
        Atomic.set go true;
        while not (Atomic.get finished) do
          Domain.cpu_relax ()
        done)
  in
  Alcotest.(check int) "the sibling's list" 300_000 (Domain.join sibling);
  if words > 1000.0 then
    Alcotest.failf "an empty closure read %.0f words while a sibling domain allocated (at most 1,000)"
      words

let test_summary () =
  let s = Summary.of_array [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Helpers.check_float "mean" 3.0 s.Summary.mean;
  Helpers.check_float "median" 3.0 s.Summary.median;
  Helpers.check_float "min" 1.0 s.Summary.min;
  Helpers.check_float "max" 5.0 s.Summary.max;
  Helpers.check_float ~eps:1e-9 "std" (sqrt 2.5) s.Summary.std

let test_quantile_interpolation () =
  let sorted = [| 0.0; 10.0 |] in
  Helpers.check_float "q25" 2.5 (Summary.quantile sorted 0.25);
  Helpers.check_float "q50" 5.0 (Summary.quantile sorted 0.5)

let test_histogram () =
  let h = Summary.histogram ~bins:2 [| 0.0; 0.1; 0.9; 1.0 |] in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "low bin" 2 c0;
  Alcotest.(check int) "high bin" 2 c1

module Budget = Revmax_prelude.Budget

let check_float_near msg expected actual =
  if Float.abs (expected -. actual) > 1e-6 then
    Alcotest.failf "%s: expected %.6f, got %.6f" msg expected actual

(* Replay a controlled wall-clock sequence through the monotonic-elapsed
   wrapper: backward steps (NTP corrections) must contribute zero elapsed
   time, so a deadline can neither be extended by a backward jump nor kept
   from ever firing. The mocked source returns the scripted samples and
   then keeps repeating the last one. *)
let with_mock_clock samples f =
  let remaining = ref samples in
  let last = ref (List.hd samples) in
  Budget.set_time_source_for_tests
    (Some
       (fun () ->
         (match !remaining with
         | [] -> ()
         | x :: rest ->
             last := x;
             remaining := rest);
         !last));
  Fun.protect ~finally:(fun () -> Budget.set_time_source_for_tests None) f

let test_budget_monotonic_backward_clamp () =
  (* samples consumed: one per monotonic_now call *)
  with_mock_clock
    [ 1000.0; (* create: deadline = now_mono + 5 *)
      990.0; (* NTP step 10s backward: elapsed clamps to 0 *)
      992.0; (* 2s after the step: 2s elapsed *)
      994.0; (* 4s elapsed: still inside the deadline *)
      995.5 (* 5.5s elapsed: expired *) ]
    (fun () ->
      let b = Budget.create ~wall_seconds:5.0 () in
      Alcotest.(check bool) "backward jump does not expire" false (Budget.exhausted b);
      Alcotest.(check bool) "2s elapsed: alive" false (Budget.exhausted b);
      Alcotest.(check bool) "4s elapsed: alive" false (Budget.exhausted b);
      Alcotest.(check bool) "5.5s elapsed: expired" true (Budget.exhausted b))

let test_budget_monotonic_no_extension () =
  (* Under raw wall-clock deadlines a backward jump extends every deadline
     by the jump size; on the elapsed scale remaining time never grows. *)
  with_mock_clock
    [ 2000.0; (* create: 3s budget *)
      2001.0; (* 1s elapsed: remaining 2 *)
      1500.0; (* 501s backward: remaining must NOT become ~503 *)
      1500.5; (* 0.5s later *)
      1502.0 (* a further 1.5s: total elapsed 3 -> expired *) ]
    (fun () ->
      let b = Budget.create ~wall_seconds:3.0 () in
      let r1 = Option.get (Budget.remaining_seconds b) in
      check_float_near "1s elapsed" 2.0 r1;
      let r2 = Option.get (Budget.remaining_seconds b) in
      Alcotest.(check bool)
        (Printf.sprintf "backward jump must not extend (remaining %.3f)" r2)
        true (r2 <= r1 +. 1e-9);
      let r3 = Option.get (Budget.remaining_seconds b) in
      check_float_near "0.5s later" 1.5 r3;
      Alcotest.(check bool) "3s total elapsed: expired" true (Budget.exhausted b))

let test_budget_monotonic_advances () =
  let t0 = Budget.monotonic_now () in
  let t1 = Budget.monotonic_now () in
  Alcotest.(check bool) "never decreases" true (t1 >= t0)

let contains_substring haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let t = Table.create ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_floats t ~label:"beta" [ 2.5 ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true (contains_substring s "name");
  Alcotest.(check bool) "contains alpha" true (contains_substring s "alpha");
  Alcotest.(check bool) "contains beta row" true (contains_substring s "2.5")

let () =
  Alcotest.run "prelude"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "split_n fixed vector" `Quick test_rng_split_n_fixed_vector;
          Alcotest.test_case "split_n independence" `Slow test_rng_split_n_independence;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniformity" `Slow test_rng_int_uniformity;
          Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
          Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
          Alcotest.test_case "exponential mean" `Slow test_exponential_mean;
          Alcotest.test_case "pareto support" `Quick test_pareto_support;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "permutation valid" `Quick test_permutation_valid;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "bernoulli frequency" `Slow test_bernoulli_frequency;
        ] );
      ( "util",
        [
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "kahan sum" `Quick test_sum_floats_kahan;
          Alcotest.test_case "argmax" `Quick test_argmax;
          Alcotest.test_case "top_k_by" `Quick test_top_k_by;
          Alcotest.test_case "allocated_words ignores a sibling domain" `Quick
            test_allocated_words_ignores_siblings;
        ] );
      ( "summary",
        [
          Alcotest.test_case "summary stats" `Quick test_summary;
          Alcotest.test_case "quantile interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "histogram" `Quick test_histogram;
        ] );
      ( "budget",
        [
          Alcotest.test_case "monotonic: backward jump clamps" `Quick
            test_budget_monotonic_backward_clamp;
          Alcotest.test_case "monotonic: backward jump never extends" `Quick
            test_budget_monotonic_no_extension;
          Alcotest.test_case "monotonic: never decreases" `Quick test_budget_monotonic_advances;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
    ]
