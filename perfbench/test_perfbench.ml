(* The benchmark's own checks: its dense generator reproduces the
   recorded greedy cell, and a tail percentile is printed only with ten
   samples beyond it. *)

open Perfbench

let dense_reproduces_record () =
  let inst = Dense.generate ~seed:20140901 ~users:400 in
  let s, st = Revmax.Greedy.run inst in
  (* BENCH_greedy_soa.json, large cell *)
  Alcotest.(check int) "marginal evaluations" 1_684_061 st.Revmax.Greedy.marginal_evaluations;
  Alcotest.(check int) "selections" 20_116 st.Revmax.Greedy.selected;
  Alcotest.(check int) "candidate triples" 192_225 (Revmax.Instance.num_candidate_triples inst);
  Alcotest.(check bool) "valid" true (Result.is_ok (Revmax.Strategy.validate s))

let reportable () =
  let check msg expected ~pct n = Alcotest.(check bool) msg expected (Pctl.reportable ~pct n) in
  check "p99 of 999: 9 beyond" false ~pct:99 999;
  check "p99 of 1000: 10 beyond" true ~pct:99 1000;
  check "p50 of 19: 9 beyond" false ~pct:50 19;
  check "p50 of 20: 10 beyond" true ~pct:50 20;
  check "no samples" false ~pct:50 0

let () =
  Alcotest.run "perfbench"
    [
      ("dense", [ Alcotest.test_case "reproduces the greedy record" `Quick dense_reproduces_record ]);
      ("pctl", [ Alcotest.test_case "ten beyond" `Quick reportable ]);
    ]
