(* Tests of the experiment harness itself: configuration, dataset caching,
   the suite runner, and smoke runs of the experiment registry at quick
   scale (stdout of the experiments is irrelevant here; what matters is
   that every experiment completes and the runner enforces validity). *)

module Config = Revmax_experiments.Config
module Datasets = Revmax_experiments.Datasets
module Runner = Revmax_experiments.Runner
module Experiments = Revmax_experiments.Experiments
module Pipeline = Revmax_datagen.Pipeline
module Algorithms = Revmax.Algorithms
module Instance = Revmax.Instance

let quick = Config.of_scale ~seed:77 Config.Quick

let test_config_scales () =
  List.iter
    (fun scale ->
      let cfg = Config.of_scale scale in
      let a = Config.amazon_scale cfg and e = Config.epinions_scale cfg in
      Alcotest.(check bool) "amazon users positive" true (a.Revmax_datagen.Amazon_like.num_users > 0);
      Alcotest.(check bool) "epinions users positive" true
        (e.Revmax_datagen.Epinions_like.num_users > 0);
      Alcotest.(check bool) "sweep non-empty" true (Config.fig6_user_counts cfg <> []))
    [ Config.Quick; Config.Default; Config.Full ]

let test_config_capacity_specs () =
  let cfg = quick in
  (match Config.cap_gaussian cfg ~users:1000 with
  | Pipeline.Cap_gaussian { mean; sigma } ->
      Helpers.check_float ~eps:1e-9 "mean ratio" 220.0 mean;
      Alcotest.(check bool) "sigma positive" true (sigma > 0.0)
  | _ -> Alcotest.fail "expected gaussian");
  (match Config.cap_power cfg ~users:1000 with
  | Pipeline.Cap_power { alpha; x_min } ->
      (* Pareto mean alpha·x_min/(alpha−1) matches the Gaussian mean *)
      Helpers.check_float ~eps:1e-9 "power mean matched" 220.0 (alpha *. x_min /. (alpha -. 1.0))
  | _ -> Alcotest.fail "expected power");
  match Config.cap_uniform cfg ~users:1000 with
  | Pipeline.Cap_uniform { lo; hi } -> Alcotest.(check bool) "ordered" true (lo < hi)
  | _ -> Alcotest.fail "expected uniform"

let test_datasets_memoized () =
  let a1 = Datasets.amazon quick and a2 = Datasets.amazon quick in
  Alcotest.(check bool) "same prepared dataset object" true (a1 == a2);
  let names = List.map (fun p -> p.Pipeline.name) (Datasets.both quick) in
  Alcotest.(check (list string)) "order" [ "Amazon"; "Epinions" ] names

let test_datasets_instance_distinct_seeds () =
  let prepared = Datasets.amazon quick in
  let users = prepared.Pipeline.num_users in
  let i1 =
    Datasets.instance quick prepared ~capacity:(Config.cap_gaussian quick ~users)
      ~beta:Pipeline.Beta_uniform ()
  in
  let i2 =
    Datasets.instance quick prepared ~capacity:(Config.cap_exponential quick ~users)
      ~beta:Pipeline.Beta_uniform ()
  in
  (* different capacity specs draw different instantiation randomness *)
  let differs = ref false in
  for i = 0 to Instance.num_items i1 - 1 do
    if Instance.saturation i1 i <> Instance.saturation i2 i then differs := true
  done;
  Alcotest.(check bool) "distinct derived seeds" true !differs

let test_runner_suite_shape () =
  let prepared = Datasets.epinions quick in
  let users = prepared.Pipeline.num_users in
  let inst =
    Datasets.instance quick prepared ~capacity:(Config.cap_gaussian quick ~users)
      ~beta:(Pipeline.Beta_fixed 0.5) ()
  in
  let outcomes = Runner.run_suite ~rlg_permutations:3 ~seed:1 inst in
  Alcotest.(check int) "six algorithms" 6 (List.length outcomes);
  let results = Runner.completed outcomes in
  Alcotest.(check int) "all completed" 6 (List.length results);
  Alcotest.(check (list string)) "header order" [ "GG"; "GG-No"; "RLG"; "SLG"; "TopRev"; "TopRat" ]
    (List.map (fun r -> Algorithms.name r.Runner.algo) results);
  List.iter
    (fun r ->
      Alcotest.(check bool) "revenue non-negative" true (r.Runner.revenue >= 0.0);
      Alcotest.(check bool) "time non-negative" true (r.Runner.seconds >= 0.0);
      Alcotest.(check bool) "strategy non-empty" true (r.Runner.strategy_size > 0))
    results;
  (* GG leads the table *)
  let gg = List.hd results in
  List.iter
    (fun r -> Alcotest.(check bool) "GG top" true (gg.Runner.revenue >= r.Runner.revenue -. 1e-6))
    results

let test_registry_ids_unique () =
  let ids = List.map (fun (id, _, _) -> id) Experiments.all in
  Alcotest.(check int) "16 experiments" 16 (List.length ids);
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_run_by_id () =
  Alcotest.(check bool) "unknown id" false (Experiments.run_by_id "nope" quick);
  Alcotest.(check bool) "table1 runs" true (Experiments.run_by_id "table1" quick)

let test_smoke_fast_experiments () =
  (* the cheap experiments run end-to-end at quick scale inside the tests;
     the expensive ones are exercised by the bench executable *)
  List.iter
    (fun id -> Alcotest.(check bool) id true (Experiments.run_by_id id quick))
    [ "fig4"; "fig5"; "fig6"; "abl-exact"; "bench-greedy-soa" ]

let () =
  Alcotest.run "experiments"
    [
      ( "config",
        [
          Alcotest.test_case "scales" `Quick test_config_scales;
          Alcotest.test_case "capacity specs" `Quick test_config_capacity_specs;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "memoized" `Slow test_datasets_memoized;
          Alcotest.test_case "derived seeds" `Slow test_datasets_instance_distinct_seeds;
        ] );
      ("runner", [ Alcotest.test_case "suite shape" `Slow test_runner_suite_shape ]);
      ( "registry",
        [
          Alcotest.test_case "unique ids" `Quick test_registry_ids_unique;
          Alcotest.test_case "run_by_id" `Slow test_run_by_id;
          Alcotest.test_case "smoke fast experiments" `Slow test_smoke_fast_experiments;
        ] );
    ]
