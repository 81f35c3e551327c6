(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table 1, Figures 1-7, Table 2), the §7 random-price
   extension, and the design-choice ablations — then runs a Bechamel
   microbenchmark suite over the hot kernels (marginal revenue, heaps,
   Poisson-binomial DP) whose costs the macro experiments are built from.

   Scale is selected with REVMAX_SCALE=quick|default|full (see
   Config.load); REVMAX_ONLY=<id>[,<id>...] restricts to specific
   experiments; REVMAX_SKIP_MICRO=1 drops the Bechamel section.

   Fault tolerance: REVMAX_CHECKPOINT_DIR=<dir> records each completed
   experiment's stdout as one JSON file (atomic rename), and
   REVMAX_RESUME=1 replays recorded cells byte-for-byte so a killed run
   resumes at the first missing experiment. Progress/timing lines go to
   stderr, keeping stdout deterministic experiment content. *)

module Config = Revmax_experiments.Config
module Experiments = Revmax_experiments.Experiments
module Checkpoint = Revmax_experiments.Checkpoint
module Util = Revmax_prelude.Util
module Rng = Revmax_prelude.Rng
module Metrics = Revmax_prelude.Metrics
module Log = Revmax_prelude.Metrics.Log
module Instance = Revmax.Instance
module Strategy = Revmax.Strategy
module Revenue = Revmax.Revenue
module Triple = Revmax.Triple

(* ----- Bechamel microbenchmarks ----- *)

let micro_instance =
  lazy
    (let rng = Rng.create 7 in
     let num_users = 20 and num_items = 10 and horizon = 7 in
     let adoption = ref [] in
     for u = 0 to num_users - 1 do
       for i = 0 to num_items - 1 do
         adoption := (u, i, Array.init horizon (fun _ -> Rng.unit_float rng)) :: !adoption
       done
     done;
     Instance.create ~num_users ~num_items ~horizon ~display_limit:3
       ~class_of:(Array.init num_items (fun i -> i mod 3))
       ~capacity:(Array.make num_items 10)
       ~saturation:(Array.init num_items (fun _ -> Rng.unit_float rng))
       ~price:
         (Array.init num_items (fun _ -> Array.init horizon (fun _ -> Rng.uniform_in rng 1.0 10.0)))
       ~adoption:!adoption ())

let strategy_with_chain len =
  let inst = Lazy.force micro_instance in
  let s = Strategy.create inst in
  (* one user, one class: items 0,3,6 share class 0 *)
  for t = 1 to min len (Instance.horizon inst) do
    Strategy.add s (Triple.make ~u:0 ~i:(3 * (t mod 2)) ~t)
  done;
  s

let bench_marginal len =
  let s = strategy_with_chain len in
  let z = Triple.make ~u:0 ~i:6 ~t:(Instance.horizon (Strategy.instance s)) in
  Bechamel.Staged.stage (fun () -> ignore (Revenue.marginal s z))

let bench_marginal_incremental len =
  let s = strategy_with_chain len in
  let z = Triple.make ~u:0 ~i:6 ~t:(Instance.horizon (Strategy.instance s)) in
  Bechamel.Staged.stage (fun () -> ignore (Revenue.marginal_incremental s z))

let bench_heap_churn () =
  let module Bh = Revmax_pqueue.Binary_heap in
  Bechamel.Staged.stage (fun () ->
      let h = Bh.create () in
      for i = 0 to 63 do
        Bh.insert h ~key:(float_of_int ((i * 37) mod 64)) i
      done;
      while not (Bh.is_empty h) do
        ignore (Bh.delete_max h)
      done)

let bench_two_level_churn () =
  let module Tl = Revmax_pqueue.Two_level_heap in
  Bechamel.Staged.stage (fun () ->
      let h = Tl.create ~groups:8 ~width:8 in
      let key = [| 0.0 |] in
      (* the i-th insert goes to group i mod 8, as its (i / 8)-th entry *)
      for i = 0 to 63 do
        key.(0) <- float_of_int ((i * 37) mod 64);
        Tl.insert h key (((i mod 8) * 8) + (i / 8))
      done;
      while not (Tl.is_empty h) do
        Tl.drop_max h
      done)

let bench_poisson_binomial () =
  let ps = Array.init 100 (fun i -> 0.01 *. float_of_int (i mod 90)) in
  Bechamel.Staged.stage (fun () -> ignore (Revmax_stats.Poisson_binomial.at_most ps 10))

let bench_kde_sf () =
  let kde = Revmax_stats.Kde.fit (Array.init 50 (fun i -> 10.0 +. float_of_int i)) in
  Bechamel.Staged.stage (fun () -> ignore (Revmax_stats.Kde.sf kde 35.0))

let bench_simulate () =
  let s = strategy_with_chain 5 in
  let rng = Rng.create 3 in
  Bechamel.Staged.stage (fun () -> ignore (Revmax.Simulate.revenue_once s rng))

let micro_tests =
  let open Bechamel in
  Test.make_grouped ~name:"kernels" ~fmt:"%s %s"
    [
      Test.make ~name:"marginal-revenue (chain 2)" (bench_marginal 2);
      Test.make ~name:"marginal-revenue (chain 7)" (bench_marginal 7);
      Test.make ~name:"marginal-incremental (chain 2)" (bench_marginal_incremental 2);
      Test.make ~name:"marginal-incremental (chain 7)" (bench_marginal_incremental 7);
      Test.make ~name:"binary-heap churn (64)" (bench_heap_churn ());
      Test.make ~name:"two-level-heap churn (64)" (bench_two_level_churn ());
      Test.make ~name:"poisson-binomial at_most (n=100,m=10)" (bench_poisson_binomial ());
      Test.make ~name:"kde survival (n=50)" (bench_kde_sf ());
      Test.make ~name:"simulate chain world" (bench_simulate ());
    ]

let run_micro () =
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances micro_tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Log.out "\n=== Microbenchmarks (Bechamel, monotonic clock) ===\n";
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (t :: _) -> Log.out "%-45s %12.1f ns/run\n" name t
      | Some [] | None -> Log.out "%-45s (no estimate)\n" name)
    (List.sort compare rows)

(* ----- Main ----- *)

let () =
  (* allocation-heavy planning benefits from a roomier minor heap *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 16 * 1024 * 1024; space_overhead = 200 };
  Metrics.env_setup ();
  let cfg = Config.load () in
  (* meta/progress lines go to stderr: stdout carries only deterministic
     experiment content, so checkpointed and resumed runs compare equal *)
  Log.info "REVMAX benchmark suite — scale=%s seed=%d jobs=%d\n"
    (Config.scale_name cfg.Config.scale)
    cfg.Config.seed
    (Revmax_prelude.Pool.default_jobs ());
  Log.info "(REVMAX_SCALE=quick|default|full selects sizes; see DESIGN.md section 4)\n";
  let only =
    match Sys.getenv_opt "REVMAX_ONLY" with
    | None -> None
    | Some s -> Some (String.split_on_char ',' s |> List.map String.trim)
  in
  let resume =
    match Sys.getenv_opt "REVMAX_RESUME" with
    | Some ("1" | "true" | "yes") -> true
    | _ -> false
  in
  let checkpoint =
    Option.map
      (fun dir -> Checkpoint.create ~dir ~resume)
      (Sys.getenv_opt "REVMAX_CHECKPOINT_DIR")
  in
  let meta =
    [
      ("scale", Config.scale_name cfg.Config.scale);
      ("seed", string_of_int cfg.Config.seed);
      (* a different REVMAX_SHARDS changes the bench-shards cell, so a
         resume under a new shard count is rejected like a seed change *)
      ("shards", string_of_int (Revmax.Shard_greedy.default_shards ()));
    ]
  in
  let total_t0 = Unix.gettimeofday () in
  (* grid cells run on up to REVMAX_JOBS processes; outputs, records and the
     stderr progress lines below are emitted in cell order either way *)
  let cells =
    List.filter_map
      (fun (id, _desc, f) ->
        let selected = match only with None -> true | Some ids -> List.mem id ids in
        if selected then Some (id, meta, fun () -> f cfg) else None)
      Experiments.all
  in
  let on_done ~id ~status ~seconds =
    match status with
    | `Ran -> Log.info "[%s finished in %.1fs]\n" id seconds
    | `Replayed -> Log.info "[%s replayed from checkpoint]\n" id
  in
  ignore (Checkpoint.run_cells checkpoint ~on_done cells);
  (match (only, Sys.getenv_opt "REVMAX_SKIP_MICRO") with
  | None, None -> run_micro ()
  | _ -> ());
  Log.info "\nTotal benchmark time: %.1fs\n" (Unix.gettimeofday () -. total_t0)
