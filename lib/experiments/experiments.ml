module Table = Revmax_prelude.Table
module Log = Revmax_prelude.Metrics.Log
module Util = Revmax_prelude.Util
module Rng = Revmax_prelude.Rng
module Instance = Revmax.Instance
module Strategy = Revmax.Strategy
module Revenue = Revmax.Revenue
module Greedy = Revmax.Greedy
module Local_greedy = Revmax.Local_greedy
module Exact = Revmax.Exact
module Local_search = Revmax.Local_search
module Random_price = Revmax.Random_price
module Rolling = Revmax.Rolling
module Algorithms = Revmax.Algorithms
module Pipeline = Revmax_datagen.Pipeline
module Scalability = Revmax_datagen.Scalability
module Valuation = Revmax_datagen.Valuation

(* ----- Table 1 ----- *)

let table1 (cfg : Config.t) =
  Runner.section "Table 1: data statistics";
  let t =
    Table.create
      ~columns:
        [
          "dataset"; "#Users"; "#Items"; "#Ratings"; "#Triples q>0"; "#Classes"; "Largest";
          "Smallest"; "Median";
        ]
  in
  List.iter (fun p -> Table.add_row t (Pipeline.stats_row p)) (Datasets.both cfg);
  let synth =
    Scalability.with_users (Config.fig6_base cfg) (List.hd (Config.fig6_user_counts cfg))
  in
  Table.add_row t (Scalability.table1_row synth ~seed:cfg.Config.seed);
  Table.print t

(* ----- Figures 1-3: revenue comparisons ----- *)

let revenue_table cfg ~rows =
  let t = Table.create ~columns:("setting" :: Runner.header) in
  List.iter
    (fun (label, inst) ->
      let results =
        Runner.run_suite ~rlg_permutations:cfg.Config.rlg_permutations ~seed:cfg.Config.seed inst
      in
      Runner.report_failures results;
      Table.add_row t (label :: Runner.revenue_row results))
    rows;
  Table.print t

let fig1 (cfg : Config.t) =
  Runner.section "Figure 1: revenue, beta ~ U[0,1], capacity distributions";
  List.iter
    (fun singleton ->
      List.iter
        (fun prepared ->
          let users = prepared.Pipeline.num_users in
          Log.out "\n[%s%s]\n" prepared.Pipeline.name
            (if singleton then ", class size 1" else "");
          let rows =
            List.map
              (fun (label, spec) ->
                ( label,
                  Datasets.instance cfg prepared ~capacity:spec ~beta:Pipeline.Beta_uniform
                    ~singleton_classes:singleton () ))
              [
                ("normal", Config.cap_gaussian cfg ~users);
                ("power", Config.cap_power cfg ~users);
                ("uniform", Config.cap_uniform cfg ~users);
              ]
          in
          revenue_table cfg ~rows)
        (Datasets.both cfg))
    [ false; true ]

let fig23 (cfg : Config.t) ~singleton =
  List.iter
    (fun prepared ->
      let users = prepared.Pipeline.num_users in
      List.iter
        (fun (cap_label, spec) ->
          Log.out "\n[%s (%s)%s]\n" prepared.Pipeline.name cap_label
            (if singleton then ", class size 1" else "");
          let rows =
            List.map
              (fun beta ->
                ( Printf.sprintf "beta=%.1f" beta,
                  Datasets.instance cfg prepared ~capacity:spec
                    ~beta:(Pipeline.Beta_fixed beta) ~singleton_classes:singleton () ))
              [ 0.1; 0.5; 0.9 ]
          in
          revenue_table cfg ~rows)
        [
          ("Gaussian", Config.cap_gaussian cfg ~users);
          ("Exponential", Config.cap_exponential cfg ~users);
        ])
    (Datasets.both cfg)

let fig2 (cfg : Config.t) =
  Runner.section "Figure 2: revenue vs saturation strength, class size > 1";
  fig23 cfg ~singleton:false

let fig3 (cfg : Config.t) =
  Runner.section "Figure 3: revenue vs saturation strength, class size = 1";
  fig23 cfg ~singleton:true

(* ----- Figure 4: revenue growth curves ----- *)

let downsample points n =
  let arr = Array.of_list (List.rev points) in
  let len = Array.length arr in
  if len <= n then Array.to_list arr
  else
    List.init n (fun j ->
        let idx = (j + 1) * len / n - 1 in
        arr.(idx))

let fig4 (cfg : Config.t) =
  Runner.section "Figure 4: revenue vs strategy size (Gaussian capacities, beta ~ U[0,1])";
  List.iter
    (fun prepared ->
      let users = prepared.Pipeline.num_users in
      let inst =
        Datasets.instance cfg prepared ~capacity:(Config.cap_gaussian cfg ~users)
          ~beta:Pipeline.Beta_uniform ()
      in
      let capture f =
        let points = ref [] in
        let trace (pt : Greedy.trace_point) = points := (pt.size, pt.revenue) :: !points in
        ignore (f ~trace);
        !points
      in
      let gg = capture (fun ~trace -> Greedy.run ~trace inst) in
      let slg = capture (fun ~trace -> Local_greedy.sl_greedy ~trace inst) in
      (* one representative non-chronological order stands in for RLG's best
         run (its curve has the same "segments" structure) *)
      let horizon = Instance.horizon inst in
      let rlg_order =
        List.init horizon (fun idx -> horizon - idx) (* reverse chronological *)
      in
      let rlg = capture (fun ~trace -> Local_greedy.greedy_in_order ~trace inst ~order:rlg_order) in
      Log.out "\n[%s]  (|S|, expected revenue) checkpoints\n" prepared.Pipeline.name;
      let t = Table.create ~columns:[ "series"; "points" ] in
      List.iter
        (fun (name, points) ->
          let cells =
            downsample points 12
            |> List.map (fun (size, total) -> Printf.sprintf "(%d, %.0f)" size total)
            |> String.concat " "
          in
          Table.add_row t [ name; cells ])
        [ ("GG", gg); ("RLG", rlg); ("SLG", slg) ];
      Table.print t)
    (Datasets.both cfg)

(* ----- Figure 5: repeat-recommendation histograms ----- *)

let fig5 (cfg : Config.t) =
  Runner.section "Figure 5: repeats per (user,item) pair under G-Greedy";
  List.iter
    (fun prepared ->
      let users = prepared.Pipeline.num_users in
      let t =
        Table.create
          ~columns:
            ("beta"
            :: List.init 7 (fun r -> Printf.sprintf "%d repeat%s" (r + 1) (if r = 0 then "" else "s"))
            )
      in
      List.iter
        (fun beta ->
          let inst =
            Datasets.instance cfg prepared ~capacity:(Config.cap_gaussian cfg ~users)
              ~beta:(Pipeline.Beta_fixed beta) ()
          in
          let s, _ = Greedy.run inst in
          let hist = Strategy.repeat_histogram s in
          let total = Array.fold_left ( + ) 0 hist in
          let cells =
            List.init 7 (fun r ->
                if r < Array.length hist && total > 0 then
                  Printf.sprintf "%.1f%%" (100.0 *. float_of_int hist.(r) /. float_of_int total)
                else "-")
          in
          Table.add_row t (Printf.sprintf "%.1f" beta :: cells))
        [ 0.1; 0.5; 0.9 ];
      Log.out "\n[%s]\n" prepared.Pipeline.name;
      Table.print t)
    (Datasets.both cfg)

(* ----- Table 2: running time ----- *)

let table2 (cfg : Config.t) =
  Runner.section "Table 2: planning time in seconds (beta ~ U[0,1], Gaussian capacities)";
  let t = Table.create ~columns:("dataset" :: Runner.header) in
  List.iter
    (fun prepared ->
      let users = prepared.Pipeline.num_users in
      let inst =
        Datasets.instance cfg prepared ~capacity:(Config.cap_gaussian cfg ~users)
          ~beta:Pipeline.Beta_uniform ()
      in
      let results =
        Runner.run_suite ~rlg_permutations:cfg.Config.rlg_permutations ~seed:cfg.Config.seed inst
      in
      Runner.report_failures results;
      Table.add_row t (prepared.Pipeline.name :: Runner.time_row results))
    (Datasets.both cfg);
  Table.print t

(* ----- Figure 6: scalability of G-Greedy ----- *)

let fig6 (cfg : Config.t) =
  Runner.section "Figure 6: G-Greedy runtime vs number of candidate triples";
  let t =
    Table.create ~columns:[ "#users"; "#candidate triples"; "GG seconds"; "us per triple" ]
  in
  List.iter
    (fun users ->
      let config = Scalability.with_users (Config.fig6_base cfg) users in
      let inst = Scalability.generate config ~seed:cfg.Config.seed in
      let triples = Instance.num_candidate_triples inst in
      let (_s, _stats), seconds = Util.time_it (fun () -> Greedy.run inst) in
      Table.add_row t
        [
          string_of_int users;
          string_of_int triples;
          Printf.sprintf "%.2f" seconds;
          Printf.sprintf "%.3f" (1e6 *. seconds /. float_of_int triples);
        ])
    (Config.fig6_user_counts cfg);
  Table.print t;
  Log.out "(near-constant us/triple = the near-linear growth of Figure 6)\n"

(* ----- Figure 7: gradual price availability ----- *)

let fig7 (cfg : Config.t) =
  Runner.section "Figure 7: revenue with prices arriving in two sub-horizons (beta = 0.5)";
  let rlg_algo = Rolling.rl_greedy ~permutations:cfg.Config.rlg_permutations ~seed:cfg.Config.seed () in
  List.iter
    (fun prepared ->
      let users = prepared.Pipeline.num_users in
      List.iter
        (fun (cap_label, spec) ->
          let inst =
            Datasets.instance cfg prepared ~capacity:spec ~beta:(Pipeline.Beta_fixed 0.5) ()
          in
          let horizon = Instance.horizon inst in
          let cutoffs = List.filter (fun c -> c < horizon) [ 2; 4; 5 ] in
          let t = Table.create ~columns:[ "algorithm"; "revenue" ] in
          let add label v = Table.add_row t [ label; Printf.sprintf "%.1f" v ] in
          let run_rolling algo cuts = Revenue.total (Rolling.run algo inst ~cutoffs:cuts) in
          add "GG" (run_rolling Rolling.g_greedy []);
          List.iter
            (fun c -> add (Printf.sprintf "GG_%d" c) (run_rolling Rolling.g_greedy [ c ]))
            cutoffs;
          add "SLG" (Revenue.total (fst (Local_greedy.sl_greedy inst)));
          add "RLG" (run_rolling rlg_algo []);
          List.iter
            (fun c -> add (Printf.sprintf "RLG_%d" c) (run_rolling rlg_algo [ c ]))
            cutoffs;
          Log.out "\n[%s (%s)]\n" prepared.Pipeline.name cap_label;
          Table.print t)
        [
          ("Gaussian", Config.cap_gaussian cfg ~users);
          ("power-law", Config.cap_power cfg ~users);
        ])
    (Datasets.both cfg)

(* ----- §7 extension: random prices ----- *)

let ext_taylor (cfg : Config.t) =
  Runner.section "Extension (s7): random prices - mean-price heuristic vs Taylor vs Monte-Carlo";
  let prepared = Datasets.amazon cfg in
  let users = prepared.Pipeline.num_users in
  let inst =
    Datasets.instance cfg prepared ~capacity:(Config.cap_gaussian cfg ~users)
      ~beta:(Pipeline.Beta_fixed 0.5) ()
  in
  (* price-to-probability link through the dataset's valuation distributions
     and predicted ratings, exactly as the pipeline computed q in the first
     place *)
  let rating_of = Hashtbl.create 1024 in
  List.iter (fun (u, i, r) -> Hashtbl.replace rating_of ((u * prepared.Pipeline.num_items) + i) r)
    prepared.Pipeline.ratings_pred;
  let q_of_price ~u ~i ~price =
    match Hashtbl.find_opt rating_of ((u * prepared.Pipeline.num_items) + i) with
    | None -> 0.0
    | Some rating ->
        Valuation.adoption_probability ~valuation:prepared.Pipeline.valuation.(i) ~rating
          ~r_max:5.0 ~price
  in
  let t =
    Table.create
      ~columns:[ "price noise"; "mean-price (order 1)"; "Taylor order 2"; "Monte-Carlo"; "MC stderr" ]
  in
  List.iter
    (fun noise_frac ->
      let model =
        {
          Random_price.mean = (fun ~i ~time -> Instance.price inst ~i ~time);
          sigma = (fun ~i ~time -> noise_frac *. Instance.price inst ~i ~time);
          corr = 0.2;
          q_of_price;
        }
      in
      (* plan against mean prices with G-Greedy, then score under the model.
         The revenue is additive over users, so for tractability the
         three-way comparison is evaluated on a fixed sub-panel of users
         (the Taylor Hessian is cubic in the chain length). *)
      let plan_inst = Random_price.mean_instance inst model in
      let s_full, _ = Greedy.run plan_inst in
      let panel = min 250 (Instance.num_users inst) in
      let s =
        Strategy.of_list inst
          (List.filter
             (fun (z : Revmax.Triple.t) -> z.u < panel)
             (Strategy.to_list s_full))
      in
      let order1 = Random_price.taylor_revenue ~order:`One inst model s in
      let order2 = Random_price.taylor_revenue ~order:`Two inst model s in
      let samples = match cfg.Config.scale with Config.Quick -> 300 | _ -> 1000 in
      let mc = Random_price.mc_revenue inst model s ~samples (Rng.create cfg.Config.seed) in
      Table.add_row t
        [
          Printf.sprintf "%.0f%%" (100.0 *. noise_frac);
          Printf.sprintf "%.1f" order1;
          Printf.sprintf "%.1f" order2;
          Printf.sprintf "%.1f" mc.Revmax_stats.Mc.mean;
          Printf.sprintf "%.1f" mc.Revmax_stats.Mc.std_error;
        ])
    [ 0.05; 0.1; 0.2 ];
  Table.print t

(* ----- Greedy benchmarks ----- *)

(* Shared synthetic generator for the greedy benchmarks: few classes, long
   horizon, mild adoption probabilities and saturation, so greedy keeps
   finding positive marginals and grows (user, class) chains tens of
   triples deep — the long-chain regime the incremental evaluator is built
   for (the Scalability generator's near-1 probabilities make competition
   truncate its chains after a handful of picks). *)
let greedy_bench_synth (cfg : Config.t) ~users ~items ~classes ~horizon ~k =
  let rng = Rng.create cfg.Config.seed in
  let adoption = ref [] in
  for u = 0 to users - 1 do
    for i = 0 to items - 1 do
      if Rng.bernoulli rng 0.8 then
        adoption :=
          (u, i, Array.init horizon (fun _ -> Rng.uniform_in rng 0.02 0.10)) :: !adoption
    done
  done;
  Instance.create ~num_users:users ~num_items:items ~horizon ~display_limit:k
    ~class_of:(Array.init items (fun i -> i mod classes))
    ~capacity:(Array.make items users)
    ~saturation:(Array.init items (fun _ -> Rng.uniform_in rng 0.7 1.0))
    ~price:(Array.init items (fun _ -> Array.init horizon (fun _ -> Rng.uniform_in rng 1.0 10.0)))
    ~adoption:!adoption ()

(* row sizes gated by REVMAX_SCALE *)
let greedy_bench_rows (cfg : Config.t) =
  let synth = greedy_bench_synth cfg in
  let small = ("small", fun () -> synth ~users:100 ~items:24 ~classes:2 ~horizon:10 ~k:3) in
  let medium = ("medium", fun () -> synth ~users:150 ~items:40 ~classes:2 ~horizon:15 ~k:5) in
  let large = ("large", fun () -> synth ~users:400 ~items:40 ~classes:2 ~horizon:15 ~k:5) in
  match cfg.Config.scale with
  | Config.Quick -> [ small ]
  | Config.Default -> [ small; medium ]
  | Config.Full -> [ small; medium; large ]

(* ----- Greedy hot-path benchmark: throughput, identity + allocation gates ----- *)

let bench_greedy_soa (cfg : Config.t) =
  Runner.section "Benchmark: G-Greedy hot path, shard identity and allocation gates";
  let rows = greedy_bench_rows cfg in
  let t =
    Table.create
      ~columns:
        [
          "dataset"; "#triples"; "avg chain"; "selected"; "seconds"; "evals"; "ns/eval"; "words/sel";
        ]
  in
  List.iter
    (fun (label, make) ->
      let inst = make () in
      let triples = Instance.num_candidate_triples inst in
      (* allocation gate: the steady-state selection loop must allocate
         O(1) words per accepted triple, independent of the evaluation
         count. Words are counted on every heap ([Util.allocated_words]:
         minor + major − promoted, on the calling domain), so a chain
         block above 256 words, which goes straight to the major heap,
         counts too. The build phase (candidate registration and initial
         keys) is isolated with a budget that stops after the first
         selection; the loop's delta beyond it, divided by the remaining
         selections, is all accept-path output construction (chain blocks
         and their amortized doubling) — evaluations themselves allocate
         nothing (DESIGN.md §5b). The gate is the 23.7 words the quick
         cell measures plus a third; the default scale's medium cell,
         whose chains average 27.6 members, reads 20.4. The full run is
         untraced and goes first, on a fresh heap, so its wall time is the
         hot path's alone. *)
      let ((s, st), sec), w_full =
        Util.allocated_words (fun () -> Util.time_it (fun () -> Greedy.run inst))
      in
      let budget = Revmax_prelude.Budget.create ~max_evaluations:1 () in
      let (_, st1), w_build = Util.allocated_words (fun () -> Greedy.run ~budget inst) in
      let per_sel =
        (w_full -. w_build) /. float_of_int (max 1 (st.Greedy.selected - st1.Greedy.selected))
      in
      if Sys.backend_type = Sys.Native && per_sel > 32.0 then
        failwith
          (Printf.sprintf
             "bench-greedy-soa %s: %.1f words per selection exceeds the O(1) gate (32)"
             label per_sel);
      (* sharded identity grid: every (shards, jobs) combination must pick
         the same triple set for a given shard count, and the shards=1 runs
         must reproduce the unsharded selection exactly *)
      let sorted l = List.sort Revmax.Triple.compare l in
      let unsharded = sorted (Strategy.to_list s) in
      List.iter
        (fun shards ->
          let grid =
            List.map
              (fun jobs ->
                let s, _ = Revmax.Shard_greedy.solve ~shards ~jobs inst in
                sorted (Strategy.to_list s))
              [ 1; 4 ]
          in
          List.iteri
            (fun idx sel ->
              if not (List.equal Revmax.Triple.equal sel (List.hd grid)) then
                failwith
                  (Printf.sprintf "bench-greedy-soa %s: shards=%d grid entry %d diverges" label
                     shards idx);
              if shards = 1 && not (List.equal Revmax.Triple.equal sel unsharded) then
                failwith
                  (Printf.sprintf "bench-greedy-soa %s: shards=1 differs from plain greedy" label))
            grid)
        [ 1; 4 ];
      let chains = ref 0 and chained = ref 0 in
      Strategy.iter_chains s (fun c ->
          incr chains;
          chained := !chained + Revmax.Chain.length c);
      Table.add_row t
        [
          label;
          string_of_int triples;
          Printf.sprintf "%.1f" (float_of_int !chained /. float_of_int (max 1 !chains));
          string_of_int st.Greedy.selected;
          Printf.sprintf "%.3f" sec;
          string_of_int st.Greedy.marginal_evaluations;
          Printf.sprintf "%.0f" (1e9 *. sec /. float_of_int (max 1 st.Greedy.marginal_evaluations));
          Printf.sprintf "%.1f" per_sel;
        ])
    rows;
  Table.print t;
  Log.out
    "(selections are identical across shard and job counts, and shards=1 reproduces the plain\n\
    \ greedy — the gates above fail the run otherwise. Evaluations allocate nothing; words/sel\n\
    \ is the accept path's output construction on every heap, gated at 32.)\n"

(* ----- Shard-scaling benchmark: Shard_greedy vs plain greedy ----- *)

let bench_shards (cfg : Config.t) =
  Runner.section "Benchmark: user-sharded greedy, revenue ratio and wall time vs shards";
  (* the same long-chain synthetic regime as bench-greedy-soa, but with
     capacities tight enough (about a third of the users) that the
     water-filling budgets genuinely overlap and the reconciliation round
     has real contention to resolve *)
  let synth ~users ~items ~classes ~horizon ~k =
    let rng = Rng.create cfg.Config.seed in
    let adoption = ref [] in
    for u = 0 to users - 1 do
      for i = 0 to items - 1 do
        if Rng.bernoulli rng 0.8 then
          adoption :=
            (u, i, Array.init horizon (fun _ -> Rng.uniform_in rng 0.02 0.10)) :: !adoption
      done
    done;
    Instance.create ~num_users:users ~num_items:items ~horizon ~display_limit:k
      ~class_of:(Array.init items (fun i -> i mod classes))
      ~capacity:(Array.make items (max 1 (users / 3)))
      ~saturation:(Array.init items (fun _ -> Rng.uniform_in rng 0.7 1.0))
      ~price:
        (Array.init items (fun _ -> Array.init horizon (fun _ -> Rng.uniform_in rng 1.0 10.0)))
      ~adoption:!adoption ()
  in
  let inst =
    match cfg.Config.scale with
    | Config.Quick -> synth ~users:60 ~items:16 ~classes:2 ~horizon:8 ~k:3
    | Config.Default -> synth ~users:150 ~items:32 ~classes:2 ~horizon:12 ~k:4
    | Config.Full -> synth ~users:400 ~items:40 ~classes:2 ~horizon:15 ~k:5
  in
  let (s_ref, _), sec_ref = Util.time_it (fun () -> Greedy.run inst) in
  let v_ref = Revenue.total s_ref in
  let t =
    Table.create
      ~columns:
        [
          "shards"; "revenue"; "ratio"; "wall s"; "speedup"; "rounds"; "released"; "replanned";
        ]
  in
  List.iter
    (fun shards ->
      let (s, st), sec = Util.time_it (fun () -> Revmax.Shard_greedy.solve ~shards inst) in
      (match Strategy.validate s with
      | Ok () -> ()
      | Error e ->
          failwith
            (Printf.sprintf "bench-shards: invalid strategy at shards=%d: %s" shards
               (Revmax_prelude.Err.message e)));
      let v = Revenue.total s in
      if shards = 1 && not (Revmax_prelude.Util.float_equal ~eps:1e-12 v v_ref) then
        failwith
          (Printf.sprintf "bench-shards: shards=1 drifted from plain greedy (%.12g vs %.12g)" v
             v_ref);
      Table.add_row t
        [
          string_of_int shards;
          Printf.sprintf "%.1f" v;
          Printf.sprintf "%.4f" (v /. Float.max 1e-9 v_ref);
          Printf.sprintf "%.3f" sec;
          Printf.sprintf "%.1fx" (sec_ref /. Float.max 1e-9 sec);
          string_of_int st.Revmax.Shard_greedy.reconciliation_rounds;
          string_of_int st.Revmax.Shard_greedy.released_pairs;
          string_of_int st.Revmax.Shard_greedy.replanned;
        ])
    [ 1; 2; 4 ];
  Table.print t;
  Log.out
    "(ratio is sharded/unsharded expected revenue — honest accounting of what the\n\
    \ shard cut costs; shards=1 is bit-identical to plain greedy and must ratio 1)\n"

(* ----- Benchmark: ad slates and quantity budgets vs the unordered-k baseline ----- *)

let bench_slate (cfg : Config.t) =
  Runner.section "Benchmark: ad slates (position decay) and quantity budgets vs unordered-k";
  (* the bench-shards synthetic regime: dense candidate rows and moderate
     competition, so position decay and the global cap both genuinely bind *)
  let synth ~users ~items ~classes ~horizon ~k =
    let rng = Rng.create cfg.Config.seed in
    let adoption = ref [] in
    for u = 0 to users - 1 do
      for i = 0 to items - 1 do
        if Rng.bernoulli rng 0.8 then
          adoption :=
            (u, i, Array.init horizon (fun _ -> Rng.uniform_in rng 0.02 0.10)) :: !adoption
      done
    done;
    Instance.create ~num_users:users ~num_items:items ~horizon ~display_limit:k
      ~class_of:(Array.init items (fun i -> i mod classes))
      ~capacity:(Array.make items (max 1 (users / 3)))
      ~saturation:(Array.init items (fun _ -> Rng.uniform_in rng 0.7 1.0))
      ~price:
        (Array.init items (fun _ -> Array.init horizon (fun _ -> Rng.uniform_in rng 1.0 10.0)))
      ~adoption:!adoption ()
  in
  let inst, k =
    match cfg.Config.scale with
    | Config.Quick -> (synth ~users:60 ~items:16 ~classes:2 ~horizon:8 ~k:3, 3)
    | Config.Default -> (synth ~users:150 ~items:32 ~classes:2 ~horizon:12 ~k:4, 4)
    | Config.Full -> (synth ~users:400 ~items:40 ~classes:2 ~horizon:15 ~k:5, 5)
  in
  let (s_plain, _), sec_plain = Util.time_it (fun () -> Greedy.run inst) in
  let v_plain = Revenue.total s_plain in
  (* degenerate gate: all-1.0 multipliers rank every slot of a display
     identically, so the slate planner must reproduce the unordered-k
     selection triple for triple, and its revenue to the last bit *)
  let all_ones = Instance.with_slate inst (Array.make k 1.0) in
  let s_ones, _ = Greedy.run all_ones in
  if not (List.equal Revmax.Triple.equal (Strategy.to_list s_ones) (Strategy.to_list s_plain)) then
    failwith "bench-slate: all-1.0 slate drifted from the unordered-k baseline";
  if Revenue.total s_ones <> v_plain then
    failwith "bench-slate: all-1.0 slate revenue is not bit-identical to plain greedy";
  let t = Table.create ~columns:[ "decay"; "selected"; "revenue"; "ratio"; "sharded"; "wall s" ] in
  List.iter
    (fun decay ->
      let slate =
        Instance.with_slate inst (Pipeline.position_curve ~decay:(`Geometric decay) k)
      in
      let (s, _), sec = Util.time_it (fun () -> Greedy.run slate) in
      (match Strategy.validate s with
      | Ok () -> ()
      | Error e ->
          failwith
            (Printf.sprintf "bench-slate: invalid slate strategy at decay %.2f: %s" decay
               (Revmax_prelude.Err.message e)));
      let v = Revenue.total s in
      (* the sharded planner must agree with the flat one on validity, and
         bit-identically on the selection whenever it runs with one shard;
         REVMAX_SHARDS steers this leg in the CI matrix *)
      let shards = Revmax.Shard_greedy.default_shards () in
      let s_sh, _ = Revmax.Shard_greedy.solve ~shards slate in
      (match Strategy.validate s_sh with
      | Ok () -> ()
      | Error e ->
          failwith
            (Printf.sprintf "bench-slate: invalid sharded slate strategy at decay %.2f: %s" decay
               (Revmax_prelude.Err.message e)));
      if
        shards = 1
        && not (List.equal Revmax.Triple.equal (Strategy.to_list s_sh) (Strategy.to_list s))
      then failwith "bench-slate: shards=1 slate plan drifted from flat greedy";
      Table.add_row t
        [
          Printf.sprintf "%.2f" decay;
          string_of_int (Strategy.size s);
          Printf.sprintf "%.1f" v;
          Printf.sprintf "%.4f" (v /. Float.max 1e-9 v_plain);
          Printf.sprintf "%d ok" shards;
          Printf.sprintf "%.3f" sec;
        ])
    [ 1.0; 0.9; 0.7; 0.5 ];
  Table.print t;
  (* quantity budgets: the cap as a fraction of the unconstrained plan.
     A cap at exactly |S_plain| never fires mid-run, so the plan must be
     bit-identical to the unconstrained one — the quantity stop only
     changes behaviour when it binds. *)
  let full = Strategy.size s_plain in
  let tq = Table.create ~columns:[ "cap"; "selected"; "revenue"; "ratio" ] in
  List.iter
    (fun frac ->
      let cap = max 1 (int_of_float (Float.round (frac *. float_of_int full))) in
      let capped = Instance.with_max_total inst cap in
      let s, _ = Greedy.run capped in
      if Strategy.size s > cap then
        failwith (Printf.sprintf "bench-slate: quantity cap %d exceeded (%d)" cap (Strategy.size s));
      (match Strategy.validate s with
      | Ok () -> ()
      | Error e ->
          failwith
            (Printf.sprintf "bench-slate: invalid capped strategy at cap %d: %s" cap
               (Revmax_prelude.Err.message e)));
      if
        frac = 1.0
        && not (List.equal Revmax.Triple.equal (Strategy.to_list s) (Strategy.to_list s_plain))
      then failwith "bench-slate: non-binding quantity cap changed the plan";
      let v = Revenue.total s in
      Table.add_row tq
        [
          string_of_int cap;
          string_of_int (Strategy.size s);
          Printf.sprintf "%.1f" v;
          Printf.sprintf "%.4f" (v /. Float.max 1e-9 v_plain);
        ])
    [ 1.0; 0.5; 0.25 ];
  Table.print tq;
  Log.out
    "(plain greedy: %d selected, %.1f revenue, %.3fs. Ratios are against the unordered-k\n\
    \ baseline; decay=1.00 and cap=|S| are gated bit-identical to it, so any drift fails\n\
    \ the cell rather than shifting a ratio)\n"
    (Strategy.size s_plain) v_plain sec_plain

(* ----- Benchmark: out-of-core scale (pack + mmap + shards) ----- *)

(* peak resident set (VmHWM) in kB from /proc/self/status; 0 when the
   file is unavailable (non-Linux), which disables the RSS ceiling gate *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" -> (
                try Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
                with Scanf.Scan_failure _ | Failure _ | End_of_file -> 0)
            | _ -> scan ()
          in
          scan ())

let bench_scale (cfg : Config.t) =
  Runner.section "Benchmark: out-of-core scale (pack + mmap + shards)";
  let users, items, classes =
    match cfg.Config.scale with
    | Config.Quick -> (2_000, 400, 50)
    | Config.Default -> (50_000, 2_000, 200)
    | Config.Full -> (1_000_000, 10_000, 500)
  in
  (* the §6 synthetic family, thinned to 10 candidate items per user and
     T = 4 so the full cell is 10^6 users × 10^4 items = 10^7 candidate
     pairs (4×10^7 triples); capacities keep the paper's user ratio *)
  let scfg =
    Scalability.with_users
      {
        Scalability.default_config with
        num_items = items;
        num_classes = classes;
        items_per_user = 10;
        horizon = 4;
        display_limit = 3;
      }
      users
  in
  let seed = cfg.Config.seed in
  let heap_gate = cfg.Config.scale <> Config.Full in
  let rss_ceiling_kb =
    match cfg.Config.scale with
    | Config.Quick -> 2_000_000
    | Config.Default -> 8_000_000
    | Config.Full -> 64_000_000
  in
  let pack_dir =
    Option.value (Sys.getenv_opt "REVMAX_PACK_DIR") ~default:(Filename.get_temp_dir_name ())
  in
  let pack_path = Filename.temp_file ~temp_dir:pack_dir "revmax_scale" ".pack" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove pack_path with Sys_error _ -> ())
  @@ fun () ->
  let (), write_s = Util.time_it (fun () -> Scalability.generate_pack scfg ~seed ~path:pack_path) in
  let pack_bytes = (Unix.stat pack_path).Unix.st_size in
  let inst, open_s = Util.time_it (fun () -> Instance.of_mmap pack_path) in
  Log.out "pack: %d users x %d items, %d pairs, %.1f MB (wrote %.1fs, mapped %.2fs)\n" users items
    (Instance.pair_count inst)
    (float_of_int pack_bytes /. 1e6)
    write_s open_s;
  (* a compact order-independent fingerprint of a strategy: size, the
     exact revenue double, and an integer fold over the selection in
     [Strategy.to_list]'s [Triple.compare] order. Bit-identical plans (the
     invariance contract) fingerprint equally; Hashtbl.hash is
     deliberately avoided — it samples a prefix. *)
  let fingerprint s =
    let h =
      List.fold_left
        (fun h (z : Revmax.Triple.t) ->
          let mix h v = ((h * 1_000_003) lxor v) land max_int in
          mix (mix (mix h z.u) z.i) z.t)
        0 (Strategy.to_list s)
    in
    (Strategy.size s, Revenue.total s, h)
  in
  let t =
    Table.create ~columns:[ "run"; "selected"; "revenue"; "wall s"; "released"; "rounds" ]
  in
  let row label (s, wall) ~released ~rounds =
    let size, v, h = fingerprint s in
    Table.add_row t
      [
        label;
        string_of_int size;
        Printf.sprintf "%.1f" v;
        Printf.sprintf "%.2f" wall;
        string_of_int released;
        string_of_int rounds;
      ];
    (label, size, v, h, wall)
  in
  (* heap ≡ mmap: build the same instance on the OCaml heap and demand the
     identical greedy trace. At full scale the heap build is skipped — not
     holding the instance in the heap is the point of the cell. *)
  let heap_status =
    if not heap_gate then "skipped (full scale plans from the mapping only)"
    else begin
      let heap_inst = Scalability.generate scfg ~seed in
      let traced i =
        let order = ref [] in
        let s, _ = Greedy.run ~trace:(fun (pt : Greedy.trace_point) -> order := pt.z :: !order) i in
        (Revenue.total s, List.rev !order)
      in
      let vh, th = traced heap_inst and vm, tm = traced inst in
      if vh <> vm || th <> tm then
        failwith "bench-scale: mmap-backed greedy diverged from the heap instance";
      Printf.sprintf "identical (%d-step trace, revenue %.12g)" (List.length th) vh
    end
  in
  (* jobs × shards invariance grid on the mapped instance; the flat
     shards=1 plan is kept for the footprint record below *)
  let flat_plan = ref None in
  let grid =
    List.map
      (fun shards ->
        ( shards,
          List.map
            (fun jobs ->
              let (s, st), wall =
                Util.time_it (fun () -> Revmax.Shard_greedy.solve ~shards ~jobs inst)
              in
              if shards = 1 && jobs = 1 then flat_plan := Some s;
              row
                (Printf.sprintf "flat shards=%d jobs=%d" shards jobs)
                (s, wall) ~released:st.Revmax.Shard_greedy.released_pairs
                ~rounds:st.Revmax.Shard_greedy.reconciliation_rounds)
            [ 1; 4 ] ))
      [ 1; 4 ]
  in
  Table.print t;
  let fp (_, size, v, h, _) = (size, v, h) in
  List.iter
    (fun (shards, runs) ->
      match runs with
      | first :: rest ->
          List.iter
            (fun r ->
              if fp r <> fp first then
                failwith (Printf.sprintf "bench-scale: shards=%d plan depends on jobs" shards))
            rest
      | [] -> failwith "bench-scale: empty invariance group")
    grid;
  let rss_kb = peak_rss_kb () in
  let gc = Gc.stat () in
  Log.out "equivalence: heap/mmap %s; jobs-invariant at shards 1 and 4\n"
    heap_status;
  Log.out "memory: peak RSS %.1f MB (ceiling %.1f MB), OCaml top heap %.1f MB\n"
    (float_of_int rss_kb /. 1e3)
    (float_of_int rss_ceiling_kb /. 1e3)
    (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  if rss_kb > 0 && rss_kb > rss_ceiling_kb then
    failwith
      (Printf.sprintf "bench-scale: peak RSS %d kB exceeds the %d kB ceiling" rss_kb rss_ceiling_kb);
  (* the plan's own words per selection, beyond its instance. Measured
     only after VmHWM was read: [Obj.reachable_words] allocates a
     traversal table about as large as what it walks, which would lift
     the peak it is reported beside. *)
  let strategy_words_per_selection =
    match !flat_plan with
    | Some s when Strategy.size s > 0 ->
        float_of_int
          (Obj.reachable_words (Obj.repr s)
          - Obj.reachable_words (Obj.repr (Strategy.instance s)))
        /. float_of_int (Strategy.size s)
    | _ -> 0.0
  in
  Log.out "memory: the flat shards=1 plan holds %.1f words per selection beyond its instance\n"
    strategy_words_per_selection;
  (* the greedy's own per-run state per candidate pair: what a run that
     stops after its first selection allocates, less the strategy it
     plans into (greedy.mli's footprint formula) *)
  let greedy_setup_words_per_pair =
    let words f = snd (Util.allocated_words f) in
    let budget = Revmax_prelude.Budget.create ~max_evaluations:1 () in
    let run = words (fun () -> Greedy.run ~budget inst) in
    let strategy = words (fun () -> Strategy.create inst) in
    (run -. strategy) /. float_of_int (max 1 (Instance.pair_count inst))
  in
  Log.out "memory: greedy set-up allocates %.1f words per candidate pair\n"
    greedy_setup_words_per_pair;
  (* what [Instance.create] allocates on the OCaml heap per candidate pair,
     beyond its input: the mapped rows are listed as an adoption list and
     rebuilt, and only the [create] is measured. Skipped (0) at full
     scale, which never builds a heap instance. *)
  let instance_create_words_per_pair =
    if not heap_gate then 0.0
    else begin
      let adoption = ref [] in
      for u = Instance.num_users inst - 1 downto 0 do
        Array.iter (fun (i, qs) -> adoption := (u, i, qs) :: !adoption) (Instance.candidates inst u)
      done;
      let items = Instance.num_items inst and horizon = Instance.horizon inst in
      let facts f = Array.init items (f inst) and adoption = !adoption in
      let class_of = facts Instance.class_of and capacity = facts Instance.capacity in
      let saturation = facts Instance.saturation
      and price =
        facts (fun inst i -> Array.init horizon (fun k -> Instance.price inst ~i ~time:(k + 1)))
      in
      let create () =
        Instance.create ~num_users:(Instance.num_users inst) ~num_items:items ~horizon
          ~display_limit:(Instance.display_limit inst) ~class_of ~capacity ~saturation ~price
          ~adoption ()
      in
      snd (Util.allocated_words create) /. float_of_int (max 1 (Instance.pair_count inst))
    end
  in
  Log.out "memory: Instance.create allocates %.2f words per candidate pair\n"
    instance_create_words_per_pair;
  (* machine-readable cell, consumed by CI (artifact + gates). It goes to
     the temp directory, like the pack, unless REVMAX_BENCH_OUT names a
     path: a run from the repository root must not replace the committed
     full-scale record. *)
  let out =
    match Sys.getenv_opt "REVMAX_BENCH_OUT" with
    | Some path -> path
    | None -> Filename.concat (Filename.get_temp_dir_name ()) "BENCH_scale.json"
  in
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"experiment\": \"bench-scale\",\n";
  add "  \"description\": \"out-of-core planning: packed mmap instance, user shards\",\n";
  add "  \"scale\": \"%s\",\n"
    (match cfg.Config.scale with
    | Config.Quick -> "quick"
    | Config.Default -> "default"
    | Config.Full -> "full");
  add "  \"config\": { \"users\": %d, \"items\": %d, \"classes\": %d, \"items_per_user\": 10, \"horizon\": 4, \"display_limit\": 3, \"seed\": %d },\n"
    users items classes seed;
  add "  \"pack\": { \"bytes\": %d, \"pairs\": %d, \"write_seconds\": %.3f, \"open_seconds\": %.3f },\n"
    pack_bytes (Instance.pair_count inst) write_s open_s;
  add "  \"equivalence\": {\n";
  add "    \"heap_mmap\": \"%s\",\n" heap_status;
  add "    \"jobs_invariant\": true\n";
  add "  },\n";
  add "  \"runs\": [\n";
  let all_runs = List.concat_map snd grid in
  List.iteri
    (fun idx (label, size, v, h, wall) ->
      add "    { \"label\": \"%s\", \"selected\": %d, \"revenue\": %.12g, \"fingerprint\": %d, \"wall_seconds\": %.3f }%s\n"
        label size v h wall
        (if idx = List.length all_runs - 1 then "" else ","))
    all_runs;
  add "  ],\n";
  add
    "  \"memory\": { \"peak_rss_kb\": %d, \"rss_ceiling_kb\": %d, \"ocaml_top_heap_words\": %d, \"strategy_words_per_selection\": %.2f, \"greedy_setup_words_per_pair\": %.2f, \"instance_create_words_per_pair\": %.2f }\n"
    rss_kb rss_ceiling_kb gc.Gc.top_heap_words strategy_words_per_selection
    greedy_setup_words_per_pair instance_create_words_per_pair;
  add "}\n";
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Log.out "wrote %s\n" out

(* ----- Ablations ----- *)

let abl_exact (cfg : Config.t) =
  Runner.section "Ablation (s3.2/s4): greedy vs exact optimum and R-REVMAX local search";
  let rng = Rng.create cfg.Config.seed in
  (* micro instances where brute force is feasible *)
  let ratios = ref [] in
  let micro rng =
    let num_users = 1 + Rng.int rng 2 and num_items = 1 + Rng.int rng 2 in
    let horizon = 1 + Rng.int rng 2 in
    let adoption = ref [] in
    for u = 0 to num_users - 1 do
      for i = 0 to num_items - 1 do
        if Rng.bernoulli rng 0.8 then
          adoption := (u, i, Array.init horizon (fun _ -> Rng.unit_float rng)) :: !adoption
      done
    done;
    Instance.create ~num_users ~num_items ~horizon ~display_limit:1
      ~class_of:(Array.init num_items (fun i -> i mod 2))
      ~capacity:(Array.make num_items 1)
      ~saturation:(Array.init num_items (fun _ -> Rng.unit_float rng))
      ~price:(Array.init num_items (fun _ -> Array.init horizon (fun _ -> Rng.uniform_in rng 1.0 10.0)))
      ~adoption:!adoption ()
  in
  let trials = match cfg.Config.scale with Config.Quick -> 10 | _ -> 40 in
  for _ = 1 to trials do
    let inst = micro rng in
    if Instance.num_candidate_triples inst <= 10 && Instance.num_candidate_triples inst > 0 then begin
      let _, opt = Exact.brute_force inst in
      if opt > 1e-9 then begin
        let s, _ = Greedy.run inst in
        ratios := (Revenue.total s /. opt) :: !ratios
      end
    end
  done;
  let arr = Array.of_list !ratios in
  if Array.length arr > 0 then begin
    let summary = Revmax_prelude.Summary.of_array arr in
    Log.out "G-Greedy / OPT over %d micro instances: mean %.3f, min %.3f\n"
      summary.Revmax_prelude.Summary.count summary.Revmax_prelude.Summary.mean
      summary.Revmax_prelude.Summary.min
  end;
  (* T = 1: Max-DCS exact vs greedy on a singleton-class instance *)
  let t1_rng = Rng.create (cfg.Config.seed + 1) in
  let num_users = 30 and num_items = 12 in
  let adoption = ref [] in
  for u = 0 to num_users - 1 do
    for i = 0 to num_items - 1 do
      if Rng.bernoulli t1_rng 0.5 then adoption := (u, i, [| Rng.unit_float t1_rng |]) :: !adoption
    done
  done;
  let t1_inst =
    Instance.create ~num_users ~num_items ~horizon:1 ~display_limit:2
      ~class_of:(Array.init num_items (fun i -> i))
      ~capacity:(Array.make num_items 6)
      ~saturation:(Array.make num_items 1.0)
      ~price:(Array.init num_items (fun _ -> [| Rng.uniform_in t1_rng 1.0 20.0 |]))
      ~adoption:!adoption ()
  in
  let _, v_exact = Exact.solve_t1 t1_inst in
  let s_gg, _ = Greedy.run t1_inst in
  Log.out "T=1 (PTIME case): Max-DCS optimum %.2f, G-Greedy %.2f (ratio %.4f)\n" v_exact
    (Revenue.total s_gg)
    (Revenue.total s_gg /. v_exact);
  (* R-REVMAX local search on a micro instance: value and oracle cost *)
  let ls_inst = micro (Rng.create (cfg.Config.seed + 2)) in
  if Instance.num_candidate_triples ls_inst > 0 then begin
    let r = Local_search.solve ~eps:0.3 ls_inst in
    let gg, _ = Greedy.run ls_inst in
    Log.out
      "R-REVMAX local search: value %.3f with %d oracle calls; G-Greedy (strict) %.3f with %d triples\n"
      r.Local_search.value r.Local_search.oracle_calls (Revenue.total gg)
      (Instance.num_candidate_triples ls_inst)
  end

let abl_rs (cfg : Config.t) =
  Runner.section
    "Ablation (s1/s2): recommender-agnosticism - MF vs kNN vs content-based pipelines";
  (* rebuild the Amazon-like candidates from the same ratings through the
     memory-based kNN substrate, then run the suite on both instances *)
  let prepared = Datasets.amazon cfg in
  let users = prepared.Pipeline.num_users in
  let top_n =
    (* candidates per user used by the prepared dataset *)
    List.length prepared.Pipeline.adoption / max 1 users
  in
  let rebuild name top_n_of =
    let adoption, ratings_pred =
      Pipeline.build_candidates_with ~num_users:users ~top_n_of
        ~valuation:prepared.Pipeline.valuation ~price:prepared.Pipeline.price ~r_max:5.0
    in
    { prepared with Pipeline.name; adoption; ratings_pred }
  in
  let knn = Revmax_mf.Knn.train prepared.Pipeline.source_ratings in
  let knn_prepared =
    rebuild "Amazon/kNN" (fun u -> Revmax_mf.Knn.top_n knn ~user:u ~n:top_n ())
  in
  let content =
    Revmax_mf.Content_based.train
      ~item_features:(Pipeline.item_features prepared)
      prepared.Pipeline.source_ratings
  in
  let content_prepared =
    rebuild "Amazon/content" (fun u -> Revmax_mf.Content_based.top_n content ~user:u ~n:top_n ())
  in
  let t = Table.create ~columns:("substrate" :: Runner.header) in
  List.iter
    (fun p ->
      let inst =
        Datasets.instance cfg p ~capacity:(Config.cap_gaussian cfg ~users)
          ~beta:(Pipeline.Beta_fixed 0.5) ()
      in
      let results =
        Runner.run_suite ~rlg_permutations:cfg.Config.rlg_permutations ~seed:cfg.Config.seed inst
      in
      Runner.report_failures results;
      Table.add_row t (p.Pipeline.name :: Runner.revenue_row results))
    [ prepared; knn_prepared; content_prepared ];
  Table.print t;
  Log.out
    "(the algorithm hierarchy is the framework's claim; which substrate earns more depends on\n\
    \ its rating accuracy - REVMAX consumes any of the three families of s2: model-based MF,\n\
    \ memory-based kNN, content-based)\n"

(* ----- Registry ----- *)

let all =
  [
    ("table1", "Table 1: dataset statistics", table1);
    ("fig1", "Figure 1: revenue under capacity distributions", fig1);
    ("fig2", "Figure 2: revenue vs saturation, class size > 1", fig2);
    ("fig3", "Figure 3: revenue vs saturation, class size = 1", fig3);
    ("fig4", "Figure 4: revenue vs strategy size", fig4);
    ("fig5", "Figure 5: repeat-recommendation histograms", fig5);
    ("table2", "Table 2: planning time", table2);
    ("fig6", "Figure 6: G-Greedy scalability", fig6);
    ("fig7", "Figure 7: gradual price availability", fig7);
    ("ext-taylor", "s7 extension: random prices (Taylor)", ext_taylor);
    ( "bench-greedy-soa",
      "Benchmark: G-Greedy hot path; shard identity + allocation gates",
      bench_greedy_soa );
    ("bench-shards", "Benchmark: user-sharded greedy vs unsharded (ratio, wall time)", bench_shards);
    ( "bench-slate",
      "Benchmark: ad slates (position decay) and quantity budgets vs unordered-k; identity gates",
      bench_slate );
    ( "bench-scale",
      "Benchmark: out-of-core scale — packed mmap instance, user shards, RSS gate",
      bench_scale );
    ("abl-exact", "Ablation: greedy vs exact optima", abl_exact);
    ("abl-rs", "Ablation: MF vs kNN vs content-based substrate", abl_rs);
  ]

let run_by_id id cfg =
  match List.find_opt (fun (eid, _, _) -> eid = id) all with
  | Some (_, _, f) ->
      f cfg;
      true
  | None -> false
