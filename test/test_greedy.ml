module Rng = Revmax_prelude.Rng
module Instance = Revmax.Instance
module Triple = Revmax.Triple
module Strategy = Revmax.Strategy
module Revenue = Revmax.Revenue
module Greedy = Revmax.Greedy
module Local_greedy = Revmax.Local_greedy
module Baselines = Revmax.Baselines
module Exact = Revmax.Exact
module Rolling = Revmax.Rolling
module Algorithms = Revmax.Algorithms
open Helpers

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* ----- G-Greedy ----- *)

let test_gg_example4_avoids_negative_marginal () =
  (* on Example 4, adding (u,i,1) after (u,i,2) has negative marginal;
     G-Greedy must return the singleton of revenue 0.57 *)
  let inst = example4_instance () in
  let s, stats = Greedy.run inst in
  check_float ~eps:1e-12 "optimal revenue" 0.57 (Revenue.total s);
  Alcotest.(check (list string)) "picked (0,0,2)" [ "(0, 0, 2)" ]
    (List.map Triple.to_string (Strategy.to_list s));
  Alcotest.(check int) "one selection" 1 stats.Greedy.selected

let test_gg_respects_constraints_small () =
  let inst = example1_instance 0.9 in
  let s, _ = Greedy.run inst in
  Alcotest.(check bool) "valid" true (Strategy.is_valid s)

let prop_gg_always_valid =
  QCheck2.Test.make ~name:"G-Greedy output is always valid" ~count:100 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let s, _ = Greedy.run inst in
      Strategy.is_valid s)

(* ----- the reference G-Greedy bank ----- *)

module Budget = Revmax_prelude.Budget

(* Greedy.run with its selection order, read off the trace *)
let ordered_run ?with_saturation ?allowed ?base ?budget inst =
  let order = ref [] in
  let s, stats =
    Greedy.run ?with_saturation ?allowed ?base ?budget
      ~trace:(fun (pt : Greedy.trace_point) -> order := pt.z :: !order)
      inst
  in
  (s, stats, List.rev !order)

let slotted s zs = List.map (fun z -> (z, Strategy.slot_of s z)) zs

(* One bank run: the fast path and the reference must select the same
   triples in the same slots in the same order, and do the same work —
   the same evaluation and pop counts, slates included: both retire a
   selected triple's other-slot entries at once. [max_evaluations] gives
   each side a fresh budget of that size. *)
let check_reference ~what ?with_saturation ?allowed ?base ?max_evaluations inst =
  let budget () = Option.map (fun n -> Budget.create ~max_evaluations:n ()) max_evaluations in
  let s, st, order = ordered_run ?with_saturation ?allowed ?base ?budget:(budget ()) inst in
  let r = Reference_greedy.run ?with_saturation ?allowed ?base ?budget:(budget ()) inst in
  if slotted s order <> slotted r.strategy r.picks then
    Alcotest.failf "%s: selection sequences differ (%d vs reference %d selections)" what
      (List.length order) (List.length r.picks);
  if st.Greedy.truncated <> r.truncated then Alcotest.failf "%s: truncation differs" what;
  if st.Greedy.marginal_evaluations <> r.evaluations || st.Greedy.pops <> r.pops then
    Alcotest.failf "%s: %d evaluations and %d pops, reference %d and %d" what
      st.Greedy.marginal_evaluations st.Greedy.pops r.evaluations r.pops

(* Fixed seeds 0–79, not fresh qcheck seeds: the reference's naive oracle
   and the fast path's incremental one differ in their last bits, so an
   exact tie could break differently on some instance; this bank is known
   to have none. Every (seed, saturation) pair runs the whole greedy, then
   under an evaluation budget, over a random valid base with an [allowed]
   filter, and under both; the budget is a third of the whole run's
   evaluations and selections, so it expires mid-run. *)
let reference_bank families () =
  List.iter
    (fun (family, make) ->
      for seed = 0 to 79 do
        let inst = make (Rng.create seed) in
        List.iter
          (fun with_saturation ->
            let what run =
              Printf.sprintf "%s seed %d saturation %b, %s" family seed with_saturation run
            in
            check_reference ~what:(what "whole run") ~with_saturation inst;
            let _, st = Greedy.run ~with_saturation inst in
            let work = st.Greedy.marginal_evaluations + st.Greedy.selected in
            let max_evaluations = 1 + (work / 3) in
            let base = random_valid_strategy inst (Rng.create (1000 + seed)) in
            let allowed (z : Triple.t) = (z.u + z.i + z.t) mod 3 <> 0 in
            check_reference ~what:(what "budget") ~with_saturation ~max_evaluations inst;
            check_reference ~what:(what "allowed + base") ~with_saturation ~allowed ~base inst;
            check_reference ~what:(what "allowed + base + budget") ~with_saturation ~allowed ~base
              ~max_evaluations inst)
          [ true; false ]
      done)
    families

(* the incremental fast path against the naive-oracle reference *)
let test_gg_evaluators_identical =
  reference_bank [ ("plain", fun rng -> random_instance rng); ("tied", random_tied_instance) ]

(* the constraint variants: slates and global quantity budgets *)
let test_gg_variants_identical_strategies =
  reference_bank
    [
      ("slate", fun rng -> random_slate_instance rng);
      ("budgeted", fun rng -> random_budgeted_instance rng);
    ]

(* Lazy against the reference's eager rule. Not a theorem — a stale key can
   under-estimate (DESIGN.md §5a) — so over a fixed seed bank the revenues
   must agree within 2%, and lazy forward must never do more work. *)
let test_gg_lazy_eager_agree () =
  for seed = 0 to 79 do
    let rng = Rng.create seed in
    let inst = random_instance rng in
    let s_lazy, st_lazy = Greedy.run inst in
    let eager = Reference_greedy.run ~eager:true inst in
    let vl = Revenue.total s_lazy and ve = Revenue.total eager.strategy in
    if Float.abs (vl -. ve) > 0.02 *. Float.max 1.0 ve then
      Alcotest.failf "seed %d: lazy %.6f vs eager %.6f" seed vl ve;
    if st_lazy.Greedy.marginal_evaluations > eager.evaluations then
      Alcotest.failf "seed %d: lazy did more work than eager" seed
  done

let prop_gg_never_below_optimum_check =
  QCheck2.Test.make ~name:"greedy revenue <= brute-force optimum" ~count:40 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance ~max_users:2 ~max_items:2 ~max_horizon:2 rng in
      if Instance.num_candidate_triples inst > 8 then true
      else begin
        let s, _ = Greedy.run inst in
        let _, opt = Exact.brute_force inst in
        Revenue.total s <= opt +. 1e-9
      end)

let prop_gg_trace_consistent =
  QCheck2.Test.make ~name:"trace running total equals Rev of output" ~count:60 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let last = ref 0.0 in
      let sizes = ref [] in
      let s, _ =
        Greedy.run
          ~trace:(fun (pt : Greedy.trace_point) ->
            last := pt.revenue;
            sizes := pt.size :: !sizes)
          inst
      in
      (* sizes 1,2,3,… in order; final running total equals Rev(S) *)
      let ascending = List.rev !sizes in
      let expected_sizes = List.init (List.length ascending) (fun i -> i + 1) in
      ascending = expected_sizes
      && Strategy.size s = List.length ascending
      && (Strategy.size s = 0 || Helpers.float_eq ~eps:1e-9 (Revenue.total s) !last))

(* With a base, the trace's running sum starts at 0.0: it is the revenue
   the run adds, [Revenue.total s -. Revenue.total base], for G-Greedy and
   SL-Greedy alike. *)
let prop_trace_revenue_with_base =
  QCheck2.Test.make ~name:"trace revenue with a base is the added revenue" ~count:60 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let base = random_valid_strategy inst rng in
      let added run =
        let sum = ref 0.0 in
        let s, _ = run ~trace:(fun (pt : Greedy.trace_point) -> sum := pt.revenue) in
        Helpers.float_eq ~eps:1e-9 (Revenue.total s) (Revenue.total base +. !sum)
      in
      added (fun ~trace -> Greedy.run ~base ~trace inst)
      && added (fun ~trace -> Local_greedy.sl_greedy ~base ~trace inst))

(* ----- anytime budgets ----- *)

(* an already-expired evaluation budget still yields a non-empty valid
   prefix of the unbudgeted run, flagged truncated *)
let prop_gg_budget_prefix =
  QCheck2.Test.make ~name:"budgeted run is a truncated valid prefix" ~count:60 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let full, full_stats = Greedy.run inst in
      if full_stats.Greedy.selected < 2 then true
      else begin
        let budget = Budget.create ~max_evaluations:1 () in
        let s, stats = Greedy.run ~budget inst in
        stats.Greedy.truncated
        && stats.Greedy.selected >= 1
        && stats.Greedy.selected < full_stats.Greedy.selected
        && Strategy.is_valid s
        && Strategy.size s > 0
        && List.for_all (Strategy.mem full) (Strategy.to_list s)
      end)

(* satellite: the budgeted run's trace agrees point-for-point with a prefix
   of the unbudgeted run's trace (sizes, revenues, evaluation counts) *)
let prop_gg_budget_trace_prefix =
  QCheck2.Test.make ~name:"budgeted and unbudgeted traces share a prefix" ~count:60 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let collect ?budget () =
        let points = ref [] in
        let _, stats =
          Greedy.run ?budget ~trace:(fun pt -> points := pt :: !points) inst
        in
        (List.rev !points, stats)
      in
      let full, _ = collect () in
      let pref, _ = collect ~budget:(Budget.create ~max_evaluations:3 ()) () in
      List.length pref <= List.length full
      && List.for_all2
           (fun (a : Greedy.trace_point) (b : Greedy.trace_point) ->
             a.size = b.size && a.revenue = b.revenue && a.evaluations = b.evaluations)
           pref
           (Revmax_prelude.Util.take (List.length pref) full))

(* trace evaluation counts are cumulative and non-decreasing *)
let test_trace_reports_evaluations () =
  let rng = Rng.create 11 in
  let inst = random_instance rng in
  let last = ref 0 in
  let _, stats =
    Greedy.run
      ~trace:(fun pt ->
        Alcotest.(check bool) "evaluations non-decreasing" true (pt.Greedy.evaluations >= !last);
        last := pt.Greedy.evaluations)
      inst
  in
  Alcotest.(check bool) "final trace count <= stats" true
    (!last <= stats.Greedy.marginal_evaluations)

let test_zero_deadline_truncates () =
  let rng = Rng.create 3 in
  let inst = random_instance rng in
  let _, full_stats = Greedy.run inst in
  if full_stats.Greedy.selected >= 2 then begin
    let budget = Budget.create ~wall_seconds:0.0 () in
    let s, stats = Greedy.run ~budget inst in
    Alcotest.(check bool) "truncated" true stats.Greedy.truncated;
    Alcotest.(check int) "exactly one selection" 1 stats.Greedy.selected;
    Alcotest.(check bool) "valid" true (Strategy.is_valid s)
  end

let test_unbudgeted_never_truncates () =
  for seed = 0 to 19 do
    let rng = Rng.create seed in
    let inst = random_instance rng in
    let _, st = Greedy.run inst in
    Alcotest.(check bool) "no budget, no truncation" false st.Greedy.truncated
  done

let test_local_greedy_budget () =
  let rng = Rng.create 17 in
  let inst = random_instance ~max_horizon:4 rng in
  let _, full = Local_greedy.sl_greedy inst in
  if full.Greedy.selected >= 2 then begin
    let budget = Budget.create ~max_evaluations:1 () in
    let s, st = Local_greedy.sl_greedy ~budget inst in
    Alcotest.(check bool) "truncated" true st.Greedy.truncated;
    Alcotest.(check bool) "progress" true (st.Greedy.selected >= 1);
    Alcotest.(check bool) "valid" true (Strategy.is_valid s)
  end;
  (* RL-Greedy: the first permutation always completes; with horizon >= 2
     there is at least a second permutation to skip, so the run truncates *)
  let exercised = ref false in
  for seed = 0 to 19 do
    let rng = Rng.create seed in
    let inst = random_instance ~max_horizon:4 rng in
    let _, full = Local_greedy.sl_greedy inst in
    if Instance.horizon inst >= 2 && full.Greedy.selected >= 1 then begin
      exercised := true;
      let budget = Budget.create ~max_evaluations:1 () in
      let s, st = Local_greedy.rl_greedy ~permutations:5 ~budget inst (Rng.create 0) in
      Alcotest.(check bool) "rlg truncated" true st.Greedy.truncated;
      Alcotest.(check bool) "rlg valid" true (Strategy.is_valid s);
      let chrono, _ = Local_greedy.sl_greedy inst in
      Alcotest.(check bool) "first permutation completed in full" true
        (Revenue.total s >= Revenue.total chrono -. 1e-9)
    end
  done;
  Alcotest.(check bool) "rlg budget branch exercised" true !exercised

let test_exact_budget_anytime () =
  let inst = example4_instance () in
  let r = Exact.brute_force_anytime inst in
  Alcotest.(check bool) "full search not truncated" false r.Exact.truncated;
  let budget = Budget.create ~max_evaluations:0 () in
  let rb = Exact.brute_force_anytime ~budget inst in
  Alcotest.(check bool) "budgeted search truncated" true rb.Exact.truncated;
  Alcotest.(check bool) "incumbent valid" true (Strategy.is_valid rb.Exact.strategy);
  Alcotest.(check bool) "fewer nodes" true (rb.Exact.nodes <= r.Exact.nodes)

(* GG-No (planning without saturation) rarely beats GG under the true model *)
let test_globalno_never_beats_gg () =
  for seed = 0 to 59 do
    let rng = Rng.create seed in
    let inst = random_instance rng in
    let gg, _ = Greedy.run inst in
    let ggno, _ = Greedy.run ~with_saturation:false inst in
    let vg = Revenue.total gg and vn = Revenue.total ggno in
    if vg < vn -. (0.05 *. Float.max 1.0 vg) then
      Alcotest.failf "seed %d: GG %.6f well below GG-No %.6f" seed vg vn
  done

let test_gg_base_and_allowed () =
  for seed = 0 to 29 do
    let rng = Rng.create seed in
    let inst = random_instance ~max_horizon:3 rng in
    let horizon = Instance.horizon inst in
    if horizon >= 2 then begin
      (* commit the first time step, then extend over the rest *)
      let base, _ = Greedy.run ~allowed:(fun (z : Triple.t) -> z.t = 1) inst in
      List.iter
        (fun (z : Triple.t) -> if z.t <> 1 then Alcotest.fail "allowed filter violated")
        (Strategy.to_list base);
      let extended, _ = Greedy.run ~allowed:(fun (z : Triple.t) -> z.t > 1) ~base inst in
      (* every base triple survives in the extension *)
      List.iter
        (fun z ->
          if not (Strategy.mem extended z) then Alcotest.fail "base triple dropped")
        (Strategy.to_list base);
      Alcotest.(check bool) "extension valid" true (Strategy.is_valid extended);
      (* the base strategy is not mutated by the extension run *)
      List.iter
        (fun (z : Triple.t) -> if z.t <> 1 then Alcotest.fail "base mutated")
        (Strategy.to_list base)
    end
  done

let test_marginal_on_empty_strategy_is_price_times_q () =
  let inst = example4_instance () in
  let s = Strategy.create inst in
  check_float ~eps:1e-12 "p*q at t=1" (1.0 *. 0.5) (Revenue.marginal s (triple 0 0 1));
  check_float ~eps:1e-12 "p*q at t=2" (0.95 *. 0.6) (Revenue.marginal s (triple 0 0 2))

(* ----- SL-Greedy / RL-Greedy ----- *)

let prop_slg_valid =
  QCheck2.Test.make ~name:"SL-Greedy output is always valid" ~count:100 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let s, _ = Local_greedy.sl_greedy inst in
      Strategy.is_valid s)

let prop_rlg_at_least_slg =
  QCheck2.Test.make ~name:"RL-Greedy >= SL-Greedy (chronological included)" ~count:60 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let slg, _ = Local_greedy.sl_greedy inst in
      let rlg, _ = Local_greedy.rl_greedy ~permutations:6 inst rng in
      Revenue.total rlg >= Revenue.total slg)

let test_order_validation () =
  let inst = example4_instance () in
  Alcotest.check_raises "duplicate time"
    (Invalid_argument "Local_greedy: duplicate time step in order") (fun () ->
      ignore (Local_greedy.greedy_in_order inst ~order:[ 1; 1 ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Local_greedy: time step out of range") (fun () ->
      ignore (Local_greedy.greedy_in_order inst ~order:[ 3 ]))

let test_reverse_order_beats_chrono_on_example4 () =
  (* the paper's Example 4: order <2,1> finds 0.57, chronological 0.5285 *)
  let inst = example4_instance () in
  let chrono, _ = Local_greedy.greedy_in_order inst ~order:[ 1; 2 ] in
  let reverse, _ = Local_greedy.greedy_in_order inst ~order:[ 2; 1 ] in
  check_float ~eps:1e-12 "chronological" 0.5285 (Revenue.total chrono);
  check_float ~eps:1e-12 "reverse" 0.57 (Revenue.total reverse)

let test_rlg_finds_better_order_on_example4 () =
  let inst = example4_instance () in
  let s, _ = Local_greedy.rl_greedy ~permutations:2 inst (Rng.create 0) in
  (* T=2 has only 2 permutations and RL samples distinct ones, so both are
     tried and the better (0.57) wins *)
  check_float ~eps:1e-12 "best of both orders" 0.57 (Revenue.total s)

(* ----- Baselines ----- *)

let prop_baselines_valid =
  QCheck2.Test.make ~name:"baselines return valid strategies" ~count:100 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      Strategy.is_valid (Baselines.top_rating inst)
      && Strategy.is_valid (Baselines.top_revenue inst))

let test_baselines_repeat_all_steps () =
  let inst = example1_instance 0.5 in
  (* k=1, so each baseline picks one item and repeats it at t=1..3 *)
  let s = Baselines.top_revenue inst in
  Alcotest.(check int) "3 triples" 3 (Strategy.size s);
  let items = List.sort_uniq compare (List.map (fun (z : Triple.t) -> z.i) (Strategy.to_list s)) in
  Alcotest.(check int) "single item repeated" 1 (List.length items);
  let times = List.sort compare (List.map (fun (z : Triple.t) -> z.t) (Strategy.to_list s)) in
  Alcotest.(check (list int)) "all time steps" [ 1; 2; 3 ] times

let test_top_revenue_ranking () =
  (* item 1 has a higher price×q score at t=1 and must be chosen under k=1 *)
  let inst =
    Instance.create ~num_users:1 ~num_items:2 ~horizon:1 ~display_limit:1 ~class_of:[| 0; 1 |]
      ~capacity:[| 1; 1 |] ~saturation:[| 1.0; 1.0 |]
      ~price:[| [| 10.0 |]; [| 8.0 |] |]
      ~adoption:[ (0, 0, [| 0.3 |]); (0, 1, [| 0.9 |]) ]
      ()
  in
  let s = Baselines.top_revenue inst in
  Alcotest.(check (list string)) "chose item 1" [ "(0, 1, 1)" ]
    (List.map Triple.to_string (Strategy.to_list s))

let test_baselines_respect_capacity () =
  (* item 0 dominates both scores but has capacity 1: the second user must
     fall back to the next-best item *)
  let inst =
    Instance.create ~num_users:2 ~num_items:2 ~horizon:2 ~display_limit:1 ~class_of:[| 0; 1 |]
      ~capacity:[| 1; 2 |] ~saturation:[| 1.0; 1.0 |]
      ~price:[| [| 100.0; 100.0 |]; [| 1.0; 1.0 |] |]
      ~ratings:[ (0, 0, 5.0); (0, 1, 1.0); (1, 0, 5.0); (1, 1, 1.0) ]
      ~adoption:
        [
          (0, 0, [| 0.9; 0.9 |]); (0, 1, [| 0.5; 0.5 |]);
          (1, 0, [| 0.9; 0.9 |]); (1, 1, [| 0.5; 0.5 |]);
        ]
      ()
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) "valid despite contention" true (Strategy.is_valid s);
      let items_of u =
        List.sort_uniq compare
          (List.filter_map
             (fun (z : Triple.t) -> if z.u = u then Some z.i else None)
             (Strategy.to_list s))
      in
      (* exactly one user got item 0; the other fell back to item 1 *)
      Alcotest.(check (list int)) "all items used" [ 0; 1 ]
        (List.sort_uniq compare (items_of 0 @ items_of 1)))
    [ Baselines.top_revenue inst; Baselines.top_rating inst ]

let test_top_rating_uses_ratings () =
  let inst =
    Instance.create ~num_users:1 ~num_items:2 ~horizon:1 ~display_limit:1 ~class_of:[| 0; 1 |]
      ~capacity:[| 1; 1 |] ~saturation:[| 1.0; 1.0 |]
      ~price:[| [| 10.0 |]; [| 8.0 |] |]
      ~ratings:[ (0, 0, 4.9); (0, 1, 2.0) ]
      ~adoption:[ (0, 0, [| 0.3 |]); (0, 1, [| 0.9 |]) ]
      ()
  in
  let s = Baselines.top_rating inst in
  Alcotest.(check (list string)) "chose the higher-rated item 0" [ "(0, 0, 1)" ]
    (List.map Triple.to_string (Strategy.to_list s))

let test_gg_beats_baselines () =
  for seed = 0 to 79 do
    let rng = Rng.create seed in
    let inst = random_instance rng in
    let gg, _ = Greedy.run inst in
    let v = Revenue.total gg in
    let toprev = Revenue.total (Baselines.top_revenue inst) in
    let toprat = Revenue.total (Baselines.top_rating inst) in
    if v < toprev -. 1e-9 || v < toprat -. 1e-9 then
      Alcotest.failf "seed %d: GG %.6f vs TopRev %.6f TopRat %.6f" seed v toprev toprat
  done

(* ----- Exact solvers ----- *)

let test_brute_force_example4 () =
  let inst = example4_instance () in
  let s, v = Exact.brute_force inst in
  check_float ~eps:1e-12 "optimum" 0.57 v;
  Alcotest.(check bool) "valid" true (Strategy.is_valid s)

let test_brute_force_limit () =
  let rng = Rng.create 1 in
  let inst = random_instance ~max_users:3 ~max_items:4 ~max_horizon:3 rng in
  if Instance.num_candidate_triples inst > 2 then
    match Exact.brute_force ~max_ground:2 inst with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected the ground-set guard to fire"

let prop_t1_exact_matches_brute_force =
  (* with singleton classes and T = 1 there is no competition, so the
     Max-DCS reduction is exact; compare against brute force *)
  QCheck2.Test.make ~name:"T=1 Max-DCS = brute force (singleton classes)" ~count:60 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let num_users = 1 + Rng.int rng 2 and num_items = 1 + Rng.int rng 3 in
      let adoption = ref [] in
      for u = 0 to num_users - 1 do
        for i = 0 to num_items - 1 do
          if Rng.bernoulli rng 0.8 then adoption := (u, i, [| Rng.unit_float rng |]) :: !adoption
        done
      done;
      let inst =
        Instance.create ~num_users ~num_items ~horizon:1 ~display_limit:(1 + Rng.int rng 2)
          ~class_of:(Array.init num_items (fun i -> i))
          ~capacity:(Array.init num_items (fun _ -> 1 + Rng.int rng num_users))
          ~saturation:(Array.make num_items 1.0)
          ~price:(Array.init num_items (fun _ -> [| Rng.uniform_in rng 1.0 10.0 |]))
          ~adoption:!adoption ()
      in
      if Instance.num_candidate_triples inst > 10 then true
      else begin
        let s_flow, v_flow = Exact.solve_t1 inst in
        let _, v_bf = Exact.brute_force inst in
        Strategy.is_valid s_flow
        && Helpers.float_eq ~eps:1e-6 v_bf v_flow
        && Helpers.float_eq ~eps:1e-6 v_flow (Revenue.total s_flow)
      end)

let test_solve_t1_horizon_guard () =
  let inst = example4_instance () in
  Alcotest.check_raises "horizon guard" (Invalid_argument "Exact.solve_t1: horizon must be 1")
    (fun () -> ignore (Exact.solve_t1 inst))

(* ----- Rolling (gradual price availability, §6.3) ----- *)

let test_windows () =
  Alcotest.(check (list (pair int int))) "one cutoff" [ (1, 2); (3, 7) ]
    (Rolling.windows ~horizon:7 ~cutoffs:[ 2 ]);
  Alcotest.(check (list (pair int int))) "two cutoffs" [ (1, 2); (3, 4); (5, 7) ]
    (Rolling.windows ~horizon:7 ~cutoffs:[ 2; 4 ]);
  Alcotest.(check (list (pair int int))) "no cutoff" [ (1, 7) ]
    (Rolling.windows ~horizon:7 ~cutoffs:[]);
  (* c = horizon is legal: the trailing window is empty, not an error *)
  Alcotest.(check (list (pair int int))) "cutoff at horizon" [ (1, 7) ]
    (Rolling.windows ~horizon:7 ~cutoffs:[ 7 ]);
  Alcotest.(check (list (pair int int))) "interior + horizon cutoffs" [ (1, 3); (4, 7) ]
    (Rolling.windows ~horizon:7 ~cutoffs:[ 3; 7 ]);
  Alcotest.check_raises "cutoff past horizon"
    (Invalid_argument "Rolling.windows: cut-offs must be ascending and inside the horizon")
    (fun () -> ignore (Rolling.windows ~horizon:7 ~cutoffs:[ 8 ]));
  Alcotest.check_raises "descending cutoffs"
    (Invalid_argument "Rolling.windows: cut-offs must be ascending and inside the horizon")
    (fun () -> ignore (Rolling.windows ~horizon:7 ~cutoffs:[ 4; 2 ]));
  Alcotest.check_raises "duplicate cutoff"
    (Invalid_argument "Rolling.windows: duplicate cut-off 4")
    (fun () -> ignore (Rolling.windows ~horizon:7 ~cutoffs:[ 4; 4 ]))

let test_rolling_no_cutoff_equals_full () =
  let rng = Rng.create 12 in
  let inst = random_instance ~max_users:3 ~max_items:3 ~max_horizon:3 rng in
  let full, _ = Greedy.run inst in
  let rolled = Rolling.run Rolling.g_greedy inst ~cutoffs:[] in
  check_float ~eps:1e-9 "identical revenue" (Revenue.total full) (Revenue.total rolled)

let prop_rolling_valid =
  QCheck2.Test.make ~name:"rolling strategies are valid" ~count:60 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance ~max_horizon:3 rng in
      let horizon = Instance.horizon inst in
      let cutoffs = if horizon >= 2 then [ 1 ] else [] in
      let s = Rolling.run Rolling.g_greedy inst ~cutoffs in
      Strategy.is_valid s)

let test_rolling_never_beats_full_information () =
  for seed = 0 to 39 do
    let rng = Rng.create seed in
    let inst = random_instance ~max_horizon:3 rng in
    let horizon = Instance.horizon inst in
    if horizon >= 2 then begin
      let full, _ = Greedy.run inst in
      let rolled = Rolling.run Rolling.g_greedy inst ~cutoffs:[ 1 ] in
      (* greedy is a heuristic so this is not a theorem; allow 10% slack *)
      let vf = Revenue.total full and vr = Revenue.total rolled in
      if vr > vf +. (0.1 *. Float.max 1.0 vf) then
        Alcotest.failf "seed %d: rolled %.6f far above full %.6f" seed vr vf
    end
  done

(* ----- Algorithms registry ----- *)

let test_registry_names_and_parse () =
  List.iter
    (fun algo ->
      match Algorithms.parse (Algorithms.name algo) with
      | Some back when Algorithms.name back = Algorithms.name algo -> ()
      | _ -> Alcotest.failf "roundtrip failed for %s" (Algorithms.name algo))
    Algorithms.default_suite;
  (match Algorithms.parse "rlg:7" with
  | Some (Algorithms.Rl_greedy 7) -> ()
  | _ -> Alcotest.fail "rlg:7");
  Alcotest.(check bool) "unknown" true (Algorithms.parse "nope" = None)

let prop_registry_runs_all =
  QCheck2.Test.make ~name:"every registered algorithm returns a valid strategy" ~count:25 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      List.for_all
        (fun algo -> Strategy.is_valid (Algorithms.run algo inst ~seed))
        Algorithms.default_suite)

let () =
  Alcotest.run "greedy"
    [
      ( "g_greedy",
        [
          Alcotest.test_case "example 4 behaviour" `Quick test_gg_example4_avoids_negative_marginal;
          Alcotest.test_case "constraints (small)" `Quick test_gg_respects_constraints_small;
          QCheck_alcotest.to_alcotest prop_gg_always_valid;
          Alcotest.test_case "variants identical strategies" `Quick
            test_gg_variants_identical_strategies;
          Alcotest.test_case "evaluators identical" `Quick test_gg_evaluators_identical;
          Alcotest.test_case "lazy vs eager" `Slow test_gg_lazy_eager_agree;
          QCheck_alcotest.to_alcotest prop_gg_never_below_optimum_check;
          QCheck_alcotest.to_alcotest prop_gg_trace_consistent;
          QCheck_alcotest.to_alcotest prop_trace_revenue_with_base;
          Alcotest.test_case "base and allowed" `Quick test_gg_base_and_allowed;
          QCheck_alcotest.to_alcotest prop_gg_budget_prefix;
          QCheck_alcotest.to_alcotest prop_gg_budget_trace_prefix;
          Alcotest.test_case "trace reports evaluations" `Quick test_trace_reports_evaluations;
          Alcotest.test_case "zero deadline truncates" `Quick test_zero_deadline_truncates;
          Alcotest.test_case "no budget never truncates" `Quick test_unbudgeted_never_truncates;
          Alcotest.test_case "local greedy budget" `Quick test_local_greedy_budget;
          Alcotest.test_case "exact budget anytime" `Quick test_exact_budget_anytime;
          Alcotest.test_case "marginal on empty strategy" `Quick
            test_marginal_on_empty_strategy_is_price_times_q;
          Alcotest.test_case "GG >= GG-No" `Slow test_globalno_never_beats_gg;
        ] );
      ( "local_greedy",
        [
          QCheck_alcotest.to_alcotest prop_slg_valid;
          QCheck_alcotest.to_alcotest prop_rlg_at_least_slg;
          Alcotest.test_case "order validation" `Quick test_order_validation;
          Alcotest.test_case "example 4 orders" `Quick test_reverse_order_beats_chrono_on_example4;
          Alcotest.test_case "RLG on example 4" `Quick test_rlg_finds_better_order_on_example4;
        ] );
      ( "baselines",
        [
          QCheck_alcotest.to_alcotest prop_baselines_valid;
          Alcotest.test_case "repeat all steps" `Quick test_baselines_repeat_all_steps;
          Alcotest.test_case "top_revenue ranking" `Quick test_top_revenue_ranking;
          Alcotest.test_case "top_rating uses ratings" `Quick test_top_rating_uses_ratings;
          Alcotest.test_case "capacity fallback" `Quick test_baselines_respect_capacity;
          Alcotest.test_case "GG beats baselines" `Slow test_gg_beats_baselines;
        ] );
      ( "exact",
        [
          Alcotest.test_case "brute force example 4" `Quick test_brute_force_example4;
          Alcotest.test_case "ground-set guard" `Quick test_brute_force_limit;
          QCheck_alcotest.to_alcotest prop_t1_exact_matches_brute_force;
          Alcotest.test_case "horizon guard" `Quick test_solve_t1_horizon_guard;
        ] );
      ( "rolling",
        [
          Alcotest.test_case "windows" `Quick test_windows;
          Alcotest.test_case "no cutoff = full" `Quick test_rolling_no_cutoff_equals_full;
          QCheck_alcotest.to_alcotest prop_rolling_valid;
          Alcotest.test_case "rolling <= full info" `Slow test_rolling_never_beats_full_information;
        ] );
      ( "registry",
        [
          Alcotest.test_case "names and parse" `Quick test_registry_names_and_parse;
          QCheck_alcotest.to_alcotest prop_registry_runs_all;
        ] );
    ]
