(* User-sharded planning: Instance.shard views, the water-filling split,
   Shard_greedy's proof obligations (validity at every shard count,
   bit-identity at shards=1, jobs- and determinism-invariance), and the
   Budget split/absorb arithmetic the shard fan-out relies on. *)

module Rng = Revmax_prelude.Rng
module Budget = Revmax_prelude.Budget
module Instance = Revmax.Instance
module Triple = Revmax.Triple
module Strategy = Revmax.Strategy
module Revenue = Revmax.Revenue
module Greedy = Revmax.Greedy
module Shard_greedy = Revmax.Shard_greedy
open Helpers

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let sorted s = List.sort Triple.compare (Strategy.to_list s)

(* a random instance with capacities tight enough that water-filling
   budgets genuinely overlap and reconciliation has work to do *)
let contended_instance ?(max_users = 8) rng =
  let inst = random_instance ~max_users ~max_items:4 ~max_horizon:3 rng in
  inst

(* ----- Instance.shard: views and budgets ----- *)

let test_shard_partitions_users () =
  for seed = 0 to 39 do
    let rng = Rng.create seed in
    let inst = random_instance ~max_users:9 rng in
    let n = Instance.num_users inst in
    List.iter
      (fun shards ->
        let views = Instance.shard ~shards inst in
        Alcotest.(check int) "one view per shard" shards (Array.length views);
        (* contiguous, disjoint, covering [0, n) in order *)
        let expected_lo = ref 0 in
        Array.iter
          (fun v ->
            let lo, hi = Instance.user_range v in
            if lo <> !expected_lo then
              Alcotest.failf "seed %d shards %d: range starts at %d, expected %d" seed shards lo
                !expected_lo;
            if hi < lo then Alcotest.failf "seed %d: empty-negative range" seed;
            expected_lo := hi)
          views;
        Alcotest.(check int) "ranges cover all users" n !expected_lo)
      [ 1; 2; 3; 8 ]
  done

let test_shard_water_filling_budgets () =
  let rng = Rng.create 5 in
  let inst = random_instance ~max_users:9 rng in
  let views = Instance.shard ~shards:3 inst in
  Array.iter
    (fun v ->
      let lo, hi = Instance.user_range v in
      for i = 0 to Instance.num_items inst - 1 do
        Alcotest.(check int)
          (Printf.sprintf "item %d budget = min(q_i, shard users)" i)
          (min (Instance.capacity inst i) (hi - lo))
          (Instance.capacity v i)
      done)
    views

let test_shard_views_are_zero_copy_slices () =
  let rng = Rng.create 11 in
  let inst = random_instance ~max_users:9 rng in
  let views = Instance.shard ~shards:3 inst in
  (* a view enumerates exactly the global candidate triples of its users,
     with global user ids (so shard strategies merge without renaming) *)
  let all = candidate_triples inst in
  Array.iter
    (fun v ->
      let lo, hi = Instance.user_range v in
      let expected = List.filter (fun (z : Triple.t) -> z.u >= lo && z.u < hi) all in
      let got = candidate_triples v in
      if got <> expected then
        Alcotest.failf "view [%d,%d): triples differ from the global slice" lo hi;
      Alcotest.(check int) "num_candidate_triples matches" (List.length expected)
        (Instance.num_candidate_triples v))
    views

let test_shard_rejects_bad_arguments () =
  let inst =
    Instance.create ~num_users:2 ~num_items:1 ~horizon:1 ~display_limit:1 ~class_of:[| 0 |]
      ~capacity:[| 2 |] ~saturation:[| 0.5 |]
      ~price:[| [| 1.0 |] |]
      ~adoption:[ (0, 0, [| 0.5 |]); (1, 0, [| 0.5 |]) ]
      ()
  in
  Alcotest.check_raises "shards = 0" (Invalid_argument "Instance.shard: need at least one shard")
    (fun () -> ignore (Instance.shard ~shards:0 inst));
  let view = (Instance.shard ~shards:2 inst).(0) in
  Alcotest.check_raises "re-sharding a view"
    (Invalid_argument "Instance.shard: cannot re-shard a shard view") (fun () ->
      ignore (Instance.shard ~shards:1 view))

(* ----- the water-filling split ----- *)

let test_water_filling_covers_capacity () =
  (* Σ_shards min(q_i, n_s) >= min(q_i, n): the shards together can always
     fill an item's global capacity, and no shard is granted more than q_i;
     over-subscription is left to reconciliation *)
  for seed = 0 to 39 do
    let rng = Rng.create seed in
    let inst = random_instance ~max_users:9 rng in
    let n = Instance.num_users inst in
    List.iter
      (fun shards ->
        let views = Instance.shard ~shards inst in
        for i = 0 to Instance.num_items inst - 1 do
          let q = Instance.capacity inst i in
          let total = Array.fold_left (fun acc v -> acc + Instance.capacity v i) 0 views in
          if total < min q n then
            Alcotest.failf "seed %d shards %d item %d: budgets sum to %d < min(q_i, n) = %d" seed
              shards i total (min q n);
          Array.iter
            (fun v ->
              if Instance.capacity v i > q then
                Alcotest.failf "seed %d shards %d item %d: a shard budget exceeds q_i" seed shards i)
            views
        done)
      [ 1; 2; 3; 8 ]
  done

let test_water_filling_zero_user_instance () =
  (* a zero-user instance shards into empty views with zero budgets, and
     the sharded planner returns the empty strategy without reconciling *)
  let inst =
    Instance.create ~num_users:0 ~num_items:2 ~horizon:1 ~display_limit:1 ~class_of:[| 0; 1 |]
      ~capacity:[| 5; 3 |] ~saturation:[| 0.5; 0.5 |]
      ~price:[| [| 1.0 |]; [| 1.0 |] |]
      ~adoption:[] ()
  in
  let views = Instance.shard ~shards:4 inst in
  Array.iter
    (fun v ->
      let lo, hi = Instance.user_range v in
      Alcotest.(check int) "empty range" lo hi;
      for i = 0 to 1 do
        Alcotest.(check int) (Printf.sprintf "item %d budget" i) 0 (Instance.capacity v i)
      done)
    views;
  let s, st = Shard_greedy.solve ~shards:4 inst in
  Alcotest.(check int) "empty strategy" 0 (Strategy.size s);
  Alcotest.(check bool) "valid" true (Strategy.is_valid s);
  Alcotest.(check int) "no reconciliation" 0 st.Shard_greedy.reconciliation_rounds

(* ----- Budget.split / absorb ----- *)

let test_budget_split_shares () =
  let b = Budget.create ~max_evaluations:10 () in
  let parts = Budget.split b 3 in
  Alcotest.(check int) "three parts" 3 (Array.length parts);
  (* 10 = 4 + 3 + 3, earlier parts taking the remainder: probe each part's
     cap by spending up to it *)
  let cap p =
    let n = ref 0 in
    while not (Budget.exhausted p) && !n < 100 do
      Budget.spend p 1;
      incr n
    done;
    !n
  in
  Alcotest.(check (list int)) "shares" [ 4; 3; 3 ] (Array.to_list (Array.map cap parts));
  (* the parts' work flows back on absorb: 10 units spent means the parent
     is exhausted too *)
  Budget.absorb b parts;
  Alcotest.(check int) "parent sees all charges" 10 (Budget.evaluations b);
  Alcotest.(check bool) "parent exhausted" true (Budget.exhausted b)

let test_budget_split_accounts_prior_spend () =
  let b = Budget.create ~max_evaluations:10 () in
  Budget.spend b 4;
  let parts = Budget.split b 2 in
  (* only the remaining 6 units are divided: 3 + 3 *)
  Budget.spend parts.(0) 3;
  Budget.spend parts.(1) 3;
  Alcotest.(check bool) "part 0 exhausted at its share" true (Budget.exhausted parts.(0));
  Budget.absorb b parts;
  Alcotest.(check int) "parent total" 10 (Budget.evaluations b)

let budget_part_cap p =
  (* probe a part's evaluation cap by spending until exhaustion *)
  let n = ref 0 in
  while not (Budget.exhausted p) && !n < 10_000 do
    Budget.spend p 1;
    incr n
  done;
  !n

let test_budget_split_exact_sum_sweep () =
  (* audit pin: for every (cap, n) the shares sum exactly to the cap, the
     remainder lands on the earlier parts, and no share is zero once
     cap >= n *)
  List.iter
    (fun cap ->
      List.iter
        (fun n ->
          let b = Budget.create ~max_evaluations:cap () in
          let caps = Array.map budget_part_cap (Budget.split b n) in
          let total = Array.fold_left ( + ) 0 caps in
          if total <> cap then
            Alcotest.failf "cap=%d n=%d: shares sum to %d" cap n total;
          (* deterministic remainder: earlier parts are never smaller *)
          for idx = 1 to n - 1 do
            if caps.(idx) > caps.(idx - 1) then
              Alcotest.failf "cap=%d n=%d: share %d exceeds share %d" cap n idx (idx - 1)
          done;
          if cap >= n && Array.exists (fun c -> c = 0) caps then
            Alcotest.failf "cap=%d n=%d: zero share despite cap >= n" cap n)
        [ 1; 2; 3; 4; 7; 8 ])
    [ 1; 2; 5; 7; 8; 16; 100 ]

let test_budget_absorb_roundtrip_identity () =
  (* absorb (split t n) = t: splitting and absorbing untouched parts is a
     no-op on the parent's accounting, with or without prior spend *)
  List.iter
    (fun prior ->
      let b = Budget.create ~max_evaluations:20 () in
      Budget.spend b prior;
      let parts = Budget.split b 4 in
      Budget.absorb b parts;
      Alcotest.(check int)
        (Printf.sprintf "prior=%d: absorb of untouched parts is a no-op" prior)
        prior (Budget.evaluations b);
      Alcotest.(check bool) "exhaustion unchanged" (prior >= 20) (Budget.exhausted b))
    [ 0; 5; 20 ]

let test_budget_split_unlimited () =
  let b = Budget.create () in
  let parts = Budget.split b 4 in
  Array.iter
    (fun p ->
      Budget.spend p 1000;
      Alcotest.(check bool) "never exhausted" false (Budget.exhausted p))
    parts

(* ----- Shard_greedy: proof obligations ----- *)

let prop_sharded_always_valid =
  QCheck2.Test.make ~name:"sharded greedy is valid at shards in {1,2,4,8}" ~count:60 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = contended_instance rng in
      List.for_all
        (fun shards ->
          let s, _ = Shard_greedy.solve ~shards inst in
          Strategy.is_valid s)
        [ 1; 2; 4; 8 ])

let prop_sharded_respects_capacities =
  QCheck2.Test.make ~name:"sharded greedy respects every q_i" ~count:60 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = contended_instance rng in
      List.for_all
        (fun shards ->
          let s, _ = Shard_greedy.solve ~shards inst in
          let by_item = Hashtbl.create 16 in
          List.iter
            (fun (z : Triple.t) ->
              let users =
                match Hashtbl.find_opt by_item z.i with
                | Some set -> set
                | None ->
                    let set = Hashtbl.create 4 in
                    Hashtbl.replace by_item z.i set;
                    set
              in
              Hashtbl.replace users z.u ())
            (Strategy.to_list s);
          Hashtbl.fold
            (fun i users ok -> ok && Hashtbl.length users <= Instance.capacity inst i)
            by_item true)
        [ 2; 4; 8 ])

let prop_one_shard_is_plain_greedy =
  QCheck2.Test.make ~name:"shards=1 equals Greedy.run triple for triple" ~count:100 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = contended_instance rng in
      let s_plain, _ = Greedy.run inst in
      let s_sh, st = Shard_greedy.solve ~shards:1 inst in
      sorted s_sh = sorted s_plain
      && st.Shard_greedy.reconciliation_rounds = 0
      && st.Shard_greedy.released_pairs = 0)

(* the same single-shard identity on the constraint-variant families: a
   slate or a global quantity budget must not open a gap between the
   sharded planner's shards=1 path and plain greedy *)
let prop_one_shard_is_plain_greedy_on_variants =
  QCheck2.Test.make ~name:"shards=1 equals Greedy.run on slate and budgeted instances" ~count:60
    seed_gen (fun seed ->
      let rng = Rng.create seed in
      List.for_all
        (fun inst ->
          let s_plain, _ = Greedy.run inst in
          let s_sh, _ = Shard_greedy.solve ~shards:1 inst in
          sorted s_sh = sorted s_plain)
        [
          random_slate_instance ~max_users:8 ~max_items:4 ~max_horizon:3 rng;
          random_budgeted_instance ~max_users:8 ~max_items:4 ~max_horizon:3 rng;
        ])

let test_sharded_deterministic_and_jobs_invariant () =
  for seed = 0 to 29 do
    let rng = Rng.create seed in
    let inst = contended_instance rng in
    List.iter
      (fun shards ->
        let reference, st1 = Shard_greedy.solve ~shards ~jobs:1 inst in
        List.iter
          (fun jobs ->
            let s, st = Shard_greedy.solve ~shards ~jobs inst in
            if sorted s <> sorted reference then
              Alcotest.failf "seed %d shards %d: jobs=%d selected a different strategy" seed
                shards jobs;
            if st.Shard_greedy.reconciliation_rounds <> st1.Shard_greedy.reconciliation_rounds
            then Alcotest.failf "seed %d shards %d: round count depends on jobs" seed shards)
          [ 2; 4 ])
      [ 2; 4 ]
  done

let test_sharded_reconciliation_terminates_in_one_round () =
  (* the fixed-point argument of Shard_greedy: re-planning checks the true
     global capacities, so at most one release round ever runs *)
  for seed = 0 to 59 do
    let rng = Rng.create seed in
    let inst = contended_instance rng in
    List.iter
      (fun shards ->
        let _, st = Shard_greedy.solve ~shards inst in
        if st.Shard_greedy.reconciliation_rounds > 1 then
          Alcotest.failf "seed %d shards %d: %d reconciliation rounds" seed shards
            st.Shard_greedy.reconciliation_rounds)
      [ 2; 4; 8 ]
  done

let test_sharded_stats_accounting () =
  let rng = Rng.create 3 in
  let inst = contended_instance rng in
  let s, st = Shard_greedy.solve ~shards:4 inst in
  Alcotest.(check int) "shards recorded" 4 st.Shard_greedy.shards;
  Alcotest.(check int) "per-shard array length" 4 (Array.length st.Shard_greedy.per_shard_selected);
  Alcotest.(check int) "selected = strategy size" (Strategy.size s) st.Shard_greedy.selected;
  let shard_total = Array.fold_left ( + ) 0 st.Shard_greedy.per_shard_selected in
  (* released pairs remove at least one triple each; re-planning adds back *)
  if
    Strategy.size s > shard_total + st.Shard_greedy.replanned
    || st.Shard_greedy.marginal_evaluations <= 0
  then Alcotest.failf "inconsistent accounting"

let prop_budgeted_sharded_still_valid =
  QCheck2.Test.make ~name:"budget-truncated sharded run is still valid" ~count:60 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = contended_instance rng in
      let budget = Budget.create ~max_evaluations:(1 + (seed mod 40)) () in
      let s, _ = Shard_greedy.solve ~shards:4 ~budget inst in
      Strategy.is_valid s)

let test_default_shards_knob () =
  (* set_default_shards wins over the environment and clamps at 1 *)
  Shard_greedy.set_default_shards 3;
  Alcotest.(check int) "override" 3 (Shard_greedy.default_shards ());
  Shard_greedy.set_default_shards 0;
  Alcotest.(check int) "clamped" 1 (Shard_greedy.default_shards ());
  Shard_greedy.set_default_shards 1

let () =
  Alcotest.run "shard"
    [
      ( "instance-views",
        [
          Alcotest.test_case "shard partitions users contiguously" `Quick
            test_shard_partitions_users;
          Alcotest.test_case "water-filling budgets are min(q_i, users)" `Quick
            test_shard_water_filling_budgets;
          Alcotest.test_case "views slice the global candidate set" `Quick
            test_shard_views_are_zero_copy_slices;
          Alcotest.test_case "invalid arguments rejected" `Quick test_shard_rejects_bad_arguments;
        ] );
      ( "water-filling-split",
        [
          Alcotest.test_case "budgets cover every q_i" `Quick test_water_filling_covers_capacity;
          Alcotest.test_case "zero-user instance" `Quick test_water_filling_zero_user_instance;
        ] );
      ( "budget-split",
        [
          Alcotest.test_case "split shares and absorb round-trip" `Quick test_budget_split_shares;
          Alcotest.test_case "split divides only the remaining allowance" `Quick
            test_budget_split_accounts_prior_spend;
          Alcotest.test_case "exact-sum sweep with deterministic remainder" `Quick
            test_budget_split_exact_sum_sweep;
          Alcotest.test_case "absorb of an untouched split is the identity" `Quick
            test_budget_absorb_roundtrip_identity;
          Alcotest.test_case "splitting an unlimited budget" `Quick test_budget_split_unlimited;
        ] );
      ( "shard-greedy",
        [
          QCheck_alcotest.to_alcotest prop_sharded_always_valid;
          QCheck_alcotest.to_alcotest prop_sharded_respects_capacities;
          QCheck_alcotest.to_alcotest prop_one_shard_is_plain_greedy;
          QCheck_alcotest.to_alcotest prop_one_shard_is_plain_greedy_on_variants;
          Alcotest.test_case "deterministic and jobs-invariant" `Quick
            test_sharded_deterministic_and_jobs_invariant;
          Alcotest.test_case "reconciliation fixed point in <= 1 round" `Quick
            test_sharded_reconciliation_terminates_in_one_round;
          Alcotest.test_case "statistics accounting" `Quick test_sharded_stats_accounting;
          QCheck_alcotest.to_alcotest prop_budgeted_sharded_still_valid;
          Alcotest.test_case "default-shards knob" `Quick test_default_shards_knob;
        ] );
    ]
