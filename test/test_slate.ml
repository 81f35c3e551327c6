(* Constraint-variant suite: ad slates with position multipliers and the
   global quantity budget. Pins (a) validity of every planner's output on
   slate / budgeted instances, (b) the cap is never exceeded and binds
   exactly when it should, (c) the two degenerate identities — an
   unbounded budget and an all-1.0 slate are bit-identical, triple for
   triple, to the plain planner — and (d) the typed violation witnesses
   with their exact rendered message bytes. Run it alone with
   `dune build @slate`. *)

module Rng = Revmax_prelude.Rng
module Err = Revmax_prelude.Err
module Instance = Revmax.Instance
module Triple = Revmax.Triple
module Strategy = Revmax.Strategy
module Revenue = Revmax.Revenue
module Greedy = Revmax.Greedy
module Shard_greedy = Revmax.Shard_greedy
module Exact = Revmax.Exact
module Pipeline = Revmax_datagen.Pipeline
module Simulate = Revmax.Simulate
module Capacity_oracle = Revmax.Capacity_oracle
open Helpers

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let sorted s = List.sort Triple.compare (Strategy.to_list s)

let random_slate_instance rng = random_slate_instance ~max_users:5 ~max_items:4 ~max_horizon:3 rng

let random_budgeted_instance rng =
  random_budgeted_instance ~max_users:5 ~max_items:4 ~max_horizon:3 rng

(* the greedy selection trace, revenue included, for bit-identity checks *)
let trace_of run =
  let order = ref [] in
  let s, _ = run ~trace:(fun (pt : Greedy.trace_point) -> order := (pt.z, pt.revenue) :: !order) in
  (s, List.rev !order)

let traces_bit_identical ta tb =
  List.length ta = List.length tb
  && List.for_all2
       (fun (za, va) (zb, vb) ->
         Triple.equal za zb && Int64.bits_of_float va = Int64.bits_of_float vb)
       ta tb

(* ----- validity on the new instance families ----- *)

let prop_slate_planners_valid =
  QCheck2.Test.make ~name:"slate instances: greedy, sharded (3 shards) outputs validate" ~count:60
    seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_slate_instance rng in
      let ok s = Strategy.validate s = Ok () && Strategy.violations s = [] in
      let s, _ = Greedy.run inst in
      let sh, _ = Shard_greedy.solve ~shards:3 inst in
      ok s && ok sh)

let prop_quantity_planners_never_exceed_cap =
  QCheck2.Test.make ~name:"quantity instances: no planner exceeds the cap" ~count:60 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_budgeted_instance rng in
      let cap = Instance.max_total_cap inst in
      let ok s = Strategy.size s <= cap && Strategy.validate s = Ok () in
      let s, _ = Greedy.run inst in
      let sh, _ = Shard_greedy.solve ~shards:3 inst in
      ok s && ok sh)

(* a loose cap (the full candidate count) can never bind, so the budgeted
   planner must not stop early: greedy picks exactly what plain greedy
   picks, and a genuinely tight cap is met with equality whenever the
   plain run overshoots it *)
let prop_tight_cap_binds_exactly =
  QCheck2.Test.make ~name:"a cap below the plain size binds with equality" ~count:60 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance ~max_users:5 ~max_items:4 ~max_horizon:3 rng in
      let s_plain, _ = Greedy.run inst in
      let n = Strategy.size s_plain in
      if n < 2 then QCheck2.assume_fail ()
      else begin
        let cap = 1 + Rng.int rng (n - 1) in
        let s_cap, _ = Greedy.run (Instance.with_max_total inst cap) in
        Strategy.size s_cap = cap
      end)

(* ----- degenerate bit-identity ----- *)

let prop_unbounded_budget_identity =
  QCheck2.Test.make
    ~name:"max_total = candidate count is bit-identical to plain greedy, triple for triple"
    ~count:80 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance ~max_users:5 ~max_items:4 ~max_horizon:3 rng in
      let loose = Instance.with_max_total inst (Instance.num_candidate_triples inst) in
      let s_p, tr_p = trace_of (fun ~trace -> Greedy.run ~trace inst) in
      let s_l, tr_l = trace_of (fun ~trace -> Greedy.run ~trace loose) in
      traces_bit_identical tr_p tr_l
      && List.equal Triple.equal (sorted s_p) (sorted s_l)
      && Int64.bits_of_float (Revenue.total s_p) = Int64.bits_of_float (Revenue.total s_l))

let prop_without_quantity_budget_identity =
  QCheck2.Test.make ~name:"without_quantity_budget strips the cap back to the plain planner"
    ~count:60 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance ~max_users:5 ~max_items:4 ~max_horizon:3 rng in
      let stripped = Instance.without_quantity_budget (Instance.with_max_total inst 1) in
      let _, tr_p = trace_of (fun ~trace -> Greedy.run ~trace inst) in
      let _, tr_s = trace_of (fun ~trace -> Greedy.run ~trace stripped) in
      Instance.max_total stripped = None && traces_bit_identical tr_p tr_s)

let prop_all_ones_slate_identity =
  QCheck2.Test.make
    ~name:"all-1.0 multipliers are bit-identical to the unordered-k planner" ~count:80 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance ~max_users:5 ~max_items:4 ~max_horizon:3 rng in
      let ones =
        Instance.with_slate inst (Array.make (Instance.display_limit inst) 1.0)
      in
      let s_p, tr_p = trace_of (fun ~trace -> Greedy.run ~trace inst) in
      let s_o, tr_o = trace_of (fun ~trace -> Greedy.run ~trace ones) in
      traces_bit_identical tr_p tr_o
      && List.equal Triple.equal (sorted s_p) (sorted s_o)
      && Int64.bits_of_float (Revenue.total s_p) = Int64.bits_of_float (Revenue.total s_o))

(* ----- slate mechanics ----- *)

let prop_slate_slots_injective_and_scaled =
  QCheck2.Test.make
    ~name:"every member holds a distinct slot per display; effective q is the slot-scaled q"
    ~count:60 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_slate_instance rng in
      let s, _ = Greedy.run inst in
      let seen : (int * int * int, unit) Hashtbl.t = Hashtbl.create 16 in
      List.for_all
        (fun (z : Triple.t) ->
          match Strategy.slot_of s z with
          | None -> false
          | Some slot ->
              let key = (z.u, z.t, slot) in
              let fresh = not (Hashtbl.mem seen key) in
              Hashtbl.replace seen key ();
              fresh
              && slot >= 1
              && slot <= Instance.display_limit inst
              && float_eq (Strategy.effective_q s z)
                   (Instance.slot_factor inst ~slot *. Instance.q inst ~u:z.u ~i:z.i ~time:z.t))
        (Strategy.to_list s))

(* Position decay can raise the revenue greedy plans: scaled-down q's
   compete less with each other, so greedy can end on a better strategy
   than the one it finds without decay. Two counterexamples QCheck drew,
   pinned; the optima still order as the property below says. *)
let test_decay_can_raise_greedy_revenue () =
  List.iter
    (fun (seed, plain, decayed) ->
      let inst = random_instance ~max_users:5 ~max_items:4 ~max_horizon:3 (Rng.create seed) in
      let k = Instance.display_limit inst in
      let slate = Instance.with_slate inst (Pipeline.position_curve ~decay:(`Geometric 0.7) k) in
      let greedy i = Revenue.total (fst (Greedy.run i)) in
      let g_plain = greedy inst and g_decay = greedy slate in
      check_float ~eps:1e-6 (Printf.sprintf "seed %d: greedy without decay" seed) plain g_plain;
      check_float ~eps:1e-6 (Printf.sprintf "seed %d: greedy with decay" seed) decayed g_decay;
      if not (g_decay > g_plain) then Alcotest.failf "seed %d: decay no longer helps greedy" seed;
      let _, o_plain = Exact.brute_force inst and _, o_decay = Exact.brute_force slate in
      if o_decay > o_plain +. 1e-9 then
        Alcotest.failf "seed %d: optimum with decay %.6f above %.6f without" seed o_decay o_plain)
    [ (901, 13.645399, 13.692576); (1039, 13.205708, 13.823138) ]

(* Decay never raises the optimum. For a fixed strategy, revenue is
   multilinear in the slot-scaled q's, so its maximum over the box
   [0, q] of scaled values sits at a vertex; a vertex with some scaled q
   at 0 is dominated by dropping that triple (β ≤ 1 makes a zero-q triple
   only discount its chain), and the all-q vertex is the undecayed
   strategy. Checked against brute force on instances small enough to
   enumerate. *)
let prop_decay_never_raises_optimum =
  QCheck2.Test.make ~name:"position decay never increases the optimal revenue" ~count:200
    seed_gen (fun seed ->
      let inst = random_instance ~max_users:3 ~max_items:3 ~max_horizon:2 (Rng.create seed) in
      if Instance.num_candidate_triples inst > 12 then QCheck2.assume_fail ()
      else begin
        let k = Instance.display_limit inst in
        let slate = Instance.with_slate inst (Pipeline.position_curve ~decay:(`Geometric 0.7) k) in
        snd (Exact.brute_force slate) <= snd (Exact.brute_force inst) +. 1e-9
      end)

(* Brute force's slate branch scores each state by [Revenue.total], so
   the value it returns is exactly the revenue of the strategy it
   returns, bit for bit, whatever slots the search gave its members. *)
let prop_exact_value_is_total =
  QCheck2.Test.make ~name:"Exact on slate instances: value = Revenue.total of its strategy, bit for bit"
    ~count:300 seed_gen (fun seed ->
      let inst = Helpers.random_slate_instance ~max_users:3 ~max_items:3 ~max_horizon:2 (Rng.create seed) in
      if Instance.num_candidate_triples inst > 12 then QCheck2.assume_fail ()
      else
        let s, v = Exact.brute_force inst in
        let total = Revenue.total s in
        if Int64.bits_of_float v <> Int64.bits_of_float total then
          QCheck2.Test.fail_reportf "value %h, Revenue.total %h" v total;
        true)

(* position_curve contract: slot 1 = 1.0, non-increasing, within [0,1] —
   i.e. always admissible for Instance.with_slate *)
let test_position_curve_admissible () =
  List.iter
    (fun decay ->
      List.iter
        (fun k ->
          let m = Pipeline.position_curve ~decay k in
          Alcotest.(check int) "length" k (Array.length m);
          check_float "slot 1" 1.0 m.(0);
          Array.iteri
            (fun j v ->
              if v < 0.0 || v > 1.0 then Alcotest.failf "slot %d: %g outside [0,1]" (j + 1) v;
              if j > 0 && v > m.(j - 1) then
                Alcotest.failf "slot %d: %g increases over %g" (j + 1) v m.(j - 1))
            m)
        [ 1; 2; 5 ])
    [ `Geometric 0.7; `Geometric 1.0; `Harmonic ];
  List.iter
    (fun bad -> match Pipeline.position_curve ~decay:(`Geometric bad) 3 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "geometric ratio %g should be rejected" bad)
    [ 0.0; 1.5; -0.2 ]

(* ----- typed witnesses and pinned message bytes ----- *)

let quantity_instance () =
  let inst =
    Instance.create ~num_users:2 ~num_items:2 ~horizon:2 ~display_limit:1 ~class_of:[| 0; 1 |]
      ~capacity:[| 2; 2 |] ~saturation:[| 0.5; 0.5 |]
      ~price:[| [| 1.0; 1.0 |]; [| 2.0; 2.0 |] |]
      ~adoption:
        [ (0, 0, [| 0.5; 0.5 |]); (0, 1, [| 0.5; 0.5 |]); (1, 0, [| 0.5; 0.5 |]) ]
      ()
  in
  Instance.with_max_total inst 2

let test_quantity_witness_and_message () =
  let inst = quantity_instance () in
  let s = Strategy.create inst in
  (* Strategy.add deliberately allows overshoot (repair loops need it);
     validate must then report the typed witness, ordered last *)
  List.iter (Strategy.add s) [ triple 0 0 1; triple 0 1 2; triple 1 0 1 ];
  (match Strategy.add_result s (triple 1 0 2) with
  | Error (Err.Invalid_strategy [ Err.Quantity_budget { count = 4; cap = 2 } ]) -> ()
  | Error e -> Alcotest.failf "add_result: wrong error %s" (Err.message e)
  | Ok () -> Alcotest.fail "add_result accepted a strategy past the cap");
  (match Strategy.violations s with
  | [ Err.Quantity_budget { count; cap } ] ->
      Alcotest.(check int) "count" 3 count;
      Alcotest.(check int) "cap" 2 cap
  | vs ->
      Alcotest.failf "expected exactly the quantity witness, got %d violations" (List.length vs));
  match Strategy.validate s with
  | Error (Err.Invalid_strategy [ v ]) ->
      (* pinned bytes: downstream log scrapers match on this exact text *)
      Alcotest.(check string) "constraint message"
        "quantity budget violated: 3 recommendations exceed the global cap 2"
        (Err.constraint_message v);
      Alcotest.(check string) "singleton render"
        "invalid strategy: quantity budget violated: 3 recommendations exceed the global cap 2"
        (Err.message (Err.Invalid_strategy [ v ]))
  | _ -> Alcotest.fail "expected exactly one violation"

let test_slot_conflict_witness_and_message () =
  let inst =
    Instance.with_slate (example1_instance 0.5) ~display_limit:2 [| 1.0; 0.5 |]
  in
  let s = Strategy.create inst in
  Strategy.add ~slot:2 s (triple 0 0 1);
  Strategy.add ~slot:2 s (triple 0 1 1);
  (match Strategy.violations s with
  | [ Err.Slot_conflict { u = 0; time = 1; slot = 2 } ] -> ()
  | vs -> Alcotest.failf "expected exactly the slot witness, got %d violations" (List.length vs));
  match Strategy.validate s with
  | Error (Err.Invalid_strategy [ v ]) ->
      Alcotest.(check string) "constraint message"
        "slate slot conflict: user 0 has slot 2 at time 1 assigned twice"
        (Err.constraint_message v)
  | _ -> Alcotest.fail "expected exactly one violation"

(* On a slate a member's desire coin is drawn with its slot-scaled q̃, the
   q [Revenue.total] reads, so the simulated mean estimates it without
   bias; with the raw q a slot-2 member desires twice as often. Both
   Monte-Carlo consumers are held to it: the revenue estimate, and the
   capacity oracle's, which simulates the same chains. The strategy gives
   every user every item, most of them in slot 2, past the capacities of
   1 on purpose so that the oracle has other holders to count. *)
let test_simulation_unbiased_on_slates () =
  let horizon = 3 in
  let q u i k = 0.3 +. (0.1 *. float_of_int ((u + i + k) mod 4)) in
  let base =
    Instance.create ~num_users:3 ~num_items:3 ~horizon ~display_limit:2 ~class_of:[| 0; 1; 2 |]
      ~capacity:[| 1; 1; 1 |] ~saturation:[| 0.5; 0.6; 0.7 |]
      ~price:(Array.init 3 (fun i -> Array.init horizon (fun k -> float_of_int (3 + i + k))))
      ~adoption:
        (List.concat_map
           (fun u -> List.init 3 (fun i -> (u, i, Array.init horizon (q u i))))
           [ 0; 1; 2 ])
      ()
  in
  let inst = Instance.with_slate base [| 1.0; 0.5 |] in
  let s = Strategy.create inst in
  List.iter
    (fun u ->
      List.iter
        (fun (i, t, slot) -> Strategy.add ~slot s (triple u i t))
        [ (0, 1, 1); (1, 1, 2); (2, 2, 1); (0, 2, 2); (1, 3, 2) ])
    [ 0; 1; 2 ];
  let expected = Revenue.total s in
  let est = Simulate.estimate_revenue s ~samples:100_000 (Rng.create 11) in
  if not (Revmax_stats.Mc.within_ci est expected) then
    Alcotest.failf "simulated %.4f ± %.4f against Revenue.total %.4f" est.Revmax_stats.Mc.mean
      est.Revmax_stats.Mc.std_error expected;
  let z = triple 0 1 3 in
  let exact = Capacity_oracle.prob_capacity_free s z in
  let mc = Capacity_oracle.prob_capacity_free_mc s z ~samples:100_000 (Rng.create 12) in
  if Float.abs (mc -. exact) > 0.01 then
    Alcotest.failf "capacity oracle: simulated %.4f against exact %.4f" mc exact

(* greedy stops on the cap as *completion*, not budget exhaustion: the
   truncated flag stays false so resume/monitoring logic keeps its meaning *)
let test_cap_stop_is_not_truncation () =
  let rng = Rng.create 17 in
  let inst = random_instance ~max_users:5 ~max_items:4 ~max_horizon:3 rng in
  let s_plain, _ = Greedy.run inst in
  let n = Strategy.size s_plain in
  Alcotest.(check bool) "plain run needs a few picks" true (n >= 2);
  let s, (st : Greedy.stats) = Greedy.run (Instance.with_max_total inst (n - 1)) in
  Alcotest.(check int) "stops exactly at the cap" (n - 1) (Strategy.size s);
  Alcotest.(check bool) "not flagged truncated" false st.truncated

let () =
  Alcotest.run "slate"
    [
      ( "validity",
        [
          QCheck_alcotest.to_alcotest prop_slate_planners_valid;
          QCheck_alcotest.to_alcotest prop_quantity_planners_never_exceed_cap;
          QCheck_alcotest.to_alcotest prop_tight_cap_binds_exactly;
        ] );
      ( "degenerate-identity",
        [
          QCheck_alcotest.to_alcotest prop_unbounded_budget_identity;
          QCheck_alcotest.to_alcotest prop_without_quantity_budget_identity;
          QCheck_alcotest.to_alcotest prop_all_ones_slate_identity;
        ] );
      ( "slate-mechanics",
        [
          QCheck_alcotest.to_alcotest prop_slate_slots_injective_and_scaled;
          QCheck_alcotest.to_alcotest prop_decay_never_raises_optimum;
          QCheck_alcotest.to_alcotest prop_exact_value_is_total;
          Alcotest.test_case "decay can raise greedy revenue" `Quick
            test_decay_can_raise_greedy_revenue;
          Alcotest.test_case "position_curve admissible" `Quick test_position_curve_admissible;
          Alcotest.test_case "simulated revenue is unbiased on slates" `Quick
            test_simulation_unbiased_on_slates;
        ] );
      ( "witnesses",
        [
          Alcotest.test_case "quantity witness and pinned message" `Quick
            test_quantity_witness_and_message;
          Alcotest.test_case "slot conflict witness and pinned message" `Quick
            test_slot_conflict_witness_and_message;
          Alcotest.test_case "cap stop is completion, not truncation" `Quick
            test_cap_stop_is_not_truncation;
        ] );
    ]
