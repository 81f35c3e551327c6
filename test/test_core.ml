module Rng = Revmax_prelude.Rng
module Instance = Revmax.Instance
module Triple = Revmax.Triple
module Strategy = Revmax.Strategy
module Revenue = Revmax.Revenue
module Simulate = Revmax.Simulate
module Capacity_oracle = Revmax.Capacity_oracle
open Helpers

(* insert into a standalone chain with the instance's own q, as a plain
   strategy's add stores it; the cell takes the block the insert returns,
   as a strategy's pointers would *)
let insert_q ctx inst c (z : Triple.t) =
  c := Revmax.Chain.insert ctx !c z ~qz:(Instance.q inst ~u:z.u ~i:z.i ~time:z.t)

(* whether two chains hold the same members with the same stored floats,
   bit for bit: every cached aggregate of every member *)
let same_members ctx a b =
  let module Chain = Revmax.Chain in
  let bits = Int64.bits_of_float in
  let same x y = Int64.equal (bits x) (bits y) in
  Chain.length a = Chain.length b
  && List.for_all
       (fun j -> Array.for_all2 same (Chain.member ctx a j) (Chain.member ctx b j))
       (List.init (Chain.length a) Fun.id)

let check_same_members what ctx a b =
  if not (same_members ctx a b) then Alcotest.failf "%s: the chains' members differ" what

(* the marginal of inserting [z] into [c] through the chain's one oracle
   entry, with the instance's own q, price and β *)
let chain_marginal ctx inst c (z : Triple.t) =
  let cells = Revmax.Chain.oracle_cells ctx and res = [| 0.0 |] in
  cells.(3) <- Instance.q inst ~u:z.u ~i:z.i ~time:z.t;
  cells.(4) <- Instance.price inst ~i:z.i ~time:z.t;
  cells.(5) <- Instance.saturation inst z.i;
  Revmax.Chain.marginal_cells ctx ~with_saturation:true c ~time:z.t ~res;
  res.(0)

(* ----- Instance ----- *)

let test_instance_accessors () =
  let inst = example4_instance () in
  Alcotest.(check int) "users" 1 (Instance.num_users inst);
  Alcotest.(check int) "items" 1 (Instance.num_items inst);
  Alcotest.(check int) "horizon" 2 (Instance.horizon inst);
  Alcotest.(check int) "k" 1 (Instance.display_limit inst);
  Alcotest.(check int) "classes" 1 (Instance.num_classes inst);
  Alcotest.(check int) "class size" 1 (Instance.class_size inst 0);
  Alcotest.(check int) "capacity" 2 (Instance.capacity inst 0);
  check_float "saturation" 0.1 (Instance.saturation inst 0);
  check_float "price t1" 1.0 (Instance.price inst ~i:0 ~time:1);
  check_float "price t2" 0.95 (Instance.price inst ~i:0 ~time:2);
  check_float "q t1" 0.5 (Instance.q inst ~u:0 ~i:0 ~time:1);
  check_float "q t2" 0.6 (Instance.q inst ~u:0 ~i:0 ~time:2);
  Alcotest.(check bool) "candidate" true (Instance.is_candidate inst ~u:0 ~i:0);
  Alcotest.(check int) "candidate triples" 2 (Instance.num_candidate_triples inst)

let test_instance_validation () =
  let bad f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "bad horizon" true
    (bad (fun () ->
         ignore
           (Instance.create ~num_users:1 ~num_items:1 ~horizon:0 ~display_limit:1
              ~class_of:[| 0 |] ~capacity:[| 1 |] ~saturation:[| 1.0 |] ~price:[| [||] |]
              ~adoption:[] ())));
  Alcotest.(check bool) "bad saturation" true
    (bad (fun () ->
         ignore
           (Instance.create ~num_users:1 ~num_items:1 ~horizon:1 ~display_limit:1
              ~class_of:[| 0 |] ~capacity:[| 1 |] ~saturation:[| 1.5 |] ~price:[| [| 1.0 |] |]
              ~adoption:[] ())));
  Alcotest.(check bool) "bad adoption prob" true
    (bad (fun () ->
         ignore
           (Instance.create ~num_users:1 ~num_items:1 ~horizon:1 ~display_limit:1
              ~class_of:[| 0 |] ~capacity:[| 1 |] ~saturation:[| 1.0 |] ~price:[| [| 1.0 |] |]
              ~adoption:[ (0, 0, [| 1.2 |]) ] ())));
  Alcotest.(check bool) "duplicate adoption" true
    (bad (fun () ->
         ignore
           (Instance.create ~num_users:1 ~num_items:1 ~horizon:1 ~display_limit:1
              ~class_of:[| 0 |] ~capacity:[| 1 |] ~saturation:[| 1.0 |] ~price:[| [| 1.0 |] |]
              ~adoption:[ (0, 0, [| 0.5 |]); (0, 0, [| 0.4 |]) ] ())));
  Alcotest.(check bool) "negative price" true
    (bad (fun () ->
         ignore
           (Instance.create ~num_users:1 ~num_items:1 ~horizon:1 ~display_limit:1
              ~class_of:[| 0 |] ~capacity:[| 1 |] ~saturation:[| 1.0 |] ~price:[| [| -1.0 |] |]
              ~adoption:[] ())))

let test_instance_candidate_views () =
  let inst = example1_instance 0.4 in
  let cands = Instance.candidates inst 0 in
  Alcotest.(check int) "two candidate items" 2 (Array.length cands);
  Alcotest.(check (list int)) "class members" [ 0; 1 ]
    (List.sort compare (Instance.candidate_items_in_class inst ~u:0 ~cls:0));
  Alcotest.(check int) "positive triples" 6 (Instance.num_candidate_triples inst);
  let count = ref 0 in
  Instance.iter_candidate_triples inst (fun _ q ->
      incr count;
      check_float "q value" 0.4 q);
  Alcotest.(check int) "iterated all" 6 !count

(* [candidates] copies out of the instance's arrays: writing into a
   returned row leaves the instance as it was *)
let test_candidates_are_fresh () =
  let inst =
    Instance.create ~num_users:1 ~num_items:1 ~horizon:2 ~display_limit:1 ~class_of:[| 0 |]
      ~capacity:[| 1 |] ~saturation:[| 1.0 |] ~price:[| [| 1.0; 1.0 |] |]
      ~adoption:[ (0, 0, [| 0.25; 0.5 |]) ]
      ()
  in
  let _, qs = (Instance.candidates inst 0).(0) in
  qs.(0) <- 0.9;
  check_float "q(0,0,1) unchanged" 0.25 (Instance.q inst ~u:0 ~i:0 ~time:1);
  let _, again = (Instance.candidates inst 0).(0) in
  check_float "a second call reads the instance" 0.25 again.(0)

(* A rating lives in its candidate pair's slot, NaN marking none: a rating
   of a pair the adoption list does not name, or a NaN rating, is a typed
   error, not a silently dropped or absent value. *)
let test_ratings_need_candidate_pairs () =
  let build ratings =
    Instance.create_checked ~num_users:2 ~num_items:2 ~horizon:1 ~display_limit:1
      ~class_of:[| 0; 1 |] ~capacity:[| 1; 1 |] ~saturation:[| 1.0; 1.0 |]
      ~price:[| [| 1.0 |]; [| 2.0 |] |]
      ~ratings
      ~adoption:[ (0, 0, [| 0.5 |]); (1, 1, [| 0.5 |]) ]
      ()
  in
  let rejected what ratings msg =
    match build ratings with
    | Error (Revmax_prelude.Err.Invalid_instance { field = "ratings"; msg = m }) ->
        Alcotest.(check string) what msg m
    | Error e -> Alcotest.failf "%s: wrong error %s" what (Revmax_prelude.Err.message e)
    | Ok _ -> Alcotest.failf "%s: accepted" what
  in
  rejected "non-candidate pair" [ (0, 0, 4.0); (0, 1, 3.0) ] "pair (0, 1) is not a candidate";
  rejected "NaN rating" [ (1, 1, Float.nan) ] "pair (1, 1): rating is NaN";
  rejected "out of range" [ (2, 0, 1.0) ] "pair (2, 0) out of range";
  match build [ (1, 1, 2.0); (0, 0, 4.0); (1, 1, 3.0) ] with
  | Ok inst ->
      Alcotest.(check (option (float 0.0))) "rated pair" (Some 4.0) (Instance.rating inst ~u:0 ~i:0);
      Alcotest.(check (option (float 0.0))) "the later rating wins" (Some 3.0)
        (Instance.rating inst ~u:1 ~i:1);
      Alcotest.(check (option (float 0.0))) "non-candidate pair" None
        (Instance.rating inst ~u:0 ~i:1)
  | Error e -> Alcotest.failf "candidate ratings rejected: %s" (Revmax_prelude.Err.message e)

let test_saturation_disabled_view () =
  let inst = example4_instance () in
  let inst' = Instance.with_saturation_disabled inst in
  check_float "disabled" 1.0 (Instance.saturation inst' 0);
  check_float "original untouched" 0.1 (Instance.saturation inst 0)

(* ----- Strategy ----- *)

let test_strategy_add_remove () =
  let inst = example1_instance 0.4 in
  let s = Strategy.create inst in
  let z1 = triple 0 0 1 and z2 = triple 0 1 2 in
  Strategy.add s z1;
  Strategy.add s z2;
  Alcotest.(check int) "size" 2 (Strategy.size s);
  Alcotest.(check bool) "mem" true (Strategy.mem s z1);
  Strategy.remove s z1;
  Alcotest.(check bool) "removed" false (Strategy.mem s z1);
  Alcotest.(check int) "size after remove" 1 (Strategy.size s);
  Alcotest.check_raises "duplicate add" (Invalid_argument "Strategy.add: duplicate triple")
    (fun () ->
      Strategy.add s z2);
  Alcotest.check_raises "absent remove" (Invalid_argument "Strategy.remove: absent triple")
    (fun () -> Strategy.remove s z1)

(* regression for the old filter-based removal: removing a triple must drop
   exactly its chain slot, keep the rest of the chain intact, and leave the
   cached aggregates equal to a freshly-built strategy's *)
let test_strategy_remove_exactly_one () =
  let inst = example1_instance 0.4 in
  let s = Strategy.of_list inst [ triple 0 0 1; triple 0 1 2; triple 0 0 3 ] in
  Strategy.remove s (triple 0 1 2);
  Alcotest.(check (list string)) "chain keeps the others" [ "(0, 0, 1)"; "(0, 0, 3)" ]
    (List.map Triple.to_string (Strategy.chain s ~u:0 ~cls:0));
  Alcotest.(check int) "chain size" 2 (Strategy.chain_size s ~u:0 ~cls:0);
  let ctx = Strategy.chain_context s in
  let chain_of s = Option.get (Strategy.chain_view s ~u:0 ~cls:0) in
  check_same_members "caches match a fresh build" ctx
    (chain_of (Strategy.of_list inst [ triple 0 0 1; triple 0 0 3 ]))
    (chain_of s);
  (* draining the chain removes its entry entirely *)
  Strategy.remove s (triple 0 0 1);
  Strategy.remove s (triple 0 0 3);
  Alcotest.(check int) "drained chain gone" 0 (Strategy.chain_size s ~u:0 ~cls:0);
  check_float ~eps:0.0 "empty revenue" 0.0 (Revenue.total s);
  (* re-adding after the churn reproduces a fresh strategy's chain *)
  Strategy.add s (triple 0 1 2);
  check_same_members "rebuilds cleanly" ctx (chain_of (Strategy.of_list inst [ triple 0 1 2 ])) (chain_of s)

(* regression for the uncleared vacated tail slot: after [Chain.remove]
   shifts the suffix left, the old boundary slot beyond [len] must be reset
   to the dummy/0.0 state so a subsequent re-insert at that boundary can
   never alias stale per-triple data. Exercised through remove → re-insert
   at the exact old boundary, compared field-by-field against a fresh
   build. *)
let test_chain_remove_clears_tail () =
  let module Chain = Revmax.Chain in
  let inst = example1_instance 0.4 in
  let z1 = triple 0 0 1 and z2 = triple 0 1 2 and z3 = triple 0 0 3 in
  let ctx = Chain.context inst in
  let c = ref (Chain.create ()) in
  List.iter (insert_q ctx inst c) [ z1; z2; z3 ];
  (* removing the middle triple shifts z3 left and vacates the old tail *)
  Chain.remove ctx !c z2;
  Alcotest.(check int) "length after remove" 2 (Chain.length !c);
  Alcotest.(check bool) "removed triple gone" false (Chain.mem ctx !c z2);
  Alcotest.(check (list string)) "survivors in order" [ "(0, 0, 1)"; "(0, 0, 3)" ]
    (List.map Triple.to_string (Chain.to_list ctx !c));
  (* re-insert at the old boundary: index 2, exactly the vacated slot *)
  insert_q ctx inst c z2;
  let c = !c in
  let fresh = ref (Chain.create ()) in
  List.iter (insert_q ctx inst fresh) [ z1; z2; z3 ];
  let fresh = !fresh in
  Alcotest.(check (list string)) "re-insert restores the chain"
    (List.map Triple.to_string (Chain.to_list ctx fresh))
    (List.map Triple.to_string (Chain.to_list ctx c));
  (* every member's cached aggregates agree exactly *)
  check_same_members "re-insert matches a fresh build" ctx fresh c;
  (* and a probe marginal at the far boundary sees no stale state either *)
  let probe = triple 0 1 3 in
  check_float ~eps:0.0 "marginal bit-identical" (chain_marginal ctx inst fresh probe)
    (chain_marginal ctx inst c probe)

let test_strategy_chain_order () =
  let inst = example1_instance 0.4 in
  let s = Strategy.create inst in
  (* insert out of order; chain must come back time-ascending *)
  Strategy.add s (triple 0 0 3);
  Strategy.add s (triple 0 1 1);
  Strategy.add s (triple 0 0 2);
  let chain = Strategy.chain s ~u:0 ~cls:0 in
  Alcotest.(check (list int)) "ascending times" [ 1; 2; 3 ]
    (List.map (fun (z : Triple.t) -> z.t) chain);
  Alcotest.(check int) "chain size" 3 (Strategy.chain_size s ~u:0 ~cls:0)

let test_strategy_constraints () =
  let inst = example1_instance 0.4 in
  (* k = 1: two items at the same time violate the display constraint *)
  let s = Strategy.create inst in
  Strategy.add s (triple 0 0 1);
  Alcotest.(check bool) "display blocks" false (Strategy.can_add s (triple 0 1 1));
  Alcotest.(check bool) "other time fine" true (Strategy.can_add s (triple 0 1 2));
  Alcotest.(check int) "display count" 1 (Strategy.display_count s ~u:0 ~time:1);
  Alcotest.(check bool) "valid" true (Strategy.is_valid s);
  (* force a violation and check the validators *)
  Strategy.add s (triple 0 1 1);
  Alcotest.(check bool) "invalid display" false (Strategy.is_valid_display_only s);
  Alcotest.(check bool) "invalid overall" false (Strategy.is_valid s)

let test_strategy_capacity_tracking () =
  let inst =
    Instance.create ~num_users:3 ~num_items:1 ~horizon:2 ~display_limit:1 ~class_of:[| 0 |]
      ~capacity:[| 2 |] ~saturation:[| 1.0 |]
      ~price:[| [| 1.0; 1.0 |] |]
      ~adoption:[ (0, 0, [| 0.5; 0.5 |]); (1, 0, [| 0.5; 0.5 |]); (2, 0, [| 0.5; 0.5 |]) ]
      ()
  in
  let s = Strategy.create inst in
  Strategy.add s (triple 0 0 1);
  Strategy.add s (triple 0 0 2);
  (* same user twice: only one distinct user *)
  Alcotest.(check int) "distinct users" 1 (Strategy.item_user_count s 0);
  Strategy.add s (triple 1 0 1);
  Alcotest.(check int) "two users" 2 (Strategy.item_user_count s 0);
  Alcotest.(check bool) "capacity blocks third" false (Strategy.can_add s (triple 2 0 1));
  Alcotest.(check bool) "existing user still allowed" true (Strategy.can_add s (triple 1 0 2));
  Alcotest.(check bool) "still valid" true (Strategy.is_valid s)

let test_strategy_copy_independent () =
  let inst = example1_instance 0.3 in
  let s = Strategy.create inst in
  Strategy.add s (triple 0 0 1);
  let s' = Strategy.copy s in
  Strategy.add s' (triple 0 1 2);
  Alcotest.(check int) "original unchanged" 1 (Strategy.size s);
  Alcotest.(check int) "copy grew" 2 (Strategy.size s')

let test_repeat_histogram () =
  let inst = example1_instance 0.3 in
  let s = Strategy.create inst in
  Strategy.add s (triple 0 0 1);
  Strategy.add s (triple 0 0 2);
  Strategy.add s (triple 0 1 3);
  let hist = Strategy.repeat_histogram s in
  Alcotest.(check int) "one pair once" 1 hist.(0);
  Alcotest.(check int) "one pair twice" 1 hist.(1);
  Alcotest.(check int) "none thrice" 0 hist.(2)

(* ----- Revenue: the paper's worked examples ----- *)

let test_memory_formula () =
  let chain = [ triple 0 0 1; triple 0 1 2 ] in
  check_float "M at t=3" (0.5 +. 1.0) (Revenue.memory ~chain ~time:3);
  check_float "M at t=1" 0.0 (Revenue.memory ~chain ~time:1);
  check_float "M at t=2" 1.0 (Revenue.memory ~chain ~time:2)

(* Example 1 of the paper: S = {(u,i,1), (u,j,2), (u,i,3)}, C(i) = C(j),
   all primitive probabilities a:
   qS(u,i,1) = a
   qS(u,j,2) = (1−a) · a · β^1
   qS(u,i,3) = (1−a)² · a · β^{1 + 1/2} *)
let test_example1_dynamic_probabilities () =
  let a = 0.4 in
  let inst = example1_instance a in
  let beta = Instance.saturation inst 0 in
  let s = Strategy.of_list inst [ triple 0 0 1; triple 0 1 2; triple 0 0 3 ] in
  check_float "qS(u,i,1)" a (Revenue.dynamic_probability_in s (triple 0 0 1));
  check_float "qS(u,j,2)"
    ((1.0 -. a) *. a *. beta)
    (Revenue.dynamic_probability_in s (triple 0 1 2));
  check_float "qS(u,i,3)"
    ((1.0 -. a) ** 2.0 *. a *. (beta ** 1.5))
    (Revenue.dynamic_probability_in s (triple 0 0 3))

(* Example 4 / Theorem 2 non-monotonicity: Rev({(u,i,2)}) = 0.57 while
   Rev({(u,i,1),(u,i,2)}) = 0.5285 *)
let test_example4_revenues () =
  let inst = example4_instance () in
  let s_small = Strategy.of_list inst [ triple 0 0 2 ] in
  let s_large = Strategy.of_list inst [ triple 0 0 1; triple 0 0 2 ] in
  check_float ~eps:1e-12 "Rev(S)" 0.57 (Revenue.total s_small);
  check_float ~eps:1e-12 "Rev(S')" 0.5285 (Revenue.total s_large);
  Alcotest.(check bool) "non-monotone" true (Revenue.total s_large < Revenue.total s_small)

let test_same_time_competition () =
  (* two same-class items at the same time: each discounted by the other *)
  let inst =
    Instance.create ~num_users:1 ~num_items:2 ~horizon:1 ~display_limit:2 ~class_of:[| 0; 0 |]
      ~capacity:[| 1; 1 |] ~saturation:[| 1.0; 1.0 |]
      ~price:[| [| 1.0 |]; [| 1.0 |] |]
      ~adoption:[ (0, 0, [| 0.5 |]); (0, 1, [| 0.8 |]) ]
      ()
  in
  let s = Strategy.of_list inst [ triple 0 0 1; triple 0 1 1 ] in
  check_float "qS(i)" (0.5 *. 0.2) (Revenue.dynamic_probability_in s (triple 0 0 1));
  check_float "qS(j)" (0.8 *. 0.5) (Revenue.dynamic_probability_in s (triple 0 1 1));
  check_float "Rev" ((0.5 *. 0.2) +. (0.8 *. 0.5)) (Revenue.total s)

let test_cross_class_independence () =
  (* items in different classes never interact *)
  let inst =
    Instance.create ~num_users:1 ~num_items:2 ~horizon:2 ~display_limit:2 ~class_of:[| 0; 1 |]
      ~capacity:[| 1; 1 |] ~saturation:[| 0.5; 0.5 |]
      ~price:[| [| 2.0; 2.0 |]; [| 3.0; 3.0 |] |]
      ~adoption:[ (0, 0, [| 0.5; 0.5 |]); (0, 1, [| 0.4; 0.4 |]) ]
      ()
  in
  let s = Strategy.of_list inst [ triple 0 0 1; triple 0 1 2 ] in
  check_float "item 0 untouched" 0.5 (Revenue.dynamic_probability_in s (triple 0 0 1));
  check_float "item 1 untouched" 0.4 (Revenue.dynamic_probability_in s (triple 0 1 2));
  check_float "additive revenue" ((2.0 *. 0.5) +. (3.0 *. 0.4)) (Revenue.total s)

let test_full_saturation_beta_zero () =
  (* β = 0: any repetition within the class kills later probability *)
  let inst =
    Instance.create ~num_users:1 ~num_items:1 ~horizon:2 ~display_limit:1 ~class_of:[| 0 |]
      ~capacity:[| 1 |] ~saturation:[| 0.0 |]
      ~price:[| [| 1.0; 1.0 |] |]
      ~adoption:[ (0, 0, [| 0.3; 0.9 |]) ]
      ()
  in
  let s = Strategy.of_list inst [ triple 0 0 1; triple 0 0 2 ] in
  check_float "first unaffected" 0.3 (Revenue.dynamic_probability_in s (triple 0 0 1));
  check_float "second killed" 0.0 (Revenue.dynamic_probability_in s (triple 0 0 2))

let test_probability_of_absent_triple_is_zero () =
  let inst = example4_instance () in
  let s = Strategy.of_list inst [ triple 0 0 1 ] in
  check_float "absent triple" 0.0 (Revenue.dynamic_probability_in s (triple 0 0 2))

let test_marginal_identity_small () =
  let inst = example4_instance () in
  let s = Strategy.of_list inst [ triple 0 0 2 ] in
  let z = triple 0 0 1 in
  let m = Revenue.marginal s z in
  let s' = Strategy.of_list inst [ triple 0 0 1; triple 0 0 2 ] in
  check_float ~eps:1e-12 "marginal = Rev(S+z) − Rev(S)"
    (Revenue.total s' -. Revenue.total s)
    m;
  Alcotest.(check bool) "negative marginal here" true (m < 0.0);
  check_float "marginal of member is 0" 0.0 (Revenue.marginal s (triple 0 0 2))

(* ----- Property-based: model laws on random instances ----- *)

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

(* The canonicalization rule behind in-place replanning (DESIGN.md §5b):
   a chain's cached floats are folds whose bits depend on insertion order,
   and [Chain.recompute] brings any insertion order back to exactly the
   bits of an ascending (time, item) build — the build [Strategy.copy]
   performs — for plain inserts and slot-scaled [qz] inserts alike. *)
let prop_chain_recompute_is_canonical =
  let module Chain = Revmax.Chain in
  QCheck2.Test.make ~name:"recompute after any insertion order = ascending build, bit for bit"
    ~count:300 seed_gen (fun seed ->
      let rng = Rng.create seed in
      (* one user, one class: every (item, time) shares a single chain *)
      let inst = random_instance ~max_users:1 ~max_items:5 ~max_horizon:5 ~max_classes:1 rng in
      let members = ref [] in
      for i = 0 to Instance.num_items inst - 1 do
        for t = 1 to Instance.horizon inst do
          if Rng.bernoulli rng 0.6 then members := triple 0 i t :: !members
        done
      done;
      let ascending = List.sort (fun (a : Triple.t) b -> compare (a.t, a.i) (b.t, b.i)) !members in
      let shuffled = Array.of_list ascending in
      Rng.shuffle rng shuffled;
      List.for_all
        (fun scaled ->
          (* a slate strategy stores a slot-scaled q̃ per member; the same
             q̃ must travel with the triple whatever the insertion order *)
          let qz = Hashtbl.create 8 in
          List.iter
            (fun (z : Triple.t) ->
              Hashtbl.replace qz z
                (Rng.uniform_in rng 0.2 1.0 *. Instance.q inst ~u:z.u ~i:z.i ~time:z.t))
            ascending;
          let ctx = Chain.context inst in
          let insert c z =
            if scaled then c := Chain.insert ctx ~qz:(Hashtbl.find qz z) !c z
            else insert_q ctx inst c z
          in
          let canonical = ref (Chain.create ()) in
          List.iter (insert canonical) ascending;
          let canonical = !canonical in
          let c = ref (Chain.create ()) in
          Array.iter (insert c) shuffled;
          let c = !c in
          Chain.recompute ctx c;
          same_members ctx canonical c)
        [ false; true ])

let prop_marginal_identity =
  QCheck2.Test.make ~name:"RevS(z) = Rev(S∪{z}) − Rev(S)" ~count:150 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let s = random_valid_strategy inst rng in
      let all = candidate_triples inst in
      List.for_all
        (fun z ->
          if Strategy.mem s z then true
          else begin
            let before = Revenue.total s in
            let m = Revenue.marginal s z in
            let s' = Strategy.copy s in
            Strategy.add s' z;
            Helpers.float_eq ~eps:1e-9 (Revenue.total s' -. before) m
          end)
        all)

(* the O(L) incremental engine agrees with the naive reference oracle in
   both saturation modes, for every candidate insertion point. On an empty
   target chain both evaluators reduce to the same p·q closed form through
   the shared Chain.saturation_factor, so the agreement is required to be
   bit-exact there; elsewhere the differently-ordered sums may differ by
   rounding and 1e-9 applies. *)
let prop_incremental_marginal_matches_naive =
  QCheck2.Test.make ~name:"marginal_incremental ≈ naive marginal" ~count:150 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let s = random_valid_strategy inst rng in
      List.for_all
        (fun z ->
          let chain_empty = Strategy.chain_of_triple s z = [] in
          List.for_all
            (fun with_saturation ->
              let naive = Revenue.marginal ~with_saturation s z in
              let incr = Revenue.marginal_incremental ~with_saturation s z in
              if chain_empty && not (Strategy.mem s z) then Float.equal naive incr
              else Helpers.float_eq ~eps:1e-9 naive incr)
            [ true; false ])
        (candidate_triples inst))

(* Definition 2 read triple by triple: Rev(S) is the sum of p(z)·qS(z) over
   the members, each qS from the naive per-triple oracle, in both
   saturation modes *)
let prop_total_matches_naive_sum =
  QCheck2.Test.make ~name:"Rev(S) ≈ naive sum of p·qS over triples" ~count:150 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let s = random_valid_strategy inst rng in
      List.for_all
        (fun with_saturation ->
          let naive =
            List.fold_left
              (fun acc (z : Triple.t) ->
                acc
                +. Instance.price inst ~i:z.i ~time:z.t
                   *. Revenue.dynamic_probability ~with_saturation inst
                        ~chain:(Strategy.chain_of_triple s z) z)
              0.0 (Strategy.to_list s)
          in
          Helpers.float_eq ~eps:1e-9 (Revenue.total ~with_saturation s) naive)
        [ true; false ])

(* cached chain aggregates stay consistent under arbitrary add/remove churn *)
let prop_chain_caches_survive_churn =
  QCheck2.Test.make ~name:"cached revenue survives add/remove churn" ~count:80 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let s = Strategy.create inst in
      let all = Array.of_list (candidate_triples inst) in
      Array.length all = 0
      ||
      let ok = ref true in
      for _ = 1 to 40 do
        let z = all.(Rng.int rng (Array.length all)) in
        if Strategy.mem s z then Strategy.remove s z
        else if Strategy.can_add s z then Strategy.add s z;
        (* every member's cached probability against the naive one *)
        List.iter
          (fun (z : Triple.t) ->
            let chain = Strategy.chain_of_triple s z in
            List.iter
              (fun with_saturation ->
                if
                  not
                    (Helpers.float_eq ~eps:1e-9
                       (Revenue.dynamic_probability ~with_saturation inst ~chain z)
                       (Revenue.dynamic_probability_in ~with_saturation s z))
                then ok := false)
              [ true; false ])
          (Strategy.to_list s)
      done;
      !ok)

let prop_probabilities_in_unit_interval =
  QCheck2.Test.make ~name:"qS(u,i,t) ∈ [0,1]" ~count:150 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let s = random_valid_strategy inst rng in
      List.for_all
        (fun z ->
          let q = Revenue.dynamic_probability_in s z in
          q >= 0.0 && q <= 1.0)
        (Strategy.to_list s))

(* Lemma 1: qS(u,i,t) is non-increasing in S *)
let prop_lemma1_probability_non_increasing =
  QCheck2.Test.make ~name:"Lemma 1: qS non-increasing in S" ~count:150 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let s = random_valid_strategy inst rng in
      let extra = List.filter (fun z -> not (Strategy.mem s z)) (candidate_triples inst) in
      match extra with
      | [] -> true
      | w :: _ ->
          let before = List.map (fun z -> Revenue.dynamic_probability_in s z) (Strategy.to_list s) in
          let s' = Strategy.copy s in
          Strategy.add s' w;
          List.for_all2
            (fun b z -> Revenue.dynamic_probability_in s' z <= b +. 1e-12)
            before (Strategy.to_list s))

(* Theorem 2, Case 1 of the paper's proof — the provable regime: when [z]
   comes strictly later than every same-class triple of its user in S', the
   marginal is a pure gain and shrinks with the set (Lemma 1). The general
   claim of Theorem 2 is NOT universally true — see the pinned
   counterexample below and the Theory-notes section of DESIGN.md. *)
let prop_submodularity_case1 =
  QCheck2.Test.make ~name:"submodularity when z succeeds its chain (Case 1)" ~count:150 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let all = Array.of_list (candidate_triples inst) in
      if Array.length all < 2 then true
      else begin
        Rng.shuffle rng all;
        let s = Strategy.create inst and s' = Strategy.create inst in
        Array.iteri
          (fun idx z ->
            if idx mod 3 = 0 then begin
              Strategy.add s z;
              Strategy.add s' z
            end
            else if idx mod 3 = 1 then Strategy.add s' z)
          all;
        Array.for_all
          (fun (z : Triple.t) ->
            let chain = Strategy.chain_of_triple s' z in
            let succeeds_all = List.for_all (fun (c : Triple.t) -> c.t < z.t) chain in
            Strategy.mem s' z || (not succeeds_all)
            || Revenue.marginal s z >= Revenue.marginal s' z -. 1e-9)
          all
      end)

(* Counterexample to the unrestricted Theorem 2: one item, T = 3, no
   saturation (β = 1), q = (0.5, 0.5, 1.0), p = (1, 0.1, 10).
   With S = {(u,i,3)} ⊂ S' = {(u,i,2), (u,i,3)} and z = (u,i,1):
     RevS(z)  = 0.5 − 10·1·0.5            = −4.5
     RevS'(z) = 0.5 − 0.1·0.25 − 10·0.25  = −2.025 > RevS(z).
   The cheap triple at t=2 "shields" the expensive one at t=3, so adding z
   destroys less value in the larger set — diminishing returns fail. *)
let test_theorem2_counterexample () =
  let inst =
    Instance.create ~num_users:1 ~num_items:1 ~horizon:3 ~display_limit:1 ~class_of:[| 0 |]
      ~capacity:[| 1 |] ~saturation:[| 1.0 |]
      ~price:[| [| 1.0; 0.1; 10.0 |] |]
      ~adoption:[ (0, 0, [| 0.5; 0.5; 1.0 |]) ]
      ()
  in
  let s = Strategy.of_list inst [ triple 0 0 3 ] in
  let s' = Strategy.of_list inst [ triple 0 0 2; triple 0 0 3 ] in
  let z = triple 0 0 1 in
  check_float ~eps:1e-12 "RevS(z)" (-4.5) (Revenue.marginal s z);
  check_float ~eps:1e-12 "RevS'(z)" (-2.025) (Revenue.marginal s' z);
  Alcotest.(check bool) "submodularity violated on this instance" true
    (Revenue.marginal s z < Revenue.marginal s' z)

let prop_revenue_nonnegative =
  QCheck2.Test.make ~name:"Rev(S) >= 0" ~count:100 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let s = random_valid_strategy inst rng in
      Revenue.total s >= 0.0)

(* saturation-free view: β=1 revenue is an upper bound on the true one *)
let prop_saturation_only_hurts =
  QCheck2.Test.make ~name:"Rev with saturation <= Rev without" ~count:100 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let s = random_valid_strategy inst rng in
      Revenue.total s <= Revenue.total ~with_saturation:false s +. 1e-9)

(* total revenue decomposes over (user, class) chains *)
let prop_chain_decomposition =
  QCheck2.Test.make ~name:"Rev(S) = sum of chain revenues" ~count:100 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let s = random_valid_strategy inst rng in
      let seen = Hashtbl.create 16 in
      let by_chains =
        List.fold_left
          (fun acc (z : Triple.t) ->
            let cls = Instance.class_of inst z.i in
            let key = (z.u * Instance.num_classes inst) + cls in
            if Hashtbl.mem seen key then acc
            else begin
              Hashtbl.add seen key ();
              acc +. Revenue.chain_revenue inst (Strategy.chain s ~u:z.u ~cls)
            end)
          0.0 (Strategy.to_list s)
      in
      Helpers.float_eq ~eps:1e-9 (Revenue.total s) by_chains)

(* triples outside a chain's class never change its revenue *)
let prop_chain_isolation =
  QCheck2.Test.make ~name:"cross-class triples don't perturb a chain" ~count:100 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance ~max_classes:2 rng in
      if Instance.num_classes inst < 2 then true
      else begin
        let s = random_valid_strategy inst rng in
        match Strategy.to_list s with
        | [] -> true
        | z :: _ ->
            let cls = Instance.class_of inst z.i in
            (* add any candidate of a different class *)
            let other =
              List.find_opt
                (fun (w : Triple.t) ->
                  (not (Strategy.mem s w)) && Instance.class_of inst w.i <> cls)
                (candidate_triples inst)
            in
            (match other with
            | None -> true
            | Some w ->
                let s' = Strategy.copy s in
                (* snapshot from s' itself: the cached chain aggregates are
                   insertion-order dependent in their last float bits, so
                   exact equality is only claimed against the same chain *)
                let before =
                  List.map
                    (fun t -> Revenue.dynamic_probability_in s' t)
                    (Strategy.chain s' ~u:z.u ~cls)
                in
                Strategy.add s' w;
                let after =
                  List.map
                    (fun t -> Revenue.dynamic_probability_in s' t)
                    (Strategy.chain s' ~u:z.u ~cls)
                in
                List.for_all2 (Helpers.float_eq ~eps:0.0) before after)
      end)

(* ----- Simulation agrees with the analytic objective ----- *)

let test_simulation_unbiased_small () =
  let inst = example4_instance () in
  let s = Strategy.of_list inst [ triple 0 0 1; triple 0 0 2 ] in
  let rng = Rng.create 77 in
  let est = Simulate.estimate_revenue s ~samples:200_000 rng in
  Alcotest.(check bool)
    (Printf.sprintf "simulated %.4f vs analytic %.4f" est.Revmax_stats.Mc.mean 0.5285)
    true
    (Revmax_stats.Mc.within_ci est 0.5285)

let prop_simulation_matches_revenue =
  QCheck2.Test.make ~name:"simulator mean ≈ Rev(S)" ~count:12 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance rng in
      let s = random_valid_strategy inst rng in
      let expected = Revenue.total s in
      let est = Simulate.estimate_revenue s ~samples:60_000 rng in
      Revmax_stats.Mc.within_ci est expected)

let test_simulation_exclusive_adoptions () =
  (* within one class a user adopts at most once per simulated world *)
  let inst = example1_instance 0.9 in
  let chain = [ triple 0 0 1; triple 0 1 2; triple 0 0 3 ] in
  let s = Strategy.of_list inst chain in
  let c = Option.get (Strategy.chain_view s ~u:0 ~cls:0) in
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    match Simulate.simulate_chain s c rng with
    | None -> ()
    | Some z -> if not (List.exists (Triple.equal z) chain) then Alcotest.fail "alien adoption"
  done

let test_run_with_stock_limits () =
  (* capacity 1, two users with adoption probability 1: only one sale *)
  let inst =
    Instance.create ~num_users:2 ~num_items:1 ~horizon:1 ~display_limit:1 ~class_of:[| 0 |]
      ~capacity:[| 1 |] ~saturation:[| 1.0 |]
      ~price:[| [| 10.0 |] |]
      ~adoption:[ (0, 0, [| 1.0 |]); (1, 0, [| 1.0 |]) ]
      ()
  in
  (* exceed the capacity deliberately (R-REVMAX style over-recommendation) *)
  let s = Strategy.of_list inst [ triple 0 0 1; triple 1 0 1 ] in
  let report = Simulate.run_with_stock s (Rng.create 3) in
  check_float "revenue capped by stock" 10.0 report.Simulate.revenue;
  Alcotest.(check int) "one stockout" 1 report.Simulate.stockouts

(* ----- Capacity oracle ----- *)

let test_capacity_oracle_below_capacity () =
  let inst = example4_instance () in
  let s = Strategy.of_list inst [ triple 0 0 1 ] in
  check_float "B = 1 when under capacity" 1.0
    (Capacity_oracle.prob_capacity_free s (triple 0 0 1))

let test_capacity_oracle_exact_value () =
  (* capacity 1, three users recommended the item at t=1; for user 2 the
     other two are independent adopters with probability 0.5 and 0.8:
     B = Pr[at most 0 adopt] = 0.5 · 0.2 = 0.1 *)
  let inst =
    Instance.create ~num_users:3 ~num_items:1 ~horizon:1 ~display_limit:1 ~class_of:[| 0 |]
      ~capacity:[| 1 |] ~saturation:[| 1.0 |]
      ~price:[| [| 1.0 |] |]
      ~adoption:[ (0, 0, [| 0.5 |]); (1, 0, [| 0.8 |]); (2, 0, [| 0.4 |]) ]
      ()
  in
  let s = Strategy.of_list inst [ triple 0 0 1; triple 1 0 1; triple 2 0 1 ] in
  check_float ~eps:1e-12 "B_S" 0.1 (Capacity_oracle.prob_capacity_free s (triple 2 0 1))

let prop_capacity_oracle_dp_vs_mc =
  QCheck2.Test.make ~name:"B_S: exact DP ≈ Monte-Carlo" ~count:10 seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance ~max_users:4 ~max_items:2 rng in
      let s = random_valid_strategy inst rng in
      List.for_all
        (fun z ->
          let exact = Capacity_oracle.prob_capacity_free s z in
          let mc = Capacity_oracle.prob_capacity_free_mc s z ~samples:20_000 rng in
          Float.abs (exact -. mc) < 0.03)
        (Strategy.to_list s))

(* ----- The chain walk ----- *)

(* One chain grown member by member in ascending (time, item) order,
   through every capacity doubling (1 → 2 → 4 → 8 → 16), with a remove
   interleaved after each doubling: a remove rebuilds the aggregates
   canonically and later inserts append, so at every step the chain must
   equal, bit for bit, a fresh chain built by inserting its members in
   ascending order. A mistake in growing the interleaved arrays would
   scramble a member's floats or its (item, time). *)
let test_chain_growth_matches_ascending_build () =
  let module Chain = Revmax.Chain in
  (* one user, one class, every (item, time) a candidate: the chain can
     reach 16 members *)
  let inst =
    Instance.create ~num_users:1 ~num_items:4 ~horizon:4 ~display_limit:4
      ~class_of:(Array.make 4 0) ~capacity:(Array.make 4 1)
      ~saturation:[| 0.9; 0.8; 0.7; 0.6 |]
      ~price:(Array.init 4 (fun i -> Array.init 4 (fun t -> float_of_int (1 + i + t))))
      ~adoption:(List.init 4 (fun i -> (0, i, Array.init 4 (fun t -> 0.1 +. (0.05 *. float_of_int (i + t))))))
      ()
  in
  let ascending = List.concat (List.init 4 (fun t -> List.init 4 (fun i -> triple 0 i (t + 1)))) in
  let bits = Int64.bits_of_float in
  let same what a b =
    if not (Int64.equal (bits a) (bits b)) then Alcotest.failf "%s: %h vs %h" what a b
  in
  let ctx = Chain.context inst in
  let agree c members =
    let fresh = ref (Chain.create ()) in
    List.iter (insert_q ctx inst fresh) members;
    let fresh = !fresh in
    Alcotest.(check (list string)) "members" (List.map Triple.to_string members)
      (List.map Triple.to_string (Chain.to_list ctx c));
    check_same_members "members' floats" ctx fresh c;
    same "marginal" (chain_marginal ctx inst fresh (triple 0 3 4)) (chain_marginal ctx inst c (triple 0 3 4))
  in
  let c = ref (Chain.create ()) in
  let members = ref [] in
  (* the first time the chain holds 2, 4 and 8 members, drop its second *)
  let drops = ref [ 2; 4; 8 ] in
  List.iter
    (fun z ->
      insert_q ctx inst c z;
      members := !members @ [ z ];
      agree !c !members;
      match !drops with
      | n :: rest when List.length !members = n ->
          drops := rest;
          let victim = List.nth !members 1 in
          Chain.remove ctx !c victim;
          members := List.filter (fun z' -> not (Triple.equal z' victim)) !members;
          agree !c !members
      | _ -> ())
    ascending;
  Alcotest.(check int) "length" 13 (Chain.length !c)

(* today's folds over the sorted member list with a [seen] table, kept
   here as the reference the chain walk must equal bit for bit *)
let seen_fold s f =
  let inst = Strategy.instance s in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (z : Triple.t) ->
      let cls = Instance.class_of inst z.i in
      let key = (z.u * Instance.num_classes inst) + cls in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        f (Strategy.chain s ~u:z.u ~cls)
      end)
    (Strategy.to_list s)

let reference_total ?with_saturation s =
  let inst = Strategy.instance s in
  let q_of = if Instance.is_slate inst then Some (Strategy.effective_q s) else None in
  let acc = ref 0.0 in
  seen_fold s (fun chain -> acc := !acc +. Revenue.chain_revenue ?with_saturation ?q_of inst chain);
  !acc

(* the live chain of a member list *)
let chain_of s zs = Option.get (Strategy.chain_view_of_triple s (List.hd zs))

let reference_revenue_once s rng =
  let inst = Strategy.instance s in
  let acc = ref 0.0 in
  seen_fold s (fun chain ->
      match Simulate.simulate_chain s (chain_of s chain) rng with
      | None -> ()
      | Some z -> acc := !acc +. Instance.price inst ~i:z.i ~time:z.t);
  !acc

let reference_run_with_stock s rng =
  let inst = Strategy.instance s in
  let would_adopt = ref [] in
  seen_fold s (fun chain ->
      match Simulate.simulate_chain s (chain_of s chain) rng with
      | None -> ()
      | Some z -> would_adopt := z :: !would_adopt);
  let arr = Array.of_list !would_adopt in
  Rng.shuffle rng arr;
  let ordered = Array.to_list arr |> List.stable_sort (fun (a : Triple.t) b -> compare a.t b.t) in
  let stock = Hashtbl.create 32 in
  let revenue = ref 0.0 and adoptions = ref [] and stockouts = ref 0 in
  List.iter
    (fun (z : Triple.t) ->
      let left =
        match Hashtbl.find_opt stock z.i with Some n -> n | None -> Instance.capacity inst z.i
      in
      if left > 0 then begin
        Hashtbl.replace stock z.i (left - 1);
        revenue := !revenue +. Instance.price inst ~i:z.i ~time:z.t;
        adoptions := z :: !adoptions
      end
      else incr stockouts)
    ordered;
  (!revenue, List.rev !adoptions, !stockouts)

(* A strategy built by a random add/remove sequence over the candidates
   and a few non-candidate triples, on the whole instance or on a half
   view, whose strategy then also holds out-of-view members. *)
let churned_strategy inst rng =
  let on =
    if Instance.num_users inst > 1 && Rng.bernoulli rng 0.5 then
      (Instance.shard ~shards:2 inst).(Rng.int rng 2)
    else inst
  in
  let s = Strategy.create on in
  let cands = Array.of_list (candidate_triples inst) in
  let any () =
    triple
      (Rng.int rng (Instance.num_users inst))
      (Rng.int rng (Instance.num_items inst))
      (1 + Rng.int rng (Instance.horizon inst))
  in
  for _ = 1 to 3 * (Array.length cands + 1) do
    let z = if Array.length cands > 0 && Rng.bernoulli rng 0.9 then cands.(Rng.int rng (Array.length cands)) else any () in
    if Strategy.mem s z then (if Rng.bernoulli rng 0.4 then Strategy.remove s z) else Strategy.add s z
  done;
  s

let test_chain_walk_matches_seen_folds () =
  let families =
    [
      ("plain", fun rng -> random_instance rng);
      ("tied", random_tied_instance);
      ("slate", fun rng -> random_slate_instance rng);
      ("budgeted", fun rng -> random_budgeted_instance rng);
    ]
  in
  let bits = Int64.bits_of_float in
  List.iter
    (fun (family, make) ->
      for seed = 0 to 39 do
        let rng = Rng.create seed in
        let s = churned_strategy (make rng) rng in
        let what x = Printf.sprintf "%s seed %d: %s" family seed x in
        let same x a b =
          if not (Int64.equal (bits a) (bits b)) then Alcotest.failf "%s: %h vs %h" (what x) a b
        in
        List.iter
          (fun with_saturation ->
            same "Revenue.total" (reference_total ~with_saturation s) (Revenue.total ~with_saturation s))
          [ true; false ];
        let reference = Revmax_stats.Mc.estimate ~jobs:1 ~samples:50 (Rng.create seed) (reference_revenue_once s) in
        List.iter
          (fun jobs ->
            let est = Simulate.estimate_revenue ~jobs s ~samples:50 (Rng.create seed) in
            same (Printf.sprintf "estimate mean, jobs %d" jobs) reference.mean est.Revmax_stats.Mc.mean;
            same (Printf.sprintf "estimate std error, jobs %d" jobs) reference.std_error est.std_error)
          [ 1; 4 ];
        let revenue, adoptions, stockouts = reference_run_with_stock s (Rng.create seed) in
        let report = Simulate.run_with_stock s (Rng.create seed) in
        same "run_with_stock revenue" revenue report.Simulate.revenue;
        Alcotest.(check (list string)) (what "adoptions") (List.map Triple.to_string adoptions)
          (List.map Triple.to_string report.adoptions);
        Alcotest.(check int) (what "stockouts") stockouts report.stockouts
      done)
    families

(* ----- the chain block against the two-array chain it replaced ----- *)

(* The chain as it was before it became one float block: a record over a
   float array of six floats per member (q, price, β, memory, competition,
   probability) and an int array of the member's item, time and, on
   slates, slot, both doubling from room for one member, with the oracle
   cells and the 1/Δt table in a context. Kept here as the reference the
   block must equal bit for bit. *)
module Ref_chain = struct
  type ctx = { inst : Instance.t; cells : float array; inv : float array; ist : int }

  type t = {
    ctx : ctx;
    mutable user : int;
    mutable len : int;
    mutable f : float array;
    mutable d : int array;
  }

  let context inst =
    {
      inst;
      cells = Array.make 6 0.0;
      inv = Array.init (Instance.horizon inst + 1) (fun d -> if d = 0 then 0.0 else 1.0 /. float_of_int d);
      ist = (if Instance.is_slate inst then 3 else 2);
    }

  let fw = 6
  let fb j = fw * j
  let oq = 0
  let oprice = 1
  let obeta = 2
  let omem = 3
  let ocomp = 4
  let oprob = 5
  let create_in ctx = { ctx; user = 0; len = 0; f = Array.make (fb 1) 0.0; d = Array.make ctx.ist 0 }
  let item c j = c.d.(c.ctx.ist * j)
  let time c j = c.d.((c.ctx.ist * j) + 1)
  let slot c j = if c.ctx.ist < 3 then 0 else c.d.((3 * j) + 2)

  let index c (z : Triple.t) =
    let r = ref (-1) in
    if z.u = c.user then
      for j = 0 to c.len - 1 do
        if time c j = z.t && item c j = z.i then r := j
      done;
    !r

  let set_prob c j =
    let f = c.f and b = fb j in
    f.(b + oprob) <-
      (if f.(b + oq) <= 0.0 then 0.0
       else
         let m = f.(b + omem) in
         f.(b + oq) *. (if m = 0.0 then 1.0 else f.(b + obeta) ** m) *. f.(b + ocomp))

  let recompute c =
    let f = c.f and inv = c.ctx.inv in
    let j = ref 0 and prefix = ref 1.0 in
    while !j < c.len do
      let k = ref !j in
      while !k < c.len && time c !k = time c !j do incr k done;
      for a = !j to !k - 1 do
        let m = ref 0.0 in
        for l = 0 to !j - 1 do
          m := !m +. inv.(time c a - time c l)
        done;
        f.(fb a + omem) <- !m;
        let g = ref !prefix in
        for b = !j to !k - 1 do
          if b <> a then g := !g *. (1.0 -. f.(fb b + oq))
        done;
        f.(fb a + ocomp) <- !g;
        set_prob c a
      done;
      for b = !j to !k - 1 do
        prefix := !prefix *. (1.0 -. f.(fb b + oq))
      done;
      j := !k
    done

  let ensure_capacity c n =
    let ist = c.ctx.ist in
    let cap = Array.length c.d / ist in
    if n > cap then begin
      let cap = max n (2 * cap) in
      let f = Array.make (fb cap) 0.0 in
      Array.blit c.f 0 f 0 (fb c.len);
      c.f <- f;
      let d = Array.make (ist * cap) 0 in
      Array.blit c.d 0 d 0 (ist * c.len);
      c.d <- d
    end

  let insert ?slot ~qz c (z : Triple.t) =
    ensure_capacity c (c.len + 1);
    let inst = c.ctx.inst and ist = c.ctx.ist and inv = c.ctx.inv in
    let one_minus_qz = 1.0 -. qz in
    let a = c.ctx.cells and f = c.f in
    a.(0) <- 0.0;
    a.(1) <- 1.0;
    for j = 0 to c.len - 1 do
      let tj = time c j and b = fb j in
      if tj < z.t then begin
        a.(0) <- a.(0) +. inv.(z.t - tj);
        a.(1) <- a.(1) *. (1.0 -. f.(b + oq))
      end
      else if tj = z.t then begin
        a.(1) <- a.(1) *. (1.0 -. f.(b + oq));
        f.(b + ocomp) <- f.(b + ocomp) *. one_minus_qz;
        set_prob c j
      end
      else begin
        f.(b + omem) <- f.(b + omem) +. inv.(tj - z.t);
        f.(b + ocomp) <- f.(b + ocomp) *. one_minus_qz;
        set_prob c j
      end
    done;
    let p = ref c.len in
    while !p > 0 && not (time c (!p - 1) < z.t || (time c (!p - 1) = z.t && item c (!p - 1) <= z.i)) do
      decr p
    done;
    let p = !p in
    Array.blit f (fb p) f (fb (p + 1)) (fw * (c.len - p));
    Array.blit c.d (ist * p) c.d (ist * (p + 1)) (ist * (c.len - p));
    if c.len = 0 then c.user <- z.u;
    let b = fb p in
    f.(b + oq) <- qz;
    f.(b + oprice) <- Instance.price inst ~i:z.i ~time:z.t;
    f.(b + obeta) <- Instance.saturation inst z.i;
    f.(b + omem) <- a.(0);
    f.(b + ocomp) <- a.(1);
    c.d.(ist * p) <- z.i;
    c.d.((ist * p) + 1) <- z.t;
    if ist > 2 then c.d.((ist * p) + 2) <- Option.value slot ~default:0;
    c.len <- c.len + 1;
    set_prob c p

  let remove c z =
    let j0 = index c z and ist = c.ctx.ist in
    let last = c.len - 1 in
    Array.blit c.f (fb (j0 + 1)) c.f (fb j0) (fw * (last - j0));
    Array.blit c.d (ist * (j0 + 1)) c.d (ist * j0) (ist * (last - j0));
    c.len <- last;
    Array.fill c.f (fb last) fw 0.0;
    Array.fill c.d (ist * last) ist 0;
    recompute c

  let marginal_cells ~with_saturation c ~time:tz ~res =
    let a = c.ctx.cells and inv = c.ctx.inv and f = c.f and d = c.d and ist = c.ctx.ist in
    let qz = a.(3) and price = a.(4) and beta = a.(5) in
    let one_minus_qz = 1.0 -. qz in
    a.(0) <- 0.0;
    a.(1) <- 1.0;
    a.(2) <- 0.0;
    for j = 0 to c.len - 1 do
      let tj = d.((ist * j) + 1) and b = fb j in
      let qj = f.(b + oq) in
      if tj < tz then begin
        a.(0) <- a.(0) +. inv.(tz - tj);
        a.(1) <- a.(1) *. (1.0 -. qj)
      end
      else if tj = tz then begin
        a.(1) <- a.(1) *. (1.0 -. qj);
        let old_p =
          if qj <= 0.0 then 0.0 else if with_saturation then f.(b + oprob) else qj *. f.(b + ocomp)
        in
        a.(2) <- a.(2) -. (f.(b + oprice) *. old_p *. qz)
      end
      else begin
        let dl =
          if qj <= 0.0 then 0.0
          else if with_saturation then begin
            let m' = f.(b + omem) +. inv.(tj - tz) in
            let sat = if m' = 0.0 then 1.0 else f.(b + obeta) ** m' in
            (qj *. sat *. f.(b + ocomp) *. one_minus_qz) -. f.(b + oprob)
          end
          else begin
            let p0 = qj *. f.(b + ocomp) in
            (p0 *. one_minus_qz) -. p0
          end
        in
        a.(2) <- a.(2) +. (f.(b + oprice) *. dl)
      end
    done;
    let gain =
      if qz <= 0.0 then 0.0
      else begin
        let sat = if with_saturation then (if a.(0) = 0.0 then 1.0 else beta ** a.(0)) else 1.0 in
        price *. qz *. sat *. a.(1)
      end
    in
    res.(0) <- gain +. a.(2)

  (* the member's stored values in the block's order: time, item, q,
     price, β, memory, competition, probability, and the slot on slates *)
  let member c j =
    let b = fb j in
    Array.append
      [| float_of_int (time c j); float_of_int (item c j) |]
      (Array.append (Array.sub c.f b fw) (if c.ctx.ist > 2 then [| float_of_int (slot c j) |] else [||]))
end

(* Random insert, remove and recompute steps on one (user, class) chain of
   a plain or slate instance, with a slot-scaled q̃ and a random slot on
   slates, applied to a block chain and to the reference. After every
   step both must agree bit for bit: the length, the user, every member's
   stored values and [marginal_cells] of a random candidate under both
   saturation settings. *)
let prop_chain_block_matches_reference =
  let module Chain = Revmax.Chain in
  QCheck2.Test.make ~name:"chain block = the two-array chain, bit for bit" ~count:300 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst =
        if Rng.bernoulli rng 0.5 then random_instance ~max_users:1 ~max_items:6 ~max_horizon:5 ~max_classes:1 rng
        else random_slate_instance ~max_users:1 ~max_items:6 ~max_horizon:5 rng
      in
      let slate = Instance.is_slate inst and k = Instance.display_limit inst in
      let ctx = Chain.context inst and rctx = Ref_chain.context inst in
      let c = ref (Chain.create ()) and r = Ref_chain.create_in rctx in
      let cls = Instance.class_of inst 0 in
      let keys =
        List.concat
          (List.init (Instance.num_items inst) (fun i ->
               if Instance.class_of inst i <> cls then []
               else List.init (Instance.horizon inst) (fun t -> triple 0 i (t + 1))))
        |> Array.of_list
      in
      let members = ref [] in
      let bits = Int64.bits_of_float in
      let fail step fmt = QCheck2.Test.fail_reportf ("step %d: " ^^ fmt) step in
      let check step =
        if Chain.length !c <> r.Ref_chain.len then fail step "length %d, reference %d" (Chain.length !c) r.len;
        if r.len > 0 && Chain.user !c <> r.user then fail step "user %d, reference %d" (Chain.user !c) r.user;
        for j = 0 to r.len - 1 do
          let got = Chain.member ctx !c j and want = Ref_chain.member r j in
          if Array.length got <> Array.length want || not (Array.for_all2 (fun a b -> bits a = bits b) got want)
          then
            fail step "member %d: [%s], reference [%s]" j
              (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") got)))
              (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") want)))
        done;
        List.iter
          (fun with_saturation ->
            let t = 1 + Rng.int rng (Instance.horizon inst) in
            let q = Rng.unit_float rng and p = Rng.uniform_in rng 0.5 10.0 and b = Rng.unit_float rng in
            let cells = Chain.oracle_cells ctx in
            cells.(3) <- q;
            cells.(4) <- p;
            cells.(5) <- b;
            let res = [| 0.0 |] and rres = [| 0.0 |] in
            Chain.marginal_cells ctx ~with_saturation !c ~time:t ~res;
            rctx.cells.(3) <- q;
            rctx.cells.(4) <- p;
            rctx.cells.(5) <- b;
            Ref_chain.marginal_cells ~with_saturation r ~time:t ~res:rres;
            if bits res.(0) <> bits rres.(0) then
              fail step "marginal_cells at t = %d: %h, reference %h" t res.(0) rres.(0))
          [ true; false ]
      in
      check 0;
      for step = 1 to 40 do
        (match Rng.int rng 5 with
        | 0 when !members <> [] ->
            let z = List.nth !members (Rng.int rng (List.length !members)) in
            Chain.remove ctx !c z;
            Ref_chain.remove r z;
            members := List.filter (fun z' -> not (Triple.equal z z')) !members
        | 1 ->
            Chain.recompute ctx !c;
            Ref_chain.recompute r
        | _ ->
            let z = keys.(Rng.int rng (Array.length keys)) in
            if not (List.exists (Triple.equal z) !members) then begin
              let q = Instance.q inst ~u:0 ~i:z.i ~time:z.t in
              if slate then begin
                let slot = 1 + Rng.int rng k in
                let qz = Instance.slot_factor inst ~slot *. q in
                c := Chain.insert ctx ~slot ~qz !c z;
                Ref_chain.insert ~slot ~qz r z
              end
              else begin
                c := Chain.insert ctx ~qz:q !c z;
                Ref_chain.insert ~qz:q r z
              end;
              members := z :: !members
            end);
        check step
      done;
      true)

(* One (user, class) chain grown through every doubling of its block
   (room for 1, 2, 4, 8 and 16 members), next to an overflow chain grown
   the same way: after every add, every pair of the user's row with that
   class must point at one block holding every member so far, the row's
   other pairs must not, and the overflow key must read its grown block
   too. A pair left on an outgrown block would read its old length. *)
let test_strategy_repoints_grown_chains () =
  let module Chain = Revmax.Chain in
  (* user 0: class-0 candidates 0..4 and class-1 candidate 10; user 1:
     only item 11 (class 1), so user 1's class-0 triples go to the
     overflow table *)
  let items = 12 and horizon = 4 in
  let inst =
    Instance.create ~num_users:2 ~num_items:items ~horizon ~display_limit:items
      ~class_of:(Array.init items (fun i -> if i < 10 then 0 else 1))
      ~capacity:(Array.make items 2)
      ~saturation:(Array.make items 0.8)
      ~price:(Array.init items (fun i -> Array.init horizon (fun t -> float_of_int (1 + i + t))))
      ~adoption:
        ((1, 11, Array.make horizon 0.3)
        :: List.map (fun i -> (0, i, Array.init horizon (fun t -> 0.1 +. (0.02 *. float_of_int (i + t))))) [ 0; 1; 2; 3; 4; 10 ])
      ()
  in
  let s = Strategy.create inst in
  let ctx = Strategy.chain_context s in
  let show l = String.concat " " (List.map Triple.to_string l) in
  let sorted l = List.sort (fun (a : Triple.t) b -> compare (a.t, a.i) (b.t, b.i)) l in
  (* five candidate items and two non-candidates of class 0 at the first
     two times: 14 members for user 0; ten items at one time for user 1 *)
  let row = List.concat_map (fun t -> List.map (fun i -> triple 0 i t) [ 0; 1; 2; 3; 4; 6; 7 ]) [ 1; 2 ] in
  let over = List.init 10 (fun i -> triple 1 i 3) in
  let lo, hi = Instance.pair_row inst 0 in
  let added = ref [] and added_over = ref [] in
  let check what =
    let want = show (sorted !added) and n = List.length !added in
    let block = Strategy.pair_chain s lo in
    for pid = lo to hi - 1 do
      let c = Strategy.pair_chain s pid in
      if Instance.class_of inst (Instance.pair_item inst pid) = 0 then begin
        if c != block then Alcotest.failf "%s: pair %d points at another block" what pid;
        if Chain.length c <> n || show (Chain.to_list ctx c) <> want then
          Alcotest.failf "%s: pair %d reads [%s], want [%s]" what pid (show (Chain.to_list ctx c)) want
      end
      else if Chain.length c <> 0 then Alcotest.failf "%s: class-1 pair %d joined the chain" what pid
    done;
    (match Strategy.chain_view s ~u:0 ~cls:0 with
    | Some c when c == block -> ()
    | _ -> Alcotest.failf "%s: chain_view (0, 0) is not the row's block" what);
    let want = show (sorted !added_over) and n = List.length !added_over in
    match Strategy.chain_view s ~u:1 ~cls:0 with
    | None -> if n > 0 then Alcotest.failf "%s: overflow chain lost" what
    | Some c ->
        if Chain.length c <> n || show (Chain.to_list ctx c) <> want then
          Alcotest.failf "%s: overflow chain reads [%s], want [%s]" what (show (Chain.to_list ctx c)) want
  in
  List.iteri
    (fun k z ->
      Strategy.add s z;
      added := z :: !added;
      (match List.nth_opt over k with
      | Some z' ->
          Strategy.add s z';
          added_over := z' :: !added_over
      | None -> ());
      check (Printf.sprintf "after %d adds" (k + 1)))
    row;
  Alcotest.(check int) "members" 24 (Strategy.size s)

(* ----- pair-indexed chains against a (user, class)-keyed model ----- *)

(* Random add, remove, remove_pair and drain-then-re-add steps on plain,
   slate and budgeted instances, half the time on a shard view (which then
   holds out-of-view members too), with non-candidate triples mixed in.
   The model keeps every member under its (user, class) key, in chain
   order; after every step each accessor must read what the model says,
   and [iter_chains] must visit each non-empty chain exactly once. *)
let prop_pair_chains_match_model =
  let module Chain = Revmax.Chain in
  QCheck2.Test.make ~name:"pair-indexed chains = a (user, class)-keyed model" ~count:300 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst =
        match Rng.int rng 3 with
        | 0 -> random_instance ~max_users:4 ~max_items:5 ~max_classes:3 rng
        | 1 -> random_slate_instance ~max_users:4 ~max_items:5 rng
        | _ -> random_budgeted_instance ~max_users:4 ~max_items:5 rng
      in
      let on =
        if Instance.num_users inst > 1 && Rng.bernoulli rng 0.5 then
          (Instance.shard ~shards:2 inst).(Rng.int rng 2)
        else inst
      in
      let s = Strategy.create on in
      let nu = Instance.num_users inst and ni = Instance.num_items inst in
      let nc = Instance.num_classes inst and horizon = Instance.horizon inst in
      let cls i = Instance.class_of inst i in
      let model : (int, Triple.t list) Hashtbl.t = Hashtbl.create 16 in
      let key (z : Triple.t) = (z.u * nc) + cls z.i in
      let find k = Option.value ~default:[] (Hashtbl.find_opt model k) in
      let chain_order (a : Triple.t) (b : Triple.t) =
        if a.t <> b.t then Int.compare a.t b.t else Int.compare a.i b.i
      in
      let members () = Hashtbl.fold (fun _ l acc -> l @ acc) model [] in
      let mem z = List.exists (Triple.equal z) (find (key z)) in
      let add z =
        Strategy.add s z;
        Hashtbl.replace model (key z) (List.sort chain_order (z :: find (key z)))
      in
      let remove z =
        Strategy.remove s z;
        Hashtbl.replace model (key z) (List.filter (fun z' -> not (Triple.equal z z')) (find (key z)))
      in
      let remove_pair u i =
        Strategy.remove_pair s ~u ~i;
        let k = (u * nc) + cls i in
        Hashtbl.replace model k (List.filter (fun (z : Triple.t) -> z.i <> i) (find k))
      in
      let show l = String.concat " " (List.map Triple.to_string l) in
      let ctx = Strategy.chain_context s in
      let chain_list = function None -> [] | Some c -> Chain.to_list ctx c in
      let check step =
        let fail fmt = QCheck2.Test.fail_reportf ("%s: " ^^ fmt) step in
        for u = 0 to nu - 1 do
          for c = 0 to nc - 1 do
            let expected = find ((u * nc) + c) in
            let view = Strategy.chain_view s ~u ~cls:c in
            (match view with
            | Some ch when Chain.length ch = 0 -> fail "chain_view (%d, %d) is an empty chain" u c
            | _ -> ());
            if chain_list view <> expected then
              fail "chain_view (%d, %d) = [%s], model [%s]" u c (show (chain_list view)) (show expected);
            if Strategy.chain_size s ~u ~cls:c <> List.length expected then
              fail "chain_size (%d, %d) = %d, model %d" u c (Strategy.chain_size s ~u ~cls:c)
                (List.length expected)
          done;
          for i = 0 to ni - 1 do
            let expected = find ((u * nc) + cls i) in
            for t = 1 to horizon do
              let got = chain_list (Strategy.chain_view_of_triple s (triple u i t)) in
              if got <> expected then
                fail "chain_view_of_triple (%d, %d, %d) = [%s], model [%s]" u i t (show got)
                  (show expected)
            done;
            let holds = List.exists (fun (z : Triple.t) -> z.i = i) expected in
            if Strategy.item_has_user s ~i ~u <> holds then fail "item_has_user (%d, %d)" i u
          done
        done;
        let all = members () in
        for i = 0 to ni - 1 do
          let holders =
            List.sort_uniq Int.compare
              (List.filter_map (fun (z : Triple.t) -> if z.i = i then Some z.u else None) all)
          in
          if Strategy.item_holders s i <> holders then fail "item_holders %d" i;
          if Strategy.item_user_count s i <> List.length holders then fail "item_user_count %d" i
        done;
        let reps = Hashtbl.create 16 in
        List.iter
          (fun (z : Triple.t) ->
            Hashtbl.replace reps (z.u, z.i) (1 + Option.value ~default:0 (Hashtbl.find_opt reps (z.u, z.i))))
          all;
        let hist = Array.make horizon 0 in
        Hashtbl.iter (fun _ r -> hist.(min r horizon - 1) <- hist.(min r horizon - 1) + 1) reps;
        if Strategy.repeat_histogram s <> hist then fail "repeat_histogram";
        if Strategy.to_list s <> List.sort Triple.compare all then
          fail "to_list [%s], model [%s]" (show (Strategy.to_list s)) (show (List.sort Triple.compare all));
        let visited = ref [] in
        Strategy.iter_chains s (fun c -> visited := Chain.to_list ctx c :: !visited);
        let chains = Hashtbl.fold (fun _ l acc -> if l <> [] then l :: acc else acc) model [] in
        if List.sort compare !visited <> List.sort compare chains then
          fail "iter_chains does not visit each non-empty chain exactly once"
      in
      let cands = Array.of_list (candidate_triples inst) in
      let pick () =
        if Array.length cands > 0 && Rng.bernoulli rng 0.85 then cands.(Rng.int rng (Array.length cands))
        else triple (Rng.int rng nu) (Rng.int rng ni) (1 + Rng.int rng horizon)
      in
      check "empty";
      for step = 1 to 40 do
        let what = Printf.sprintf "step %d" step in
        (match Rng.int rng 10 with
        | 0 | 1 ->
            let z = pick () in
            remove_pair z.u z.i
        | 2 -> (
            match members () with
            | [] -> ()
            | ms ->
                let z = List.nth ms (Rng.int rng (List.length ms)) in
                let l = find (key z) in
                List.iter remove l;
                check (what ^ ", chain drained");
                add (List.nth l (Rng.int rng (List.length l))))
        | _ ->
            let z = pick () in
            if mem z then remove z else add z);
        check what
      done;
      true)

(* ----- Revenue.total against the list fold it replaced ----- *)

(* Random add and remove steps on plain, slate and budgeted instances,
   half the time on a shard view, with out-of-view and non-candidate
   triples mixed in (so overflow chains, and users without a view row,
   occur). After every step [Revenue.total] must equal the reference
   fold over the sorted member list bit for bit under both saturation
   settings, and [Strategy.iter_chains] must meet the chains in that
   fold's order. *)
let prop_total_matches_list_fold =
  QCheck2.Test.make ~name:"Revenue.total = the list fold it replaced, bit for bit" ~count:300
    seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst =
        match Rng.int rng 3 with
        | 0 -> random_instance ~max_users:4 ~max_items:5 ~max_horizon:4 ~max_classes:3 rng
        | 1 -> random_slate_instance ~max_users:4 ~max_items:5 ~max_horizon:4 rng
        | _ -> random_budgeted_instance ~max_users:4 ~max_items:5 ~max_horizon:4 rng
      in
      let on =
        if Instance.num_users inst > 1 && Rng.bernoulli rng 0.5 then
          (Instance.shard ~shards:2 inst).(Rng.int rng 2)
        else inst
      in
      let s = Strategy.create on in
      let nu = Instance.num_users inst and ni = Instance.num_items inst in
      let horizon = Instance.horizon inst in
      let cands = Array.of_list (candidate_triples inst) in
      let pick () =
        if Array.length cands > 0 && Rng.bernoulli rng 0.8 then
          cands.(Rng.int rng (Array.length cands))
        else triple (Rng.int rng nu) (Rng.int rng ni) (1 + Rng.int rng horizon)
      in
      let check step =
        let fail fmt = QCheck2.Test.fail_reportf ("step %d: " ^^ fmt) step in
        let expected = ref [] and visited = ref [] in
        seen_fold s (fun chain -> expected := chain_of s chain :: !expected);
        Strategy.iter_chains s (fun c -> visited := c :: !visited);
        if not (List.equal ( == ) !visited !expected) then
          fail "iter_chains meets the chains out of the reference order";
        List.iter
          (fun with_saturation ->
            let want = reference_total ~with_saturation s in
            let got = Revenue.total ~with_saturation s in
            if Int64.bits_of_float got <> Int64.bits_of_float want then
              fail "with_saturation=%b: total %h, reference %h" with_saturation got want)
          [ true; false ]
      in
      check 0;
      for step = 1 to 30 do
        let z = pick () in
        if Strategy.mem s z then Strategy.remove s z else Strategy.add s z;
        check step
      done;
      true)

let () =
  Alcotest.run "core"
    [
      ( "instance",
        [
          Alcotest.test_case "accessors" `Quick test_instance_accessors;
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "candidate views" `Quick test_instance_candidate_views;
          Alcotest.test_case "saturation-disabled view" `Quick test_saturation_disabled_view;
          Alcotest.test_case "candidates returns fresh arrays" `Quick test_candidates_are_fresh;
          Alcotest.test_case "ratings need candidate pairs" `Quick
            test_ratings_need_candidate_pairs;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "add/remove" `Quick test_strategy_add_remove;
          Alcotest.test_case "remove exactly one" `Quick test_strategy_remove_exactly_one;
          Alcotest.test_case "chain remove clears tail" `Quick test_chain_remove_clears_tail;
          QCheck_alcotest.to_alcotest prop_chain_recompute_is_canonical;
          Alcotest.test_case "chain growth = ascending build, bit for bit" `Quick
            test_chain_growth_matches_ascending_build;
          Alcotest.test_case "chain order" `Quick test_strategy_chain_order;
          Alcotest.test_case "display constraint" `Quick test_strategy_constraints;
          Alcotest.test_case "capacity tracking" `Quick test_strategy_capacity_tracking;
          Alcotest.test_case "copy independence" `Quick test_strategy_copy_independent;
          Alcotest.test_case "repeat histogram" `Quick test_repeat_histogram;
          QCheck_alcotest.to_alcotest prop_pair_chains_match_model;
          QCheck_alcotest.to_alcotest prop_total_matches_list_fold;
          QCheck_alcotest.to_alcotest prop_chain_block_matches_reference;
          Alcotest.test_case "grown chains are repointed: row pairs and overflow" `Quick
            test_strategy_repoints_grown_chains;
        ] );
      ( "revenue",
        [
          Alcotest.test_case "memory formula" `Quick test_memory_formula;
          Alcotest.test_case "paper example 1" `Quick test_example1_dynamic_probabilities;
          Alcotest.test_case "paper example 4" `Quick test_example4_revenues;
          Alcotest.test_case "same-time competition" `Quick test_same_time_competition;
          Alcotest.test_case "cross-class independence" `Quick test_cross_class_independence;
          Alcotest.test_case "full saturation" `Quick test_full_saturation_beta_zero;
          Alcotest.test_case "absent triple" `Quick test_probability_of_absent_triple_is_zero;
          Alcotest.test_case "marginal identity (example)" `Quick test_marginal_identity_small;
        ] );
      ( "revenue-properties",
        [
          QCheck_alcotest.to_alcotest prop_marginal_identity;
          QCheck_alcotest.to_alcotest prop_incremental_marginal_matches_naive;
          QCheck_alcotest.to_alcotest prop_total_matches_naive_sum;
          QCheck_alcotest.to_alcotest prop_chain_caches_survive_churn;
          QCheck_alcotest.to_alcotest prop_probabilities_in_unit_interval;
          QCheck_alcotest.to_alcotest prop_lemma1_probability_non_increasing;
          QCheck_alcotest.to_alcotest prop_submodularity_case1;
          Alcotest.test_case "Theorem 2 counterexample" `Quick test_theorem2_counterexample;
          QCheck_alcotest.to_alcotest prop_revenue_nonnegative;
          QCheck_alcotest.to_alcotest prop_saturation_only_hurts;
          QCheck_alcotest.to_alcotest prop_chain_decomposition;
          QCheck_alcotest.to_alcotest prop_chain_isolation;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "unbiased on example 4" `Slow test_simulation_unbiased_small;
          QCheck_alcotest.to_alcotest prop_simulation_matches_revenue;
          Alcotest.test_case "exclusive adoptions" `Quick test_simulation_exclusive_adoptions;
          Alcotest.test_case "stock limits" `Quick test_run_with_stock_limits;
          Alcotest.test_case "chain walk = sorted-list folds, bit for bit" `Quick
            test_chain_walk_matches_seen_folds;
        ] );
      ( "capacity_oracle",
        [
          Alcotest.test_case "under capacity" `Quick test_capacity_oracle_below_capacity;
          Alcotest.test_case "exact value" `Quick test_capacity_oracle_exact_value;
          QCheck_alcotest.to_alcotest prop_capacity_oracle_dp_vs_mc;
        ] );
    ]
