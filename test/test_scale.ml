(* Out-of-core scale machinery: pack files and memory-mapped instances
   (bit-identical to built ones through every planner), and the
   footprint of a plan and of the greedy's and the instance's set-up. *)

module Rng = Revmax_prelude.Rng
module Instance = Revmax.Instance
module Triple = Revmax.Triple
module Strategy = Revmax.Strategy
module Revenue = Revmax.Revenue
module Greedy = Revmax.Greedy
module Shard_greedy = Revmax.Shard_greedy
module Scalability = Revmax_datagen.Scalability
open Helpers

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let sorted s = List.sort Triple.compare (Strategy.to_list s)

let with_temp_pack f =
  let path = Filename.temp_file "revmax" ".pack" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* pack → mmap round trip of a built instance; the mapping outlives the
   file (mmap keeps the pages), so the temp file can be removed eagerly *)
let mmap_of inst =
  with_temp_pack (fun path ->
      Instance.pack_to_file inst path;
      Instance.of_mmap path)

(* a random instance with predicted ratings on some candidate pairs, so
   the pack's optional rating section is exercised *)
let random_rated_instance rng =
  let inst = random_instance ~max_users:5 ~max_items:5 ~max_horizon:3 rng in
  let ratings = ref [] in
  for u = 0 to Instance.num_users inst - 1 do
    Array.iter
      (fun (i, _) -> if Rng.bernoulli rng 0.5 then ratings := (u, i, Rng.unit_float rng) :: !ratings)
      (Instance.candidates inst u)
  done;
  if !ratings = [] then inst
  else begin
    (* rebuild the same instance with ratings attached *)
    let adoption = ref [] in
    for u = 0 to Instance.num_users inst - 1 do
      Array.iter
        (fun (i, qs) -> adoption := (u, i, Array.copy qs) :: !adoption)
        (Instance.candidates inst u)
    done;
    Instance.create ~num_users:(Instance.num_users inst) ~num_items:(Instance.num_items inst)
      ~horizon:(Instance.horizon inst) ~display_limit:(Instance.display_limit inst)
      ~class_of:(Array.init (Instance.num_items inst) (Instance.class_of inst))
      ~capacity:(Array.init (Instance.num_items inst) (Instance.capacity inst))
      ~saturation:(Array.init (Instance.num_items inst) (Instance.saturation inst))
      ~price:
        (Array.init (Instance.num_items inst) (fun i ->
             Array.init (Instance.horizon inst) (fun k -> Instance.price inst ~i ~time:(k + 1))))
      ~ratings:!ratings ~adoption:!adoption ()
  end

(* ----- pack round trip: every observable fact survives bit-for-bit ----- *)

let check_instances_equal ~what a b =
  let ck msg got exp = if got <> exp then Alcotest.failf "%s: %s differ" what msg in
  ck "num_users" (Instance.num_users b) (Instance.num_users a);
  ck "num_items" (Instance.num_items b) (Instance.num_items a);
  ck "horizon" (Instance.horizon b) (Instance.horizon a);
  ck "display_limit" (Instance.display_limit b) (Instance.display_limit a);
  ck "num_classes" (Instance.num_classes b) (Instance.num_classes a);
  ck "triples" (Instance.num_candidate_triples b) (Instance.num_candidate_triples a);
  ck "pair_count" (Instance.pair_count b) (Instance.pair_count a);
  for i = 0 to Instance.num_items a - 1 do
    ck "class_of" (Instance.class_of b i) (Instance.class_of a i);
    ck "capacity" (Instance.capacity b i) (Instance.capacity a i);
    (* floats: exact bit equality, not approximate *)
    if Instance.saturation b i <> Instance.saturation a i then
      Alcotest.failf "%s: saturation %d differs" what i;
    for t = 1 to Instance.horizon a do
      if Instance.price b ~i ~time:t <> Instance.price a ~i ~time:t then
        Alcotest.failf "%s: price (%d,%d) differs" what i t
    done
  done;
  for u = 0 to Instance.num_users a - 1 do
    for i = 0 to Instance.num_items a - 1 do
      ck "is_candidate" (Instance.is_candidate b ~u ~i) (Instance.is_candidate a ~u ~i);
      if Instance.rating b ~u ~i <> Instance.rating a ~u ~i then
        Alcotest.failf "%s: rating (%d,%d) differs" what u i;
      for t = 1 to Instance.horizon a do
        if Instance.q b ~u ~i ~time:t <> Instance.q a ~u ~i ~time:t then
          Alcotest.failf "%s: q (%d,%d,%d) differs" what u i t
      done
    done
  done;
  (* candidate iteration order and payloads are identical *)
  let collect inst =
    let acc = ref [] in
    Instance.iter_candidate_triples inst (fun z q -> acc := (z, q) :: !acc);
    List.rev !acc
  in
  if collect b <> collect a then Alcotest.failf "%s: candidate triple streams differ" what;
  (* the constraint-variant knobs live in the pack header and must survive *)
  ck "max_total" (Instance.max_total b) (Instance.max_total a);
  if Instance.slot_multipliers b <> Instance.slot_multipliers a then
    Alcotest.failf "%s: slate multipliers differ" what

let prop_pack_roundtrip =
  QCheck2.Test.make ~name:"pack → mmap round trip preserves every fact" ~count:100 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_rated_instance rng in
      let mapped = mmap_of inst in
      check_instances_equal ~what:(Printf.sprintf "seed %d" seed) inst mapped;
      (* a pack written from the mapped instance reads back equal too *)
      let repacked = mmap_of mapped in
      check_instances_equal ~what:(Printf.sprintf "seed %d repack" seed) inst repacked;
      true)

let prop_pack_roundtrip_variants =
  QCheck2.Test.make ~name:"pack → mmap round trip carries slate and quantity knobs" ~count:60
    seed_gen (fun seed ->
      let rng = Rng.create seed in
      let base = random_rated_instance rng in
      let inst =
        Instance.with_max_total
          (Instance.with_slate base (random_curve rng (Instance.display_limit base)))
          (1 + Rng.int rng (max 1 (Instance.num_candidate_triples base)))
      in
      check_instances_equal ~what:(Printf.sprintf "variant seed %d" seed) inst (mmap_of inst);
      true)

let test_pack_rejects_corruption () =
  let rng = Rng.create 42 in
  let inst = random_rated_instance rng in
  with_temp_pack (fun path ->
      Instance.pack_to_file inst path;
      let size = (Unix.stat path).Unix.st_size in
      (* truncation: every prefix strictly shorter than the file is invalid *)
      List.iter
        (fun keep ->
          let cut = Filename.temp_file "revmax" ".cut" in
          Fun.protect
            ~finally:(fun () -> Sys.remove cut)
            (fun () ->
              let data = In_channel.with_open_bin path In_channel.input_all in
              Out_channel.with_open_bin cut (fun oc ->
                  Out_channel.output_string oc (String.sub data 0 keep));
              match Instance.of_mmap_checked cut with
              | Error _ -> ()
              | Ok _ -> Alcotest.failf "truncated pack (%d of %d bytes) accepted" keep size))
        [ 0; 4; 8 * 6; size / 2; size - 1 ];
      (* a flipped magic byte is rejected *)
      let data = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      Bytes.set data 0 'X';
      let bad = Filename.temp_file "revmax" ".bad" in
      Fun.protect
        ~finally:(fun () -> Sys.remove bad)
        (fun () ->
          Out_channel.with_open_bin bad (fun oc -> Out_channel.output_bytes oc data);
          match Instance.of_mmap_checked bad with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "pack with corrupted magic accepted"))

let test_pack_rejects_bad_probability () =
  (* bytes of a probability > 1 planted directly in the q section must be
     caught by the open-time integrity pass *)
  let inst =
    Instance.create ~num_users:1 ~num_items:1 ~horizon:1 ~display_limit:1 ~class_of:[| 0 |]
      ~capacity:[| 1 |] ~saturation:[| 1.0 |]
      ~price:[| [| 1.0 |] |]
      ~adoption:[ (0, 0, [| 0.5 |]) ]
      ()
  in
  with_temp_pack (fun path ->
      Instance.pack_to_file inst path;
      let data = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      (* the single q double is the last 8 bytes before the pair-item and
         row-offset trailers: locate it by value instead of offset math *)
      let needle = Int64.bits_of_float 0.5 in
      let pos = ref (-1) in
      for off = 0 to Bytes.length data - 8 do
        if Bytes.get_int64_le data off = needle then pos := off
      done;
      if !pos < 0 then Alcotest.fail "q payload not found in pack";
      Bytes.set_int64_le data !pos (Int64.bits_of_float 1.5);
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc data);
      match Instance.of_mmap_checked path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "pack with q = 1.5 accepted")

(* ----- mmap ≡ heap through the planners ----- *)

let trace_of run =
  let order = ref [] in
  let s, _ = run ~trace:(fun (pt : Greedy.trace_point) -> order := (pt.z, pt.revenue) :: !order) in
  (s, List.rev !order)

let prop_greedy_mmap_identity =
  QCheck2.Test.make ~name:"greedy trace on mmap is bit-identical to heap" ~count:100 seed_gen
    (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance ~max_users:5 ~max_items:5 ~max_horizon:3 rng in
      let mapped = mmap_of inst in
      let s_h, tr_h = trace_of (fun ~trace -> Greedy.run ~trace inst) in
      let s_m, tr_m = trace_of (fun ~trace -> Greedy.run ~trace mapped) in
      (* selection order, per-step running revenue (exact doubles), and the
         final strategy must all coincide *)
      if tr_h <> tr_m then Alcotest.failf "seed %d: traces diverge on mmap" seed;
      if sorted s_h <> sorted s_m then Alcotest.failf "seed %d: strategies diverge" seed;
      if Revenue.total s_h <> Revenue.total s_m then Alcotest.failf "seed %d: revenue diverges" seed;
      true)

let prop_shard_mmap_identity =
  QCheck2.Test.make ~name:"sharded planning on mmap equals heap at shards in {1,3}" ~count:60
    seed_gen (fun seed ->
      let rng = Rng.create seed in
      let inst = random_instance ~max_users:7 ~max_items:4 ~max_horizon:3 rng in
      let mapped = mmap_of inst in
      List.iter
        (fun shards ->
          let s_h, (st_h : Shard_greedy.stats) = Shard_greedy.solve ~shards inst in
          let s_m, (st_m : Shard_greedy.stats) = Shard_greedy.solve ~shards mapped in
          if sorted s_h <> sorted s_m then
            Alcotest.failf "seed %d shards %d: selections diverge" seed shards;
          if st_h.released_pairs <> st_m.released_pairs then
            Alcotest.failf "seed %d shards %d: reconciliation diverges" seed shards)
        [ 1; 3 ];
      true)

(* ----- footprint ----- *)

(* words reachable from [s] that its instance does not account for *)
let own_words s =
  Obj.reachable_words (Obj.repr s) - Obj.reachable_words (Obj.repr (Strategy.instance s))

(* the wide, shallow family of the mmap benchmark workload: 10 candidate
   items per user, T = 4, k = 3, one class per ten items *)
let wide_shallow users =
  let base = Scalability.with_users Scalability.default_config users in
  {
    base with
    Scalability.num_items = users / 10;
    num_classes = users / 100;
    items_per_user = 10;
    horizon = 4;
    display_limit = 3;
  }

(* A plan of mostly one- and two-member chains costs a small constant per
   selection: one float block per chain (11 words for one member, 19 for
   two), one chain pointer per pair and one membership bit per
   (pair, time). It reads 11.7 here; the bound leaves a margin of about a
   tenth. Native only: bytecode lays out the same values, but this is a
   statement about the native planner's heap. *)
let test_plan_words_per_selection () =
  if Sys.backend_type = Sys.Native then
    with_temp_pack (fun path ->
        Scalability.generate_pack (wide_shallow 3000) ~seed:16 ~path;
        let inst = Instance.of_mmap path in
        let s, st = Greedy.run inst in
        let per_selection = float_of_int (own_words s) /. float_of_int st.Greedy.selected in
        if st.Greedy.selected < 10_000 || per_selection > 13.0 then
          Alcotest.failf "%d selections at %.1f words each (at most 13)" st.Greedy.selected
            per_selection)

(* The reference check folds every chain straight from its flat arrays,
   reading the instance's facts through cells: it allocates no triple,
   list or chain array, only a few cells, the per-user chain buffer and
   the class marks. *)
let test_total_words () =
  if Sys.backend_type = Sys.Native then
    with_temp_pack (fun path ->
        Scalability.generate_pack (wide_shallow 3000) ~seed:16 ~path;
        let s, st = Greedy.run (Instance.of_mmap path) in
        let words f = snd (Revmax_prelude.Util.allocated_words f) in
        List.iter
          (fun with_saturation ->
            let w = words (fun () -> Revenue.total ~with_saturation s) in
            if st.Greedy.selected < 10_000 || w > 1000.0 then
              Alcotest.failf
                "Revenue.total ~with_saturation:%b allocates %.0f words over %d selections (at most 1,000)"
                with_saturation w st.Greedy.selected)
          [ true; false ])

(* The greedy's per-run state — candidate registration, the heap arena,
   the user mirror and the flag bytes — per candidate pair: the words a
   run that stops after its first selection allocates, less the strategy
   it plans into. *)
let greedy_setup_words_per_pair inst =
  let words f = snd (Revmax_prelude.Util.allocated_words f) in
  let budget = Revmax_prelude.Budget.create ~max_evaluations:1 () in
  let run = words (fun () -> Greedy.run ~budget inst) in
  let strategy = words (fun () -> Strategy.create inst) in
  (run -. strategy) /. float_of_int (Instance.pair_count inst)

(* plan-dense's long-chain family: 40 items in 2 classes, T = 15, k = 5,
   each pair a candidate with probability 0.8, capacities = users; the
   draws, and the [Instance.create] that builds them *)
let dense_draws ~users ~seed =
  let items = 40 and horizon = 15 in
  let rng = Rng.create seed in
  let adoption = ref [] in
  for u = 0 to users - 1 do
    for i = 0 to items - 1 do
      if Rng.bernoulli rng 0.8 then
        adoption := (u, i, Array.init horizon (fun _ -> Rng.uniform_in rng 0.02 0.10)) :: !adoption
    done
  done;
  let price = Array.init items (fun _ -> Array.init horizon (fun _ -> Rng.uniform_in rng 1.0 10.0)) in
  let saturation = Array.init items (fun _ -> Rng.uniform_in rng 0.7 1.0) in
  let class_of = Array.init items (fun i -> i mod 2) and capacity = Array.make items users in
  let adoption = !adoption in
  fun () ->
    Instance.create ~num_users:users ~num_items:items ~horizon ~display_limit:5 ~class_of ~capacity
      ~saturation ~price ~adoption ()

let dense_instance ~users ~seed = dense_draws ~users ~seed ()

(* Set-up costs a small constant per candidate pair (greedy.mli's
   footprint formula): a 32-bit user mirror, a flag byte and the heap's
   1.25 words per (time, slot) entry plus 2.25 per group, 7.9 words at
   T = 4 and 21.6 at T = 15; each bound leaves about a word of margin. *)
let check_setup_words ~what ~bound inst =
  if Sys.backend_type = Sys.Native then begin
    let per_pair = greedy_setup_words_per_pair inst in
    if per_pair > bound then
      Alcotest.failf "%s: greedy set-up costs %.1f words per candidate pair (at most %.0f)" what
        per_pair bound
  end

let test_setup_words_wide_shallow () =
  with_temp_pack (fun path ->
      Scalability.generate_pack (wide_shallow 3000) ~seed:16 ~path;
      check_setup_words ~what:"T = 4 pack" ~bound:9.0 (Instance.of_mmap path))

let test_setup_words_dense () =
  check_setup_words ~what:"T = 15 dense" ~bound:23.0 (dense_instance ~users:400 ~seed:16)

(* A row replan's state is sized by the row, not by the catalogue: the
   greedy keeps no per-item table, so replanning one user's ten-pair row
   allocates the same words whether the instance has 200 items or 20,000
   (the row's items, prices and probabilities are the same in both). *)
let test_replan_words_flat_in_items () =
  if Sys.backend_type = Sys.Native then begin
    let horizon = 4 in
    let replan_words items =
      let inst =
        Instance.create ~num_users:1 ~num_items:items ~horizon ~display_limit:3
          ~class_of:(Array.init items (fun i -> i mod 5))
          ~capacity:(Array.make items 1)
          ~saturation:(Array.init items (fun i -> 0.5 +. (0.04 *. float_of_int (i mod 10))))
          ~price:(Array.init items (fun i -> Array.init horizon (fun t -> float_of_int (1 + ((i + t) mod 7)))))
          ~adoption:(List.init 10 (fun i -> (0, i, Array.init horizon (fun t -> 0.05 *. float_of_int (1 + i + t)))))
          ()
      in
      let s = Strategy.create inst in
      let words f = snd (Revmax_prelude.Util.allocated_words f) in
      ignore (words ignore);
      let w = words (fun () -> ignore (Greedy.plan_rows s ~users:(0, 1))) in
      if Strategy.size s = 0 then Alcotest.fail "the replan selected nothing";
      w
    in
    let small = replan_words 200 and large = replan_words 20_000 in
    if small <> large then
      Alcotest.failf "a one-user replan allocates %.0f words at 200 items and %.0f at 20,000" small large
  end

(* [Instance.create] writes the candidate pairs into off-heap arrays: on
   the OCaml heap it allocates only per-user row offsets and per-item
   copies, nothing that grows with the pairs. Native only, like the other
   word counts. *)
let test_create_words_per_pair () =
  if Sys.backend_type = Sys.Native then begin
    let build = dense_draws ~users:400 ~seed:16 in
    let inst, words = Revmax_prelude.Util.allocated_words build in
    let per_pair = words /. float_of_int (Instance.pair_count inst) in
    if per_pair > 2.0 then
      Alcotest.failf "Instance.create allocates %.1f words per candidate pair (at most 2)" per_pair
  end

(* A strategy is sized by its view: on a quarter view its display fill
   covers the view's users, not the parent's, and out-of-view users go
   through the overflow path — with global user ids in [violations]. *)
let test_view_strategy_is_view_sized () =
  let inst = Scalability.generate (wide_shallow 4000) ~seed:7 in
  let view = (Instance.shard ~shards:4 inst).(1) in
  let lo, hi = Instance.user_range view in
  let plo, phi = Instance.pair_range view in
  let horizon = Instance.horizon view in
  let s = Strategy.create view in
  (* per view pair a chain pointer and [T] bits, per view user [T+1] display
     counters, per item a holder count, plus small tables *)
  let bound =
    (phi - plo) + ((phi - plo) * horizon / 64) + ((hi - lo) * (horizon + 1))
    + Instance.num_items view + 1024
  in
  let words = own_words s in
  if words > bound then
    Alcotest.failf "empty strategy on users [%d, %d) holds %d words (bound %d, %d users overall)" lo
      hi words bound (Instance.num_users view);
  (* over-fill one display in the view and one on each side of it *)
  let k = Instance.display_limit view in
  let fill u = List.iter (fun i -> Strategy.add s (triple u i 2)) (List.init (k + 1) Fun.id) in
  List.iter fill [ hi; lo; lo - 1 ];
  let users =
    List.filter_map
      (function Revmax_prelude.Err.Display_limit { u; time; _ } -> Some (u, time) | _ -> None)
      (Strategy.violations s)
  in
  Alcotest.(check (list (pair int int))) "display violations, global ids" [ (lo - 1, 2); (lo, 2); (hi, 2) ] users;
  Alcotest.(check int) "out-of-view display count" (k + 1) (Strategy.display_count s ~u:hi ~time:2);
  List.iter (fun i -> Strategy.remove s (triple hi i 2)) (List.init (k + 1) Fun.id);
  Alcotest.(check int) "drained" 0 (Strategy.display_count s ~u:hi ~time:2)

let () =
  Alcotest.run "scale"
    [
      ( "pack",
        [
          QCheck_alcotest.to_alcotest prop_pack_roundtrip;
          QCheck_alcotest.to_alcotest prop_pack_roundtrip_variants;
          Alcotest.test_case "corrupted packs are rejected" `Quick test_pack_rejects_corruption;
          Alcotest.test_case "out-of-range q is rejected" `Quick test_pack_rejects_bad_probability;
        ] );
      ( "mmap-equivalence",
        [
          QCheck_alcotest.to_alcotest prop_greedy_mmap_identity;
          QCheck_alcotest.to_alcotest prop_shard_mmap_identity;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "a plan costs at most 13 words per selection" `Quick
            test_plan_words_per_selection;
          Alcotest.test_case "a view's strategy is sized by the view" `Quick
            test_view_strategy_is_view_sized;
          Alcotest.test_case "greedy set-up costs at most 9 words per candidate pair at T = 4"
            `Quick test_setup_words_wide_shallow;
          Alcotest.test_case "greedy set-up costs at most 23 words per candidate pair at T = 15"
            `Quick test_setup_words_dense;
          Alcotest.test_case "Instance.create allocates at most 2 words per candidate pair"
            `Quick test_create_words_per_pair;
          Alcotest.test_case "Revenue.total allocates at most 1,000 words" `Quick test_total_words;
          Alcotest.test_case "a one-user replan allocates the same words at 200 and at 20,000 items"
            `Quick test_replan_words_flat_in_items;
        ] );
    ]
