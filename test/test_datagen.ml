module Rng = Revmax_prelude.Rng
module Distribution = Revmax_stats.Distribution
module Catalog = Revmax_datagen.Catalog
module Price_model = Revmax_datagen.Price_model
module Valuation = Revmax_datagen.Valuation
module Ratings_gen = Revmax_datagen.Ratings_gen
module Pipeline = Revmax_datagen.Pipeline
module Amazon_like = Revmax_datagen.Amazon_like
module Epinions_like = Revmax_datagen.Epinions_like
module Scalability = Revmax_datagen.Scalability
module Ratings = Revmax_mf.Ratings
module Instance = Revmax.Instance
open Helpers

(* ----- Catalog ----- *)

let test_zipf_classes_dense_and_skewed () =
  let rng = Rng.create 1 in
  let a = Catalog.zipf_classes ~num_items:1000 ~num_classes:20 rng in
  let sizes = Catalog.class_sizes a in
  Alcotest.(check int) "dense class ids" 20 (Array.length sizes);
  Array.iteri (fun c s -> if s < 1 then Alcotest.failf "class %d empty" c) sizes;
  Alcotest.(check int) "sizes sum to items" 1000 (Array.fold_left ( + ) 0 sizes);
  let sorted = Array.copy sizes in
  Array.sort compare sorted;
  Alcotest.(check bool) "skew: max far above median" true
    (sorted.(19) > 3 * sorted.(10))

let test_uniform_classes_balanced () =
  let rng = Rng.create 2 in
  let a = Catalog.uniform_classes ~num_items:100 ~num_classes:10 rng in
  let sizes = Catalog.class_sizes a in
  Array.iter (fun s -> Alcotest.(check int) "balanced" 10 s) sizes

let test_singleton_classes () =
  let a = Catalog.singleton_classes ~num_items:5 in
  Alcotest.(check (array int)) "identity" [| 0; 1; 2; 3; 4 |] a

let test_catalog_validation () =
  Alcotest.check_raises "too many classes"
    (Invalid_argument "Catalog: need num_items >= num_classes >= 1") (fun () ->
      ignore (Catalog.zipf_classes ~num_items:3 ~num_classes:5 (Rng.create 0)))

(* ----- Price model ----- *)

let test_amazon_series_shape () =
  let rng = Rng.create 3 in
  let s = Price_model.amazon_series ~base:100.0 ~days:62 rng in
  Alcotest.(check int) "62 days" 62 (Array.length s.Price_model.daily);
  Array.iter (fun p -> if p <= 0.0 then Alcotest.failf "non-positive price %f" p) s.Price_model.daily;
  (* mean reversion keeps the series within a plausible band of the base *)
  Array.iter
    (fun p ->
      if p < 100.0 /. 3.0 || p > 300.0 then Alcotest.failf "price %f strayed from base 100" p)
    s.Price_model.daily

let test_amazon_series_fluctuates () =
  let rng = Rng.create 4 in
  let s = Price_model.amazon_series ~base:50.0 ~days:62 rng in
  let distinct = List.sort_uniq compare (Array.to_list s.Price_model.daily) in
  Alcotest.(check bool) "prices change over time" true (List.length distinct > 30)

let test_window () =
  let rng = Rng.create 5 in
  let s = Price_model.amazon_series ~base:10.0 ~days:20 rng in
  let w = Price_model.window s ~start:3 ~len:7 in
  Alcotest.(check int) "window length" 7 (Array.length w);
  check_float "window content" s.Price_model.daily.(3) w.(0);
  Alcotest.check_raises "window bounds" (Invalid_argument "Price_model.window: out of range")
    (fun () -> ignore (Price_model.window s ~start:15 ~len:7))

let test_reported_prices () =
  let rng = Rng.create 6 in
  let ps = Price_model.reported_prices ~base:30.0 ~count:40 rng in
  Alcotest.(check int) "count" 40 (Array.length ps);
  Array.iter (fun p -> if p <= 0.0 then Alcotest.fail "non-positive report") ps;
  let mean = Revmax_prelude.Util.mean ps in
  Alcotest.(check bool) "centred near base" true (mean > 20.0 && mean < 45.0)

let test_uniform_series_support () =
  let rng = Rng.create 7 in
  let s = Price_model.uniform_series ~x:10.0 ~days:100 rng in
  Array.iter
    (fun p -> if p < 10.0 || p > 20.0 then Alcotest.failf "price %f outside [x, 2x]" p)
    s.Price_model.daily

(* ----- Valuation link ----- *)

let test_adoption_probability_anti_monotone () =
  let valuation = Distribution.Gaussian { mean = 50.0; sigma = 10.0 } in
  let q p = Valuation.adoption_probability ~valuation ~rating:4.0 ~r_max:5.0 ~price:p in
  Alcotest.(check bool) "q(40) > q(60)" true (q 40.0 > q 60.0);
  Alcotest.(check bool) "q in [0,1]" true (q 40.0 <= 1.0 && q 90.0 >= 0.0);
  check_float ~eps:1e-6 "at the mean price: sf = 1/2, scaled by rating" (0.5 *. 0.8) (q 50.0)

let test_adoption_probability_rating_scaling () =
  let valuation = Distribution.Uniform { lo = 0.0; hi = 100.0 } in
  let q r = Valuation.adoption_probability ~valuation ~rating:r ~r_max:5.0 ~price:50.0 in
  check_float "zero rating" 0.0 (q 0.0);
  check_float ~eps:1e-9 "full rating" 0.5 (q 5.0);
  check_float ~eps:1e-9 "rating clamped" 0.5 (q 9.0)

(* ----- Ratings generator ----- *)

let test_ratings_gen_shape () =
  let rng = Rng.create 8 in
  let r = Ratings_gen.generate ~num_users:200 ~num_items:50 rng in
  Alcotest.(check int) "users" 200 (Ratings.num_users r);
  Alcotest.(check int) "items" 50 (Ratings.num_items r);
  Alcotest.(check bool) "every user rated something" true
    (Array.for_all
       (fun u -> Array.length (Ratings.by_user r u) >= 1)
       (Array.init 200 (fun u -> u)));
  let lo, hi = Ratings.value_range r in
  Alcotest.(check bool) "range" true (lo >= 1.0 && hi <= 5.0)

let test_ratings_gen_no_duplicates () =
  let rng = Rng.create 9 in
  let r = Ratings_gen.generate ~num_users:50 ~num_items:30 rng in
  for u = 0 to 49 do
    let items = Array.map (fun (o : Ratings.observation) -> o.item) (Ratings.by_user r u) in
    let uniq = List.sort_uniq compare (Array.to_list items) in
    Alcotest.(check int)
      (Printf.sprintf "user %d no duplicates" u)
      (Array.length items) (List.length uniq)
  done

let test_ratings_gen_popularity_skew () =
  let rng = Rng.create 10 in
  let r =
    Ratings_gen.generate
      ~config:{ Ratings_gen.default_config with ratings_per_user = 10.0; popularity_exponent = 1.2 }
      ~num_users:500 ~num_items:100 rng
  in
  let counts = Array.make 100 0 in
  Array.iter (fun (o : Ratings.observation) -> counts.(o.item) <- counts.(o.item) + 1)
    (Ratings.observations r);
  let sorted = Array.copy counts in
  Array.sort compare sorted;
  Alcotest.(check bool) "most popular far above median" true
    (sorted.(99) > 3 * max 1 sorted.(50))

(* ----- Pipeline.instantiate ----- *)

let tiny_prepared () =
  Amazon_like.prepare
    ~scale:
      {
        Amazon_like.num_users = 40;
        num_items = 30;
        num_classes = 6;
        top_n = 10;
        horizon = 5;
        crawl_days = 20;
        ratings_per_user = 8.0;
      }
    ~seed:11 ()

let test_instantiate_basic () =
  let prepared = tiny_prepared () in
  let inst =
    Pipeline.instantiate ~capacity:(Pipeline.Cap_fixed 7) ~beta:(Pipeline.Beta_fixed 0.5) ~seed:1
      prepared
  in
  Alcotest.(check int) "users" 40 (Instance.num_users inst);
  Alcotest.(check int) "items" 30 (Instance.num_items inst);
  Alcotest.(check int) "horizon" 5 (Instance.horizon inst);
  Alcotest.(check int) "default display limit" 5 (Instance.display_limit inst);
  for i = 0 to 29 do
    Alcotest.(check int) "fixed capacity" 7 (Instance.capacity inst i);
    check_float "fixed beta" 0.5 (Instance.saturation inst i)
  done

let test_instantiate_singleton_classes () =
  let prepared = tiny_prepared () in
  let inst =
    Pipeline.instantiate ~singleton_classes:true ~capacity:(Pipeline.Cap_fixed 3)
      ~beta:Pipeline.Beta_uniform ~seed:2 prepared
  in
  Alcotest.(check int) "one class per item" 30 (Instance.num_classes inst);
  for i = 0 to 29 do
    Alcotest.(check int) "class size 1" 1 (Instance.class_size inst (Instance.class_of inst i))
  done

let test_instantiate_capacity_specs () =
  let prepared = tiny_prepared () in
  List.iter
    (fun spec ->
      let inst = Pipeline.instantiate ~capacity:spec ~beta:Pipeline.Beta_uniform ~seed:3 prepared in
      for i = 0 to Instance.num_items inst - 1 do
        if Instance.capacity inst i < 1 then Alcotest.fail "capacity below 1"
      done)
    [
      Pipeline.Cap_gaussian { mean = 10.0; sigma = 3.0 };
      Pipeline.Cap_exponential { mean = 10.0 };
      Pipeline.Cap_power { alpha = 2.0; x_min = 4.0 };
      Pipeline.Cap_uniform { lo = 2; hi = 9 };
    ]

let test_instantiate_deterministic () =
  let prepared = tiny_prepared () in
  let mk () =
    Pipeline.instantiate
      ~capacity:(Pipeline.Cap_gaussian { mean = 8.0; sigma = 2.0 })
      ~beta:Pipeline.Beta_uniform ~seed:7 prepared
  in
  let a = mk () and b = mk () in
  for i = 0 to Instance.num_items a - 1 do
    Alcotest.(check int) "same capacities" (Instance.capacity a i) (Instance.capacity b i);
    check_float "same betas" (Instance.saturation a i) (Instance.saturation b i)
  done

(* ----- Dataset builders ----- *)

let test_amazon_like_prepared () =
  let p = tiny_prepared () in
  Alcotest.(check string) "name" "Amazon" p.Pipeline.name;
  Alcotest.(check int) "price rows" 30 (Array.length p.Pipeline.price);
  Array.iter
    (fun row -> Alcotest.(check int) "price row length" 5 (Array.length row))
    p.Pipeline.price;
  (* candidates: 10 per user *)
  Alcotest.(check int) "candidate rows" (40 * 10) (List.length p.Pipeline.adoption);
  List.iter
    (fun (_, _, qs) ->
      Array.iter (fun q -> if q < 0.0 || q > 1.0 then Alcotest.fail "q outside [0,1]") qs)
    p.Pipeline.adoption;
  Alcotest.(check int) "stats row has 9 cells" 9 (List.length (Pipeline.stats_row p))

let test_amazon_like_q_anti_monotone_in_price () =
  (* same (u,i): the time step with the lower price cannot have a lower q *)
  let p = tiny_prepared () in
  List.iter
    (fun (_u, i, qs) ->
      let prices = p.Pipeline.price.(i) in
      Array.iteri
        (fun t1 q1 ->
          Array.iteri
            (fun t2 q2 ->
              if prices.(t1) < prices.(t2) -. 1e-9 && q1 < q2 -. 1e-9 then
                Alcotest.failf "q not anti-monotone: p %.3f<%.3f but q %.5f<%.5f" prices.(t1)
                  prices.(t2) q1 q2)
            qs)
        qs)
    (Revmax_prelude.Util.take 50 p.Pipeline.adoption)

let test_epinions_like_prepared () =
  let p =
    Epinions_like.prepare
      ~scale:
        {
          Epinions_like.num_users = 40;
          num_items = 25;
          num_classes = 8;
          top_n = 10;
          horizon = 5;
          reports_min = 10;
          reports_max = 20;
          ratings_per_user = 1.6;
        }
      ~seed:12 ()
  in
  Alcotest.(check string) "name" "Epinions" p.Pipeline.name;
  Array.iter
    (fun row -> Array.iter (fun price -> if price < 1.0 then Alcotest.fail "price floor") row)
    p.Pipeline.price;
  (* ultra sparse: ratings per user stays small *)
  Alcotest.(check bool) "sparse" true (Ratings.num_ratings p.Pipeline.source_ratings < 40 * 6)

(* ----- Scalability dataset ----- *)

let small_scal_config =
  {
    Scalability.default_config with
    Scalability.num_users = 50;
    num_items = 100;
    num_classes = 10;
    items_per_user = 20;
    horizon = 5;
  }

let test_scalability_shape () =
  let inst = Scalability.generate small_scal_config ~seed:13 in
  Alcotest.(check int) "users" 50 (Instance.num_users inst);
  Alcotest.(check int) "items" 100 (Instance.num_items inst);
  Alcotest.(check int) "horizon" 5 (Instance.horizon inst);
  let expected_max = 50 * 20 * 5 in
  let triples = Instance.num_candidate_triples inst in
  Alcotest.(check bool) "close to 100·T·|U| candidates" true
    (triples <= expected_max && triples > expected_max / 2)

let test_scalability_prices_in_band () =
  let inst = Scalability.generate small_scal_config ~seed:14 in
  for i = 0 to 99 do
    let p1 = Instance.price inst ~i ~time:1 in
    for t = 1 to 5 do
      let p = Instance.price inst ~i ~time:t in
      if p < 10.0 || p > 1000.0 then Alcotest.failf "price %f outside global band" p;
      (* all prices of an item lie within a factor 2 of each other *)
      if p > (2.0 *. p1) +. 1e-6 || p1 > (2.0 *. p) +. 1e-6 then Alcotest.fail "band violated"
    done
  done

let test_scalability_anti_monotone_matching () =
  let inst = Scalability.generate small_scal_config ~seed:15 in
  (* per §6: probabilities are matched to prices anti-monotonically *)
  for u = 0 to 4 do
    Array.iter
      (fun (i, qs) ->
        Array.iteri
          (fun t1 q1 ->
            Array.iteri
              (fun t2 q2 ->
                let p1 = Instance.price inst ~i ~time:(t1 + 1) in
                let p2 = Instance.price inst ~i ~time:(t2 + 1) in
                if p1 < p2 -. 1e-9 && q1 < q2 -. 1e-9 then
                  Alcotest.fail "anti-monotone matching violated")
              qs)
          qs)
      (Instance.candidates inst u)
  done

let test_scalability_with_users_rescales () =
  let c = Scalability.with_users small_scal_config 500 in
  Alcotest.(check int) "users updated" 500 c.Scalability.num_users;
  match c.Scalability.capacity with
  | Pipeline.Cap_gaussian { mean; _ } -> Alcotest.(check bool) "capacity rescaled" true (mean > 50.0)
  | _ -> Alcotest.fail "expected Gaussian capacity"

let test_scalability_variant_knobs_draw_invariant () =
  (* with_slate / with_quantity_fraction attach after every RNG draw, so
     the variant instance shares each sampled value with the plain one,
     and the streaming pack writer carries the knobs in its header *)
  let mult = [| 1.0; 0.8; 0.6; 0.4; 0.2 |] in
  let c =
    Scalability.with_quantity_fraction (Scalability.with_slate small_scal_config mult) 0.25
  in
  let plain = Scalability.generate small_scal_config ~seed:16 in
  let variant = Scalability.generate c ~seed:16 in
  (* 0.25 · 50·5·5 = 312.5, Float.round half-away-from-zero *)
  Alcotest.(check (option int)) "cap = round(frac · |U|·T·k)" (Some 313)
    (Instance.max_total variant);
  (match Instance.slot_multipliers variant with
  | Some m when m = mult -> ()
  | _ -> Alcotest.fail "slate multipliers not attached");
  Alcotest.(check int) "same candidate count" (Instance.num_candidate_triples plain)
    (Instance.num_candidate_triples variant);
  for i = 0 to 99 do
    if Instance.saturation plain i <> Instance.saturation variant i then
      Alcotest.failf "saturation %d drifted under the knobs" i
  done;
  let path = Filename.temp_file "revmax-datagen" ".pack" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Scalability.generate_pack c ~seed:16 ~path;
      let mapped = Instance.of_mmap path in
      Alcotest.(check (option int)) "pack carries the cap" (Instance.max_total variant)
        (Instance.max_total mapped);
      (match Instance.slot_multipliers mapped with
      | Some m when m = mult -> ()
      | _ -> Alcotest.fail "pack dropped the slate multipliers");
      Alcotest.(check int) "pack carries the same candidates"
        (Instance.num_candidate_triples variant)
        (Instance.num_candidate_triples mapped));
  match Scalability.with_quantity_fraction small_scal_config 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fraction above 1 should be rejected"

(* The generator's output, byte for byte: a change to how it computes the
   rows it draws must leave the pack's digest where it was. *)
let test_generate_pack_digest () =
  let c =
    Scalability.with_users
      {
        Scalability.default_config with
        num_items = 60;
        num_classes = 6;
        items_per_user = 8;
        horizon = 4;
        display_limit = 3;
      }
      50
  in
  let path = Filename.temp_file "revmax-datagen" ".pack" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Scalability.generate_pack c ~seed:2014 ~path;
      Alcotest.(check string) "pack digest" "ac596c8e17e3478f26873aec42c938f3"
        (Digest.to_hex (Digest.file path)))

(* The most the major heap grew above its size at the start of [f]:
   sampled at the end of every major cycle and once more on return. *)
let major_heap_growth f =
  Gc.full_major ();
  let heap () = (Gc.quick_stat ()).Gc.heap_words in
  let base = heap () in
  let peak = ref base in
  let alarm = Gc.create_alarm (fun () -> peak := max !peak (heap ())) in
  Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f;
  max !peak (heap ()) - base

let with_temp_pack f =
  let path = Filename.temp_file "revmax-datagen" ".pack" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* The pack writer streams every per-pair section to disk: ten times the
   users, with the items unchanged, must not grow the major heap by half a
   word per added pair (buffering the pairs' item ids and ratings grew it
   by about four).
   Native only: a statement about the native writer's heap. *)
let test_pack_writer_heap_is_flat_in_pairs () =
  if Sys.backend_type = Sys.Native then begin
    let config users =
      Scalability.with_users
        {
          Scalability.default_config with
          num_items = 200;
          num_classes = 20;
          items_per_user = 10;
          horizon = 4;
          display_limit = 3;
        }
        users
    in
    let growth users =
      with_temp_pack (fun path ->
          major_heap_growth (fun () -> Scalability.generate_pack (config users) ~seed:5 ~path))
    in
    let small = growth 2_000 and large = growth 20_000 in
    let per_pair = float_of_int (large - small) /. float_of_int (10 * (20_000 - 2_000)) in
    if per_pair > 0.5 then
      Alcotest.failf "the writer's heap grew %d words at 2,000 users and %d at 20,000: %.2f per added pair"
        small large per_pair
  end

(* Ratings given through the writer read back from the pack as given: the
   pairs before the first rating are absent, ratings that are all absent
   add no ratings section, and no scratch file outlives [finish]. *)
let test_pack_writer_ratings () =
  let rows =
    [|
      [| (0, [| 0.5; 0.0 |]); (2, [| 0.1; 0.2 |]) |];
      [| (1, [| 0.3; 0.3 |]) |];
      [| (0, [| 0.0; 0.4 |]); (1, [| 0.2; 0.0 |]); (2, [| 0.7; 0.1 |]) |];
    |]
  in
  let ratings = [| [| None; None |]; [| None |]; [| Some 4.5; None; Some 2.0 |] |] in
  let write path ratings =
    let w =
      Instance.Pack.create_writer ~path ~num_users:3 ~num_items:3 ~horizon:2 ~display_limit:2
        ~class_of:[| 0; 0; 1 |] ~capacity:[| 2; 2; 2 |] ~saturation:[| 0.5; 0.5; 0.5 |]
        ~price:[| [| 1.0; 2.0 |]; [| 3.0; 1.0 |]; [| 2.0; 2.0 |] |]
        ()
    in
    Array.iteri (fun u row -> Instance.Pack.add_user w ~u ?ratings:(ratings u) row) rows;
    Instance.Pack.finish w
  in
  with_temp_pack (fun path ->
      write path (fun u -> Some ratings.(u));
      let inst = Instance.of_mmap path in
      Array.iteri
        (fun u row ->
          Array.iteri
            (fun k (i, _) ->
              Alcotest.(check (option (float 0.0)))
                (Printf.sprintf "rating (%d, %d)" u i)
                ratings.(u).(k) (Instance.rating inst ~u ~i))
            row)
        rows);
  let digest ratings = with_temp_pack (fun path -> write path ratings; Digest.file path) in
  Alcotest.(check string) "all-absent ratings write no section"
    (Digest.to_hex (digest (fun _ -> None)))
    (Digest.to_hex (digest (fun u -> Some (Array.map (fun _ -> None) rows.(u)))));
  with_temp_pack (fun path ->
      write path (fun u -> Some ratings.(u));
      Alcotest.(check bool) "scratch files removed" false
        (Sys.file_exists (path ^ ".items") || Sys.file_exists (path ^ ".ratings")))

let test_table1_row_shape () =
  let row = Scalability.table1_row small_scal_config ~seed:16 in
  Alcotest.(check int) "9 cells" 9 (List.length row);
  Alcotest.(check string) "label" "Synthetic" (List.hd row)

let () =
  Alcotest.run "datagen"
    [
      ( "catalog",
        [
          Alcotest.test_case "zipf skew" `Quick test_zipf_classes_dense_and_skewed;
          Alcotest.test_case "uniform balance" `Quick test_uniform_classes_balanced;
          Alcotest.test_case "singleton" `Quick test_singleton_classes;
          Alcotest.test_case "validation" `Quick test_catalog_validation;
        ] );
      ( "price_model",
        [
          Alcotest.test_case "amazon shape" `Quick test_amazon_series_shape;
          Alcotest.test_case "amazon fluctuates" `Quick test_amazon_series_fluctuates;
          Alcotest.test_case "window" `Quick test_window;
          Alcotest.test_case "reported prices" `Quick test_reported_prices;
          Alcotest.test_case "uniform support" `Quick test_uniform_series_support;
        ] );
      ( "valuation",
        [
          Alcotest.test_case "anti-monotone in price" `Quick test_adoption_probability_anti_monotone;
          Alcotest.test_case "rating scaling" `Quick test_adoption_probability_rating_scaling;
        ] );
      ( "ratings_gen",
        [
          Alcotest.test_case "shape" `Quick test_ratings_gen_shape;
          Alcotest.test_case "no duplicates" `Quick test_ratings_gen_no_duplicates;
          Alcotest.test_case "popularity skew" `Quick test_ratings_gen_popularity_skew;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "instantiate basics" `Slow test_instantiate_basic;
          Alcotest.test_case "singleton classes" `Slow test_instantiate_singleton_classes;
          Alcotest.test_case "capacity specs" `Slow test_instantiate_capacity_specs;
          Alcotest.test_case "deterministic" `Slow test_instantiate_deterministic;
        ] );
      ( "datasets",
        [
          Alcotest.test_case "amazon-like prepared" `Slow test_amazon_like_prepared;
          Alcotest.test_case "amazon-like anti-monotone" `Slow test_amazon_like_q_anti_monotone_in_price;
          Alcotest.test_case "epinions-like prepared" `Slow test_epinions_like_prepared;
        ] );
      ( "scalability",
        [
          Alcotest.test_case "shape" `Quick test_scalability_shape;
          Alcotest.test_case "prices in band" `Quick test_scalability_prices_in_band;
          Alcotest.test_case "anti-monotone matching" `Quick test_scalability_anti_monotone_matching;
          Alcotest.test_case "with_users rescale" `Quick test_scalability_with_users_rescales;
          Alcotest.test_case "variant knobs are draw-invariant and pack" `Quick
            test_scalability_variant_knobs_draw_invariant;
          Alcotest.test_case "generate_pack bytes are pinned" `Quick test_generate_pack_digest;
          Alcotest.test_case "pack writer heap does not grow with pairs" `Quick
            test_pack_writer_heap_is_flat_in_pairs;
          Alcotest.test_case "pack writer ratings round trip" `Quick test_pack_writer_ratings;
          Alcotest.test_case "table1 row" `Quick test_table1_row_shape;
        ] );
    ]
