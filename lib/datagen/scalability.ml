module Rng = Revmax_prelude.Rng
module Util = Revmax_prelude.Util
module Instance = Revmax.Instance

type config = {
  num_users : int;
  num_items : int;
  num_classes : int;
  items_per_user : int;
  horizon : int;
  capacity : Pipeline.capacity_spec;
  beta : Pipeline.beta_spec;
  display_limit : int;
  slate : float array option;
  max_total : int option;
}

let capacity_for_users n =
  (* the paper uses N(5000, 200–300) for ~21–23K users; keep the ratio *)
  let mean = Float.max 10.0 (0.22 *. float_of_int n) in
  Pipeline.Cap_gaussian { mean; sigma = 0.06 *. mean }

let default_config =
  {
    num_users = 10_000;
    num_items = 20_000;
    num_classes = 500;
    items_per_user = 100;
    horizon = 5;
    capacity = capacity_for_users 10_000;
    beta = Pipeline.Beta_uniform;
    display_limit = 5;
    slate = None;
    max_total = None;
  }

let with_users c n = { c with num_users = n; capacity = capacity_for_users n }

let with_slate c mult = { c with slate = Some mult }

(* quantity-budget tightness knob: the cap as a fraction of the universe's
   display volume |U|·T·k (frac = 1 is the loosest cap that can still
   bind — a strategy can never exceed the display volume anyway) *)
let with_quantity_fraction c frac =
  if frac <= 0.0 || frac > 1.0 then
    invalid_arg "Scalability.with_quantity_fraction: fraction must be in (0, 1]";
  let full = c.num_users * c.horizon * c.display_limit in
  { c with max_total = Some (max 1 (int_of_float (Float.round (frac *. float_of_int full)))) }

(* Item-level draws plus the positioned user-row generator, shared by the
   heap builder and the streaming pack writer. Both consume the RNG in
   exactly the same order, so for one seed they describe the same
   instance — the mmap ≡ heap equivalence gates rely on it. *)
type drawn = {
  class_of : int array;
  price : float array array;
  by_price : int array array;
      (* per item, time indices from most expensive to cheapest; depends on
         the item only, so it is sorted once here, not per (user, item) *)
  level : float array;
  capacity : int array;
  saturation : float array;
  adopt_rng : Rng.t;
}

let draw_items c ~seed =
  let rng = Rng.create seed in
  let class_of =
    Catalog.uniform_classes ~num_items:c.num_items ~num_classes:c.num_classes (Rng.split rng)
  in
  let price_rng = Rng.split rng in
  let price =
    Array.init c.num_items (fun _ ->
        let x = Rng.uniform_in price_rng 10.0 500.0 in
        (Price_model.uniform_series ~x ~days:c.horizon price_rng).daily)
  in
  (* per-item adoption level y_i *)
  let level = Array.init c.num_items (fun _ -> Rng.unit_float rng) in
  let cap_rng = Rng.split rng and beta_rng = Rng.split rng in
  let capacity =
    Array.init c.num_items (fun _ ->
        match c.capacity with
        | Pipeline.Cap_gaussian { mean; sigma } ->
            max 1 (int_of_float (Float.round (Rng.gaussian_mv cap_rng ~mean ~sigma)))
        | Pipeline.Cap_exponential { mean } ->
            max 1 (int_of_float (Float.round (Rng.exponential cap_rng ~rate:(1.0 /. mean))))
        | Pipeline.Cap_power { alpha; x_min } ->
            max 1 (int_of_float (Float.round (Rng.pareto cap_rng ~alpha ~x_min)))
        | Pipeline.Cap_uniform { lo; hi } -> lo + Rng.int cap_rng (hi - lo + 1)
        | Pipeline.Cap_fixed n -> n)
  in
  let saturation =
    Array.init c.num_items (fun _ ->
        match c.beta with
        | Pipeline.Beta_uniform -> Rng.unit_float beta_rng
        | Pipeline.Beta_fixed b -> b)
  in
  let by_price =
    Array.map
      (fun row ->
        let order = Util.with_index row in
        Array.sort (fun (_, p1) (_, p2) -> compare p2 p1) order;
        Array.map fst order)
      price
  in
  let adopt_rng = Rng.split rng in
  { class_of; price; by_price; level; capacity; saturation; adopt_rng }

(* one user's candidate row, in the sample's draw order (the caller sorts
   if it needs item-ascending rows) *)
let user_row c d =
  let items =
    Rng.sample_without_replacement d.adopt_rng c.num_items (min c.items_per_user c.num_items)
  in
  Array.map
    (fun i ->
      (* T probabilities around the item level, anti-monotone in price:
         the largest probability is matched to the cheapest time step *)
      let probs =
        Array.init c.horizon (fun _ ->
            Util.clamp_prob (Rng.gaussian_mv d.adopt_rng ~mean:d.level.(i) ~sigma:(sqrt 0.1)))
      in
      Array.sort compare probs;
      (* probs ascending *)
      let qs = Array.make c.horizon 0.0 in
      Array.iteri (fun pos tidx -> qs.(tidx) <- probs.(pos)) d.by_price.(i);
      (i, qs))
    items

let generate c ~seed =
  let d = draw_items c ~seed in
  let adoption = ref [] in
  for u = 0 to c.num_users - 1 do
    Array.iter (fun (i, qs) -> adoption := (u, i, qs) :: !adoption) (user_row c d)
  done;
  let inst =
    Instance.create ~num_users:c.num_users ~num_items:c.num_items ~horizon:c.horizon
      ~display_limit:c.display_limit ~class_of:d.class_of ~capacity:d.capacity
      ~saturation:d.saturation ~price:d.price ~adoption:!adoption ()
  in
  (* constraint variants attach after every random draw, and the pack
     writer carries the same knobs in its header, so the mmap ≡ heap
     equivalence is knob-invariant *)
  let inst = match c.slate with None -> inst | Some m -> Instance.with_slate inst m in
  match c.max_total with None -> inst | Some cap -> Instance.with_max_total inst cap

let generate_pack c ~seed ~path =
  let d = draw_items c ~seed in
  let w =
    Instance.Pack.create_writer ~path ~num_users:c.num_users ~num_items:c.num_items
      ~horizon:c.horizon ~display_limit:c.display_limit ~class_of:d.class_of ~capacity:d.capacity
      ~saturation:d.saturation ~price:d.price ?slot_mult:c.slate ?max_total:c.max_total ()
  in
  for u = 0 to c.num_users - 1 do
    let row = user_row c d in
    (* the pack stores rows item-ascending (CSR order); the heap builder
       sorts the same rows the same way inside Instance.create *)
    Array.sort (fun (a, _) (b, _) -> compare (a : int) b) row;
    Instance.Pack.add_user w ~u row
  done;
  Instance.Pack.finish w

let table1_row c ~seed =
  let inst = generate c ~seed in
  let sizes = Array.init (Instance.num_classes inst) (Instance.class_size inst) in
  let sorted = Array.copy sizes in
  Array.sort compare sorted;
  let n = Array.length sorted in
  [
    "Synthetic";
    string_of_int c.num_users;
    string_of_int c.num_items;
    "n/a";
    string_of_int (Instance.num_candidate_triples inst);
    string_of_int n;
    string_of_int sorted.(n - 1);
    string_of_int sorted.(0);
    string_of_int sorted.(n / 2);
  ]
