(* Shared builders for the REVMAX test suites. *)

module Rng = Revmax_prelude.Rng
module Instance = Revmax.Instance
module Triple = Revmax.Triple
module Strategy = Revmax.Strategy

let float_eq ?(eps = 1e-9) a b = Revmax_prelude.Util.float_equal ~eps a b

let check_float ?(eps = 1e-9) msg expected actual =
  if not (float_eq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* The single-user single-item instance of Example 4 / the non-monotonicity
   proof of Theorem 2. *)
let example4_instance () =
  Instance.create ~num_users:1 ~num_items:1 ~horizon:2 ~display_limit:1 ~class_of:[| 0 |]
    ~capacity:[| 2 |] ~saturation:[| 0.1 |]
    ~price:[| [| 1.0; 0.95 |] |]
    ~adoption:[ (0, 0, [| 0.5; 0.6 |]) ]
    ()

(* Example 1: one user, two same-class items, T = 3, all primitive
   probabilities equal to [a]. *)
let example1_instance a =
  Instance.create ~num_users:1 ~num_items:2 ~horizon:3 ~display_limit:1 ~class_of:[| 0; 0 |]
    ~capacity:[| 3; 3 |] ~saturation:[| 0.3; 0.3 |]
    ~price:[| [| 1.0; 1.0; 1.0 |]; [| 1.0; 1.0; 1.0 |] |]
    ~adoption:[ (0, 0, [| a; a; a |]); (0, 1, [| a; a; a |]) ]
    ()

(* A random small instance for property-based tests: dimensions and all
   parameters drawn from the given generator. *)
let random_instance ?(max_users = 3) ?(max_items = 4) ?(max_horizon = 3) ?(max_classes = 2)
    ?(display_limit = 2) rng =
  let num_users = 1 + Rng.int rng max_users in
  let num_items = 1 + Rng.int rng max_items in
  let horizon = 1 + Rng.int rng max_horizon in
  let num_classes = 1 + Rng.int rng (min max_classes num_items) in
  let class_of = Array.init num_items (fun i -> if i < num_classes then i else Rng.int rng num_classes) in
  let capacity = Array.init num_items (fun _ -> 1 + Rng.int rng num_users) in
  let saturation = Array.init num_items (fun _ -> Rng.unit_float rng) in
  let price = Array.init num_items (fun _ -> Array.init horizon (fun _ -> Rng.uniform_in rng 0.5 10.0)) in
  let adoption = ref [] in
  for u = 0 to num_users - 1 do
    for i = 0 to num_items - 1 do
      if Rng.bernoulli rng 0.8 then begin
        let qs = Array.init horizon (fun _ -> if Rng.bernoulli rng 0.85 then Rng.unit_float rng else 0.0) in
        adoption := (u, i, qs) :: !adoption
      end
    done
  done;
  Instance.create ~num_users ~num_items ~horizon ~display_limit ~class_of ~capacity ~saturation
    ~price ~adoption:!adoption ()

(* A random admissible slate position curve: slot 1 carries 1.0, then
   non-increasing into [0,1] (Instance.with_slate's contract). *)
let random_curve rng k =
  let m = Array.make k 1.0 in
  for s = 1 to k - 1 do
    m.(s) <- m.(s - 1) *. Rng.uniform_in rng 0.3 1.0
  done;
  m

(* The two constraint-variant instance families: the plain random instance
   with a random slate curve attached, and with a random (often binding)
   global quantity budget. *)
let random_slate_instance ?max_users ?max_items ?max_horizon rng =
  let inst = random_instance ?max_users ?max_items ?max_horizon rng in
  Instance.with_slate inst (random_curve rng (Instance.display_limit inst))

let random_budgeted_instance ?max_users ?max_items ?max_horizon rng =
  let inst = random_instance ?max_users ?max_items ?max_horizon rng in
  let full = max 1 (Instance.num_candidate_triples inst) in
  Instance.with_max_total inst (1 + Rng.int rng full)

(* Exact key ties are common when probabilities, prices and saturation
   factors come from two-value sets, which the bank needs to pin the tie
   order (larger key first, then smaller entry). *)
let random_tied_instance rng =
  let num_users = 1 + Rng.int rng 3 and num_items = 1 + Rng.int rng 4 in
  let horizon = 1 + Rng.int rng 3 in
  let pick a b = if Rng.bernoulli rng 0.5 then a else b in
  let adoption =
    List.init num_users (fun u ->
        List.init num_items (fun i -> (u, i, Array.init horizon (fun _ -> pick 0.25 0.5))))
  in
  Instance.create ~num_users ~num_items ~horizon ~display_limit:2
    ~class_of:(Array.init num_items (fun i -> i mod 2))
    ~capacity:(Array.init num_items (fun _ -> 1 + Rng.int rng num_users))
    ~saturation:(Array.init num_items (fun _ -> pick 0.5 1.0))
    ~price:(Array.init num_items (fun _ -> Array.init horizon (fun _ -> pick 1.0 2.0)))
    ~adoption:(List.concat adoption) ()

(* All candidate triples of an instance. *)
let candidate_triples inst =
  let acc = ref [] in
  Instance.iter_candidate_triples inst (fun z _ -> acc := z :: !acc);
  List.rev !acc

(* A random valid strategy grown greedily from a random triple order. *)
let random_valid_strategy inst rng =
  let triples = Array.of_list (candidate_triples inst) in
  Rng.shuffle rng triples;
  let s = Strategy.create inst in
  Array.iter (fun z -> if Rng.bernoulli rng 0.5 && Strategy.can_add s z then Strategy.add s z) triples;
  s

let triple u i t = Triple.make ~u ~i ~t
