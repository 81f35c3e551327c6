module Util = Revmax_prelude.Util
module Pb = Revmax_stats.Poisson_binomial

let other_recipients s (z : Triple.t) =
  let per_user = Strategy.item_recommendations_up_to s ~i:z.i ~time:z.t in
  Hashtbl.remove per_user z.u;
  per_user

let adopter_probabilities s (z : Triple.t) =
  let per_user = other_recipients s z in
  let probs = ref [] in
  Hashtbl.iter
    (fun _v triples ->
      let p =
        List.fold_left (fun acc zt -> acc +. Revenue.dynamic_probability_in s zt) 0.0 triples
      in
      probs := Util.clamp_prob p :: !probs)
    per_user;
  Array.of_list !probs

let prob_capacity_free s (z : Triple.t) =
  let inst = Strategy.instance s in
  let cap = Instance.capacity inst z.i in
  let ps = adopter_probabilities s z in
  if Array.length ps < cap then 1.0 else Pb.at_most ps (cap - 1)

let prob_capacity_free_mc s (z : Triple.t) ~samples rng =
  if samples <= 0 then invalid_arg "Capacity_oracle.prob_capacity_free_mc: samples must be positive";
  let inst = Strategy.instance s in
  let cap = Instance.capacity inst z.i in
  let per_user = other_recipients s z in
  let users = Hashtbl.fold (fun v _ acc -> v :: acc) per_user [] in
  if List.length users < cap then 1.0
  else begin
    let hits = ref 0 in
    for _ = 1 to samples do
      let adopters = ref 0 in
      List.iter
        (fun v ->
          match Strategy.chain_view s ~u:v ~cls:(Instance.class_of inst z.i) with
          | None -> ()
          | Some c -> (
              match Simulate.simulate_chain s c rng with
              | Some (a : Triple.t) when a.i = z.i && a.t <= z.t -> incr adopters
              | Some _ | None -> ()))
        users;
      if !adopters <= cap - 1 then incr hits
    done;
    float_of_int !hits /. float_of_int samples
  end
