(* The long-chain instance of the greedy throughput cells: 40 items in 2
   classes, T = 15, k = 5, each (user, item) pair a candidate with
   probability 0.8, q ~ U[0.02, 0.10], β ~ U[0.7, 1], prices ~ U[1, 10] and
   every capacity equal to the user count. The draws follow the order of
   the experiment harness's generator (candidate rows, then prices, then
   saturation factors), so at 400 users and seed 20140901 this is the
   instance of BENCH_greedy_soa.json's large cell. *)

module Rng = Revmax_prelude.Rng

type draws = {
  users : int;
  adoption : (int * int * float array) list;
  price : float array array;
  saturation : float array;
}

let items = 40
let classes = 2
let horizon = 15
let k = 5

let draw ~seed ~users =
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
  { users; adoption = !adoption; price; saturation }

let build d =
  Revmax.Instance.create ~num_users:d.users ~num_items:items ~horizon ~display_limit:k
    ~class_of:(Array.init items (fun i -> i mod classes))
    ~capacity:(Array.make items d.users) ~saturation:d.saturation ~price:d.price
    ~adoption:d.adoption ()

let generate ~seed ~users = build (draw ~seed ~users)
