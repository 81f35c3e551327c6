module Rng = Revmax_prelude.Rng
module Mc = Revmax_stats.Mc
module Metrics = Revmax_prelude.Metrics

(* atomic, so per-world increments from parallel domains are lossless and
   the total is jobs-invariant *)
let c_worlds = Metrics.counter "simulate.worlds"

(* Draw the desire coins of a chain, each with the q its member caches —
   the slot-scaled q̃ on slates, which [Revenue.total] uses too — then
   find the earliest time step whose only desired triple also passes its
   saturation coin. *)
let simulate_chain s c rng =
  let inst = Strategy.instance s and ctx = Strategy.chain_context s in
  let chain = Chain.to_list ctx c in
  let desires = List.mapi (fun j z -> (z, Rng.bernoulli rng (Chain.q ctx c j))) chain in
  (* the adoption candidate is the unique desired triple at the earliest time
     carrying any desire; competition kills simultaneous desires *)
  let earliest =
    List.fold_left
      (fun acc ((z : Triple.t), desired) ->
        if not desired then acc
        else match acc with Some (tm, _) when tm < z.t -> acc | Some (tm, _) when tm = z.t -> Some (tm, None)
                          | _ -> Some (z.t, Some z))
      None desires
  in
  match earliest with
  | None | Some (_, None) -> None
  | Some (_, Some z) ->
      let m = Revenue.memory ~chain ~time:z.t in
      let sat = if m = 0.0 then 1.0 else Instance.saturation inst z.i ** m in
      if Rng.bernoulli rng sat then Some z else None

(* The chains in [Strategy.iter_chains]'s order, the order a fold over
   the sorted member list first met them, collected once: the order
   worlds draw their coins in. A world only reads them. *)
let chains s =
  let acc = ref [] in
  Strategy.iter_chains s (fun c -> acc := c :: !acc);
  Array.of_list (List.rev !acc)

let world_revenue s chains rng =
  Metrics.incr c_worlds;
  let inst = Strategy.instance s in
  let acc = ref 0.0 in
  Array.iter
    (fun c ->
      match simulate_chain s c rng with
      | None -> ()
      | Some z -> acc := !acc +. Instance.price inst ~i:z.i ~time:z.t)
    chains;
  !acc

let revenue_once s rng = world_revenue s (chains s) rng

(* the chain order is computed once and only read by the worlds, so
   worlds can be simulated on parallel domains; per-world streams come
   from Mc's splitting, keeping the estimate bit-identical across jobs. *)
let estimate_revenue ?jobs s ~samples rng =
  let chains = chains s in
  Mc.estimate ?jobs ~samples rng (fun rng -> world_revenue s chains rng)

type sales_report = { revenue : float; adoptions : Triple.t list; stockouts : int }

let run_with_stock s rng =
  let inst = Strategy.instance s in
  (* simulate every chain, collect would-be adoptions, then replay them in
     time order against finite stock *)
  let would_adopt = ref [] in
  Array.iter
    (fun c ->
      match simulate_chain s c rng with
      | None -> ()
      | Some z -> would_adopt := z :: !would_adopt)
    (chains s);
  let arr = Array.of_list !would_adopt in
  Rng.shuffle rng arr (* random order within a time step *);
  let ordered = Array.to_list arr |> List.stable_sort (fun (a : Triple.t) b -> compare a.t b.t) in
  let stock = Hashtbl.create 32 in
  let stock_of i =
    match Hashtbl.find_opt stock i with
    | Some s -> s
    | None ->
        let s = Instance.capacity inst i in
        Hashtbl.replace stock i s;
        s
  in
  let revenue = ref 0.0 and adoptions = ref [] and stockouts = ref 0 in
  List.iter
    (fun (z : Triple.t) ->
      let s = stock_of z.i in
      if s > 0 then begin
        Hashtbl.replace stock z.i (s - 1);
        revenue := !revenue +. Instance.price inst ~i:z.i ~time:z.t;
        adoptions := z :: !adoptions
      end
      else incr stockouts)
    ordered;
  { revenue = !revenue; adoptions = List.rev !adoptions; stockouts = !stockouts }
