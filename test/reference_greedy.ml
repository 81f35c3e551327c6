(* A reference G-Greedy for the test suites: the lazy-forward rule Greedy
   documents (Algorithm 1 of §5.1), written directly over the naive oracle
   Revenue.marginal with a linear-scan argmax and no mirrors. Greedy.run
   must select the same triples in the same slots in the same order, with
   the same evaluation and pop counts. The rule:
   - one entry per candidate (u, i, t, slot) with a positive slot-scaled
     probability q̃, in ascending (u, i, t, slot) order;
   - the root is the live entry of largest key, ties to the smaller entry;
   - each entry stamps the length of its (user, class) chain when its key
     was computed; on an empty chain the initial key is the closed form
     p·q̃, not counted as an evaluation;
   - an infeasible root is dropped for good, checked before the stamp;
   - a stale root re-evaluates every live entry of its (user, item) pair;
   - a fresh root with key ≤ 0 ends the run, any other is selected, and
     the selected triple's entries for its other slots retire;
   - the quantity cap and the budget are checked between selections.
   [~eager:true] re-evaluates every stale entry after each selection, so
   every selected key is current. A marginal can rise as its chain grows
   (DESIGN.md §5a): a stale key may under-estimate, and lazy and eager
   runs may select differently. *)

module Budget = Revmax_prelude.Budget
module Instance = Revmax.Instance
module Triple = Revmax.Triple
module Strategy = Revmax.Strategy
module Revenue = Revmax.Revenue

type entry = {
  z : Triple.t;
  slot : int;
  q : float;  (** slot-scaled adoption probability q̃ *)
  mutable key : float;
  mutable stamp : int;
  mutable live : bool;
}

type result = {
  strategy : Strategy.t;
  picks : Triple.t list;  (** in selection order *)
  evaluations : int;
  pops : int;
  truncated : bool;
}

let run ?(with_saturation = true) ?(eager = false) ?(allowed = fun _ -> true) ?base ?budget inst =
  let s = match base with Some b -> Strategy.copy b | None -> Strategy.create inst in
  let slate = Instance.is_slate inst in
  let mult = match Instance.slot_multipliers inst with Some m -> m | None -> [| 1.0 |] in
  let evals = ref 0 and pops = ref 0 and picks = ref [] and truncated = ref false in
  let chain_length (z : Triple.t) =
    Strategy.chain_size s ~u:z.u ~cls:(Instance.class_of inst z.i)
  in
  let marginal e =
    incr evals;
    Option.iter (fun b -> Budget.spend b 1) budget;
    if not slate then Revenue.marginal ~with_saturation s e.z
    else begin
      (* members carry their assigned slots' q̃, the candidate its own *)
      let q_of z' = if Triple.equal z' e.z then e.q else Strategy.effective_q s z' in
      let chain = Strategy.chain_of_triple s e.z in
      Revenue.chain_revenue ~with_saturation ~q_of inst (Triple.chain_insert chain e.z)
      -. Revenue.chain_revenue ~with_saturation ~q_of inst chain
    end
  in
  let refresh e =
    e.stamp <- chain_length e.z;
    e.key <- marginal e
  in
  let entries = ref [] in
  for u = 0 to Instance.num_users inst - 1 do
    for i = 0 to Instance.num_items inst - 1 do
      for t = 1 to Instance.horizon inst do
        let z = Triple.make ~u ~i ~t in
        let q = Instance.q inst ~u ~i ~time:t in
        if q > 0.0 && allowed z && not (Strategy.mem s z) then
          Array.iteri
            (fun k m ->
              let e = { z; slot = k + 1; q = m *. q; key = 0.0; stamp = 0; live = true } in
              if e.q > 0.0 then begin
                if chain_length z = 0 then e.key <- Instance.price inst ~i ~time:t *. e.q
                else refresh e;
                entries := e :: !entries
              end)
            mult
      done
    done
  done;
  let entries = List.rev !entries in
  let root () =
    List.fold_left
      (fun best e ->
        match best with
        | _ when not e.live -> best
        | Some b when b.key >= e.key -> best
        | _ -> Some e)
      None entries
  in
  let feasible e = Strategy.can_add s e.z && not (Strategy.slot_occupied s e.z ~slot:e.slot) in
  let out_of_budget () =
    match budget with
    | Some b when !picks <> [] && Budget.exhausted b ->
        truncated := true;
        true
    | _ -> false
  in
  let rec loop () =
    if Strategy.size s < Instance.max_total_cap inst && not (out_of_budget ()) then
      match root () with
      | None -> ()
      | Some e ->
          incr pops;
          if not (feasible e) then begin
            e.live <- false;
            loop ()
          end
          else if e.stamp < chain_length e.z then begin
            List.iter
              (fun (e' : entry) ->
                if e'.live && e'.z.u = e.z.u && e'.z.i = e.z.i then refresh e')
              entries;
            loop ()
          end
          else if e.key > 0.0 then begin
            (* a triple occupies one slot: its other slots' entries retire *)
            List.iter (fun (e' : entry) -> if Triple.equal e'.z e.z then e'.live <- false) entries;
            if slate then Strategy.add ~slot:e.slot s e.z else Strategy.add s e.z;
            picks := e.z :: !picks;
            Option.iter (fun b -> Budget.spend b 1) budget;
            if eager then
              List.iter
                (fun (e' : entry) -> if e'.live && e'.stamp < chain_length e'.z then refresh e')
                entries;
            loop ()
          end
  in
  loop ();
  {
    strategy = s;
    picks = List.rev !picks;
    evaluations = !evals;
    pops = !pops;
    truncated = !truncated;
  }
