module Budget = Revmax_prelude.Budget

type anytime_result = {
  strategy : Strategy.t;
  value : float;
  nodes : int;  (** search-tree nodes expanded *)
  truncated : bool;
}

let brute_force_anytime ?(max_ground = 18) ?budget inst =
  let ground = ref [] in
  Instance.iter_candidate_triples inst (fun z _ -> ground := z :: !ground);
  let ground = Array.of_list !ground in
  if Array.length ground > max_ground then
    invalid_arg
      (Printf.sprintf "Exact.brute_force: %d candidate triples exceed the limit of %d"
         (Array.length ground) max_ground);
  let s = Strategy.create inst in
  let best = ref [] and best_value = ref 0.0 in
  let nodes = ref 0 in
  let truncated = ref false in
  let out_of_budget () =
    match budget with
    | Some b when !nodes > 1 && Budget.exhausted b ->
        truncated := true;
        true
    | _ -> false
  in
  (* depth-first over include/exclude decisions; [acc] is Rev of current S,
     maintained incrementally through marginals on plain instances and
     read from [Revenue.total] after each slate add, so a slate incumbent's
     value is exactly [Revenue.total] of its strategy. An exhausted budget
     prunes the remaining subtree; the incumbent is always a valid
     strategy. *)
  let rec go idx acc =
    incr nodes;
    if acc > !best_value then begin
      best_value := acc;
      (* remember slot assignments with the incumbent: on slate instances
         the DFS's auto-assigned slots depend on insertion order, and the
         accumulated value was computed at those slots *)
      best := List.map (fun z -> (z, Strategy.slot_of s z)) (Strategy.to_list s)
    end;
    if idx < Array.length ground && not (out_of_budget ()) then begin
      let z = ground.(idx) in
      (* exclude *)
      go (idx + 1) acc;
      (* include, if valid *)
      if Strategy.can_add s z && not (out_of_budget ()) then begin
        if not (Instance.is_slate inst) then begin
          let gain = Revenue.marginal_incremental s z in
          (match budget with Some b -> Budget.spend b 1 | None -> ());
          Strategy.add s z;
          go (idx + 1) (acc +. gain);
          Strategy.remove s z
        end
        else
          (* slate: the slot a triple takes scales its effective
             probability and its competition on display mates, so the
             optimum must branch over every free slot of the display, not
             just the canonical lowest one *)
          for slot = 1 to Instance.display_limit inst do
            if (not (Strategy.slot_occupied s z ~slot)) && not (out_of_budget ()) then begin
              (match budget with Some b -> Budget.spend b 1 | None -> ());
              Strategy.add ~slot s z;
              go (idx + 1) (Revenue.total s);
              Strategy.remove s z
            end
          done
      end
    end
  in
  go 0 0.0;
  let winner = Strategy.create inst in
  List.iter (fun (z, slot) -> Strategy.add ?slot winner z) !best;
  { strategy = winner; value = !best_value; nodes = !nodes; truncated = !truncated }

let brute_force ?max_ground ?budget inst =
  let r = brute_force_anytime ?max_ground ?budget inst in
  (r.strategy, r.value)

let solve_t1 inst =
  if Instance.horizon inst <> 1 then invalid_arg "Exact.solve_t1: horizon must be 1";
  let edges = ref [] in
  Instance.iter_candidate_triples inst (fun z q ->
      let w = Instance.price inst ~i:z.i ~time:1 *. q in
      edges := (z.u, z.i, w) :: !edges);
  let dcs =
    Revmax_flow.Max_dcs.solve
      {
        left = Instance.num_users inst;
        right = Instance.num_items inst;
        left_bound = Array.make (Instance.num_users inst) (Instance.display_limit inst);
        right_bound = Array.init (Instance.num_items inst) (Instance.capacity inst);
        edges = Array.of_list !edges;
      }
  in
  let s = Strategy.create inst in
  Array.iter (fun (u, i, _w) -> Strategy.add s (Triple.make ~u ~i ~t:1)) dcs.chosen;
  (s, dcs.weight)
