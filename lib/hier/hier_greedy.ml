module Pool = Revmax_prelude.Pool
module Metrics = Revmax_prelude.Metrics
module Err = Revmax_prelude.Err
module Log = Revmax_prelude.Metrics.Log
module Instance = Revmax.Instance
module Strategy = Revmax.Strategy
module Triple = Revmax.Triple
module Greedy = Revmax.Greedy
module Shard_greedy = Revmax.Shard_greedy

let c_runs = Metrics.counter "hier_greedy.runs"

let c_degraded = Metrics.counter "hier_greedy.degraded_runs"

let c_frames = Metrics.counter "hier_greedy.frames_received"

let env_procs () =
  match Sys.getenv_opt "REVMAX_PROCS" with
  | None -> 1
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> n
      | _ -> 1)

let default = ref None

let default_procs () =
  match !default with
  | Some n -> n
  | None ->
      let n = env_procs () in
      default := Some n;
      n

let set_default_procs n = default := Some (max 1 n)

type stats = {
  procs : int;
  shards_per_proc : int;
  policy : Instance.split_policy;
  degraded : bool;
  per_shard_selected : int array;
  marginal_evaluations : int;
  pops : int;
  selected : int;
  reconciliation_rounds : int;
  released_pairs : int;
  replanned : int;
  truncated : bool;
}

(* The OCaml 5.1 runtime refuses [Unix.fork] once any domain has ever been
   spawned in the process (and forking with live sibling domains would hang
   the child); quiesce the pool, then probe with a trivial fork — the same
   latch the checkpointed experiment grid uses. *)
let wait_pid pid =
  let rec go () =
    try ignore (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let can_fork () =
  match Unix.fork () with
  | 0 -> Unix._exit 0
  | pid ->
      wait_pid pid;
      true
  | exception Failure _ -> false

(* ------------------------------------------------------------------ *)
(* Child                                                               *)
(* ------------------------------------------------------------------ *)

(* A child owns the contiguous flat shards [lo, hi) of the parent's
   [procs × spp] grid. It plans them on its own domain pool, streams each
   strategy back shard-ascending, then serves reconciliation queries
   against its (mirror-maintained) shard strategies until shutdown. *)
let child_main ~with_saturation ~jobs ~views ~lo ~hi ~req_r ~resp_w =
  let results =
    Pool.parallel_init ?jobs (hi - lo) ~f:(fun k ->
        Greedy.run ~with_saturation views.(lo + k))
  in
  Array.iteri
    (fun k ((sh : Strategy.t), (st : Greedy.stats)) ->
      let triples = Array.of_list (Strategy.to_list sh) in
      let slots =
        if Instance.is_slate (Strategy.instance sh) then
          Array.map
            (fun z -> match Strategy.slot_of sh z with Some sl -> sl | None -> 1)
            triples
        else [||]
      in
      Wire.send resp_w
        (Wire.Shard_result
           {
             shard = lo + k;
             selected = st.selected;
             evaluations = st.marginal_evaluations;
             pops = st.pops;
             truncated = st.truncated;
             triples;
             slots;
           }))
    results;
  let strategies = Array.map fst results in
  let owner u =
    let rec find k =
      if k >= hi - lo then None
      else
        let ulo, uhi = Instance.user_range views.(lo + k) in
        if u >= ulo && u < uhi then Some strategies.(k) else find (k + 1)
    in
    find 0
  in
  let rec serve () =
    match Wire.recv req_r with
    | Wire.Shutdown -> ()
    | Wire.Reconcile_request items ->
        let lists =
          Array.map
            (fun i ->
              (* this process's holders of item [i], each with the loss of
                 releasing the whole (user, item) pair. The loss is computed
                 against the user's shard-local chain, which — users being
                 partitioned across shards — is the same chain the merged
                 global strategy holds for that user, so the doubles are
                 bit-identical to a parent-side computation. *)
              let ranked = ref [] in
              Array.iter
                (fun s ->
                  let holders =
                    List.sort_uniq compare
                      (List.filter_map
                         (fun (z : Triple.t) -> if z.i = i then Some z.u else None)
                         (Strategy.to_list s))
                  in
                  List.iter
                    (fun u ->
                      ranked :=
                        (Shard_greedy.removal_loss ~with_saturation (Strategy.instance s) s ~u ~i, u)
                        :: !ranked)
                    holders)
                strategies;
              (i, Array.of_list (List.sort compare !ranked)))
            items
        in
        Wire.send resp_w (Wire.Loss_lists lists);
        serve ()
    | Wire.Release { item; users } ->
        Array.iter
          (fun u ->
            match owner u with
            | None -> ()
            | Some s ->
                List.iter
                  (fun (z : Triple.t) -> if z.i = item && z.u = u then Strategy.remove s z)
                  (Strategy.to_list s))
          users;
        serve ()
    | _ -> raise (Wire.Protocol_error "child: unexpected message from parent")
  in
  serve ()

(* ------------------------------------------------------------------ *)
(* Parent                                                              *)
(* ------------------------------------------------------------------ *)

type child = { pid : int; req_w : Unix.file_descr; resp_r : Unix.file_descr }

let recv_from child =
  Metrics.incr c_frames;
  match Wire.recv child.resp_r with
  | Wire.Child_error msg -> failwith ("Hier_greedy: child failed: " ^ msg)
  | m -> m

let solve ?(policy = `Water_filling) ?procs ?shards_per_proc ?jobs ?(with_saturation = true)
    inst =
  let procs = match procs with Some p -> max 1 p | None -> default_procs () in
  let spp = match shards_per_proc with Some s -> max 1 s | None -> 1 in
  let shards = procs * spp in
  Metrics.span "hier_greedy.solve" @@ fun () ->
  Metrics.incr c_runs;
  (* the fallback is not an approximation: the flat plan over procs × spp
     shards is the hierarchical plan's definition of correctness, so
     degrading only loses process-level memory isolation, never changes
     the output *)
  let fallback ~degraded () =
    if degraded then Metrics.incr c_degraded;
    let s, (st : Shard_greedy.stats) =
      Shard_greedy.solve ~policy ~shards ?jobs ~with_saturation inst
    in
    ( s,
      {
        procs;
        shards_per_proc = spp;
        policy;
        degraded;
        per_shard_selected = st.per_shard_selected;
        marginal_evaluations = st.marginal_evaluations;
        pops = st.pops;
        selected = st.selected;
        reconciliation_rounds = st.reconciliation_rounds;
        released_pairs = st.released_pairs;
        replanned = st.replanned;
        truncated = st.truncated;
      } )
  in
  if procs = 1 then fallback ~degraded:false ()
  else begin
    Pool.quiesce ();
    if not (can_fork ()) then begin
      Log.warn
        "[hier] process-level planning unavailable (this OCaml runtime refuses fork once domains \
         were spawned); planning in-process over %d flat shards\n"
        shards;
      fallback ~degraded:true ()
    end
    else begin
      let views = Instance.shard ~policy ~shards inst in
      (* all pipe pairs exist before the first fork so every child can
         close the ends that are not its own *)
      let pipes =
        Array.init procs (fun _ ->
            let req_r, req_w = Unix.pipe ~cloexec:false () in
            let resp_r, resp_w = Unix.pipe ~cloexec:false () in
            (req_r, req_w, resp_r, resp_w))
      in
      let children =
        Array.init procs (fun p ->
            let req_r, _, _, resp_w = pipes.(p) in
            flush stdout;
            flush stderr;
            match Unix.fork () with
            | 0 ->
                let code =
                  try
                    (* close every inherited end that is not ours; ends the
                       parent already closed before this fork are gone from
                       our table, so the closes are best-effort *)
                    let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
                    Array.iteri
                      (fun q (qreq_r, qreq_w, qresp_r, qresp_w) ->
                        close qreq_w;
                        close qresp_r;
                        if q <> p then begin
                          close qreq_r;
                          close qresp_w
                        end)
                      pipes;
                    child_main ~with_saturation ~jobs ~views ~lo:(p * spp)
                      ~hi:((p + 1) * spp) ~req_r ~resp_w;
                    0
                  with e ->
                    (try Wire.send resp_w (Wire.Child_error (Printexc.to_string e))
                     with _ -> ());
                    1
                in
                Unix._exit code
            | pid ->
                let req_r, req_w, resp_r, resp_w = pipes.(p) in
                Unix.close req_r;
                Unix.close resp_w;
                { pid; req_w; resp_r })
      in
      let reap_ok = Array.make procs false in
      let cleanup ~ok =
        Array.iteri
          (fun p c ->
            if not reap_ok.(p) then begin
              if not ok then (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
              (try Unix.close c.req_w with Unix.Unix_error _ -> ());
              (try Unix.close c.resp_r with Unix.Unix_error _ -> ());
              wait_pid c.pid;
              reap_ok.(p) <- true
            end)
          children
      in
      match
        (* streaming merge: child p's frames arrive shard-ascending and
           children are drained in process order, so strategies are added
           in flat shard order — the exact add sequence of the in-process
           [Shard_greedy.solve ~shards:(procs × spp)] merge *)
        let s = Strategy.create inst in
        let per_shard_selected = Array.make shards 0 in
        let evals = ref 0 and pops = ref 0 and truncated = ref false in
        Array.iteri
          (fun p c ->
            for k = 0 to spp - 1 do
              match recv_from c with
              | Wire.Shard_result r ->
                  if r.shard <> (p * spp) + k then
                    raise
                      (Wire.Protocol_error
                         (Printf.sprintf "shard %d arrived where %d was expected" r.shard
                            ((p * spp) + k)));
                  per_shard_selected.(r.shard) <- r.selected;
                  evals := !evals + r.evaluations;
                  pops := !pops + r.pops;
                  truncated := !truncated || r.truncated;
                  if Array.length r.slots = 0 then Array.iter (Strategy.add s) r.triples
                  else Array.iteri (fun j z -> Strategy.add ~slot:r.slots.(j) s z) r.triples
              | _ -> raise (Wire.Protocol_error "parent: expected a shard result")
            done)
          children;
        (* Capacity reconciliation, mirroring Shard_greedy.solve: each round
           walks the over-subscribed items in ascending order, ranks each
           item's holders by removal loss and releases the excess before
           moving to the next item; then all losers re-plan at once against
           the merged strategy. Round 1 obtains the loss values from the
           children — only the over-subscribed items' candidate lists cross
           the process boundary, and [Release] broadcasts keep the
           children's chains synchronized between items. Later rounds are
           unreachable (a re-plan checks the true capacities and cannot
           over-subscribe) but fall back to parent-side loss computation —
           the children's mirrors do not see re-planned additions. *)
        let rounds = ref 0 and released_pairs = ref 0 and replanned = ref 0 in
        let merged = ref s in
        let rec reconcile () =
          let over =
            List.filter_map
              (function Err.Capacity { item; _ } -> Some item | _ -> None)
              (Strategy.violations !merged)
          in
          if over <> [] then begin
            incr rounds;
            let losers = Hashtbl.create 16 in
            List.iter
              (fun i ->
                let cur = !merged in
                let holders =
                  List.sort_uniq compare
                    (List.filter_map
                       (fun (z : Triple.t) -> if z.i = i then Some z.u else None)
                       (Strategy.to_list cur))
                in
                let excess = List.length holders - Instance.capacity inst i in
                let ranked =
                  if !rounds = 1 then begin
                    let parts =
                      Array.map
                        (fun c ->
                          Wire.send c.req_w (Wire.Reconcile_request [| i |]);
                          match recv_from c with
                          | Wire.Loss_lists [| (item, ranked) |] when item = i ->
                              Array.to_list ranked
                          | _ -> raise (Wire.Protocol_error "parent: expected one loss list"))
                        children
                    in
                    List.sort compare (List.concat (Array.to_list parts))
                  end
                  else
                    List.sort compare
                      (List.map
                         (fun u -> (Shard_greedy.removal_loss ~with_saturation inst cur ~u ~i, u))
                         holders)
                in
                let released = ref [] in
                List.iteri
                  (fun rank (_, u) ->
                    if rank < excess then begin
                      List.iter
                        (fun (z : Triple.t) -> if z.i = i && z.u = u then Strategy.remove cur z)
                        (Strategy.to_list cur);
                      Hashtbl.replace losers u ();
                      released := u :: !released;
                      incr released_pairs
                    end)
                  ranked;
                if !rounds = 1 && !released <> [] then begin
                  let users = Array.of_list (List.rev !released) in
                  Array.iter (fun c -> Wire.send c.req_w (Wire.Release { item = i; users })) children
                end)
              over;
            let s', (st : Greedy.stats) =
              Greedy.run ~with_saturation
                ~allowed:(fun z -> Hashtbl.mem losers z.u)
                ~base:!merged inst
            in
            merged := s';
            evals := !evals + st.marginal_evaluations;
            pops := !pops + st.pops;
            replanned := !replanned + st.selected;
            truncated := !truncated || st.truncated;
            reconcile ()
          end
        in
        reconcile ();
        (* Quantity reconciliation, parent-side only, mirroring
           Shard_greedy.solve: removal-loss ranking keys are per-user
           chain deltas, so the trim computes the same doubles the flat
           planner does and releases the same triples in the same order.
           The children's mirrors do not see the removals, but they are
           never queried again (capacity rounds are over), so staleness
           is unobservable. *)
        (match Instance.max_total inst with
        | None -> ()
        | Some cap ->
            while Strategy.size !merged > cap do
              let cur = !merged in
              let best =
                List.fold_left
                  (fun acc z ->
                    let l = Shard_greedy.triple_removal_loss ~with_saturation inst cur z in
                    match acc with Some (l0, _) when l0 <= l -> acc | _ -> Some (l, z))
                  None (Strategy.to_list cur)
              in
              match best with
              | Some (_, z) -> Strategy.remove cur z
              | None -> assert false (* size > cap ≥ 0 implies a non-empty strategy *)
            done);
        Array.iter (fun c -> Wire.send c.req_w Wire.Shutdown) children;
        cleanup ~ok:true;
        ( !merged,
          {
            procs;
            shards_per_proc = spp;
            policy;
            degraded = false;
            per_shard_selected;
            marginal_evaluations = !evals;
            pops = !pops;
            selected = Strategy.size !merged;
            reconciliation_rounds = !rounds;
            released_pairs = !released_pairs;
            replanned = !replanned;
            truncated = !truncated;
          } )
      with
      | result -> result
      | exception e ->
          cleanup ~ok:false;
          raise e
    end
  end
