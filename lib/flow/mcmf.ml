module Heap = Revmax_pqueue.Binary_heap
module Metrics = Revmax_prelude.Metrics

let c_solves = Metrics.counter "mcmf.solves"

let c_augmentations = Metrics.counter "mcmf.augmentations"

let c_bf_seeds = Metrics.counter "mcmf.bf_seeds"

type t = {
  n : int;
  (* forward and reverse arcs interleaved: arc i and i lxor 1 are partners *)
  mutable dst : int array;
  mutable cap : int array;
  mutable cost : float array;
  mutable arcs : int; (* number of arc slots in use *)
  adj : int list array; (* arc indices leaving each node, reversed order *)
  mutable ever_negative : bool; (* any edge ever added with cost < 0 *)
}

type edge = int

type result = { flow : int; cost : float }

let create n =
  {
    n;
    dst = Array.make 16 0;
    cap = Array.make 16 0;
    cost = Array.make 16 0.0;
    arcs = 0;
    adj = Array.make n [];
    ever_negative = false;
  }

let ensure_arc_capacity t =
  let cap = Array.length t.dst in
  if t.arcs + 2 > cap then begin
    let grow a zero =
      let b = Array.make (2 * cap) zero in
      Array.blit a 0 b 0 cap;
      b
    in
    t.dst <- grow t.dst 0;
    t.cap <- grow t.cap 0;
    t.cost <- grow t.cost 0.0
  end

let add_edge t ~src ~dst ~cap ~cost =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then invalid_arg "Mcmf.add_edge: node out of range";
  if cap < 0 then invalid_arg "Mcmf.add_edge: negative capacity";
  ensure_arc_capacity t;
  let e = t.arcs in
  t.dst.(e) <- dst;
  t.cap.(e) <- cap;
  t.cost.(e) <- cost;
  t.dst.(e + 1) <- src;
  t.cap.(e + 1) <- 0;
  t.cost.(e + 1) <- -.cost;
  t.adj.(src) <- e :: t.adj.(src);
  t.adj.(dst) <- (e + 1) :: t.adj.(dst);
  t.arcs <- t.arcs + 2;
  if cost < 0.0 then t.ever_negative <- true;
  e

(* Bellman–Ford from [source] over residual arcs, to seed the potentials when
   the network carries negative costs. Nodes unreachable from the source keep
   an infinite potential and are skipped by Dijkstra afterwards. *)
let bellman_ford t source =
  let dist = Array.make t.n Float.infinity in
  dist.(source) <- 0.0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= t.n do
    changed := false;
    incr rounds;
    for e = 0 to t.arcs - 1 do
      if t.cap.(e) > 0 then begin
        let u = t.dst.(e lxor 1) and v = t.dst.(e) in
        if dist.(u) +. t.cost.(e) < dist.(v) -. 1e-12 then begin
          dist.(v) <- dist.(u) +. t.cost.(e);
          changed := true
        end
      end
    done
  done;
  if !changed then failwith "Mcmf: negative-cost cycle detected";
  dist

let solve ?(stop_when_unprofitable = false) t ~source ~sink =
  if source = sink then invalid_arg "Mcmf.solve: source = sink";
  Metrics.incr c_solves;
  (* Dijkstra-with-potentials is only sound when every residual arc has a
     non-negative reduced cost, which zero initial potentials guarantee only
     for an all-non-negative residual network. Scan *every* residual arc —
     reverse arcs included, since a re-solve after augmentation sees
     negative-cost reverse arcs of positive forward edges — and fall back to
     Bellman–Ford seeding whenever any negative residual cost exists. The
     [ever_negative] flag (set in [add_edge]) short-circuits the scan. *)
  let has_negative = ref t.ever_negative in
  let e = ref 0 in
  while (not !has_negative) && !e < t.arcs do
    if t.cap.(!e) > 0 && t.cost.(!e) < 0.0 then has_negative := true;
    incr e
  done;
  let pot =
    if !has_negative then begin
      Metrics.incr c_bf_seeds;
      bellman_ford t source
    end
    else Array.make t.n 0.0
  in
  let total_flow = ref 0 and total_cost = ref 0.0 in
  let dist = Array.make t.n Float.infinity in
  let pred = Array.make t.n (-1) in
  let continue_loop = ref true in
  while !continue_loop do
    (* Dijkstra on reduced costs *)
    Array.fill dist 0 t.n Float.infinity;
    Array.fill pred 0 t.n (-1);
    dist.(source) <- 0.0;
    let heap = Heap.create () in
    (* max-heap: negate distances *)
    Heap.insert heap ~key:0.0 source;
    let visited = Array.make t.n false in
    let rec run () =
      match Heap.delete_max heap with
      | None -> ()
      | Some (u, neg_d) ->
          let d = -.neg_d in
          if (not visited.(u)) && d <= dist.(u) +. 1e-12 then begin
            visited.(u) <- true;
            List.iter
              (fun e ->
                if t.cap.(e) > 0 then begin
                  let v = t.dst.(e) in
                  if Float.is_finite pot.(v) && Float.is_finite pot.(u) then begin
                    let rc = t.cost.(e) +. pot.(u) -. pot.(v) in
                    let rc = if rc < 0.0 then 0.0 (* numerical guard *) else rc in
                    if dist.(u) +. rc < dist.(v) -. 1e-12 then begin
                      dist.(v) <- dist.(u) +. rc;
                      pred.(v) <- e;
                      Heap.insert heap ~key:(-.dist.(v)) v
                    end
                  end
                end)
              t.adj.(u)
          end;
          run ()
    in
    run ();
    if not (Float.is_finite dist.(sink)) then continue_loop := false
    else begin
      let true_dist = dist.(sink) +. pot.(sink) -. pot.(source) in
      if stop_when_unprofitable && true_dist >= -1e-12 then continue_loop := false
      else begin
        (* bottleneck along the path *)
        let bottleneck = ref max_int in
        let v = ref sink in
        while !v <> source do
          let e = pred.(!v) in
          if t.cap.(e) < !bottleneck then bottleneck := t.cap.(e);
          v := t.dst.(e lxor 1)
        done;
        (* augment *)
        let v = ref sink in
        while !v <> source do
          let e = pred.(!v) in
          t.cap.(e) <- t.cap.(e) - !bottleneck;
          t.cap.(e lxor 1) <- t.cap.(e lxor 1) + !bottleneck;
          v := t.dst.(e lxor 1)
        done;
        Metrics.incr c_augmentations;
        total_flow := !total_flow + !bottleneck;
        total_cost := !total_cost +. (float_of_int !bottleneck *. true_dist);
        (* potential update; unreached nodes keep their old potential *)
        for i = 0 to t.n - 1 do
          if Float.is_finite dist.(i) && Float.is_finite pot.(i) then pot.(i) <- pot.(i) +. dist.(i)
        done
      end
    end
  done;
  { flow = !total_flow; cost = !total_cost }

let flow_on t e =
  (* flow shipped on forward arc e = residual capacity of its partner *)
  t.cap.(e lxor 1)
