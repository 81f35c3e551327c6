(* Array-backed (user, class) chain with cached per-triple aggregates.

   The chain keeps its triples in a sorted dynamic array (time ascending,
   ties by item id — Triple.chain_before) together with, per triple z_j:

     q.(j)    primitive adoption probability q(u, i_j, t_j)
     price.(j) p(i_j, t_j)
     beta.(j) saturation factor of i_j
     mem.(j)  memory  M_j = Σ_{t_l < t_j} 1/(t_j − t_l)          (Equation 1)
     comp.(j) competition Π_{t_l < t_j ∨ (t_l = t_j ∧ l ≠ j)} (1 − q_l)
     prob.(j) dynamic adoption probability q_j · β_j^{M_j} · comp_j

   plus the two cached chain revenues Σ p_j·prob_j (with saturation) and
   Σ p_j·q_j·comp_j (the β = 1 variant used by GlobalNo planning).

   [insert] splices a triple in O(L): the new triple's memory and
   competition are accumulated in one pass, and each later (or same-time)
   triple's aggregates absorb the newcomer's 1/(Δt) memory term and (1 − q)
   competition factor in O(1). [remove] rebuilds the aggregates from
   scratch — removal only happens on the cold paths (brute force,
   hardness, local search) and a division-free rebuild stays exact even
   when some q = 1 makes the competition product unrecoverable by
   division. [marginal] computes an insertion's revenue delta in O(L)
   without mutating anything — the hot path of every greedy. *)

module Metrics = Revmax_prelude.Metrics

let c_inserts = Metrics.counter "chain.inserts"

let c_removes = Metrics.counter "chain.removes"

let c_recomputes = Metrics.counter "chain.recomputes"

let c_marginals = Metrics.counter "chain.marginals"

type t = {
  inst : Instance.t;
  mutable len : int;
  mutable zs : Triple.t array;
  mutable ts : int array; (* flat mirror of zs.(j).t, for deref-free walks *)
  mutable q : float array;
  mutable price : float array;
  mutable beta : float array;
  mutable mem : float array;
  mutable comp : float array;
  mutable prob : float array;
  mutable rev_sat : float;
  mutable rev_nosat : float;
  scratch : float array; (* unboxed oracle cells: 0-2 accumulators, 3-5 qz/price/beta inputs *)
  inv : float array; (* inv.(d) = 1/d for d in 1..horizon: memory terms are
                        always 1/Δt with Δt bounded by the horizon, and a
                        table load beats a float divide in the oracle walk;
                        the values are the same IEEE quotients *)
}

let dummy = Triple.make ~u:0 ~i:0 ~t:0

let create inst =
  {
    inst;
    len = 0;
    zs = [||];
    ts = [||];
    q = [||];
    price = [||];
    beta = [||];
    mem = [||];
    comp = [||];
    prob = [||];
    rev_sat = 0.0;
    rev_nosat = 0.0;
    scratch = Array.make 6 0.0;
    inv =
      Array.init (Instance.horizon inst + 1) (fun d ->
          if d = 0 then 0.0 else 1.0 /. float_of_int d);
  }

let length c = c.len

let to_list c = Array.to_list (Array.sub c.zs 0 c.len)

let iter c f =
  for j = 0 to c.len - 1 do
    f c.zs.(j)
  done

(* index of the (time, item) slot, or -1 *)
let find c (z : Triple.t) =
  let lo = ref 0 and hi = ref (c.len - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = c.zs.(mid) in
    let cmp = if x.t <> z.t then compare x.t z.t else compare x.i z.i in
    if cmp = 0 then begin
      res := mid;
      lo := !hi + 1
    end
    else if cmp < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let mem c z =
  let j = find c z in
  j >= 0 && Triple.equal c.zs.(j) z

let saturation_factor beta m = if m = 0.0 then 1.0 else beta ** m

(* recompute prob.(j) = q_j · β_j^{M_j} · comp_j in place, with no float
   crossing a call boundary: a [prob_at c j] helper returning the value
   would box its result (and [saturation_factor]'s arguments) on every
   chain element of every insert/remove *)
let set_prob c j =
  c.prob.(j) <-
    (if c.q.(j) <= 0.0 then 0.0
     else
       let m = c.mem.(j) in
       c.q.(j) *. (if m = 0.0 then 1.0 else c.beta.(j) ** m) *. c.comp.(j))

let refresh_revenues c =
  (* accumulate in scratch cells, not [float ref]s: without flambda every
     [:=] on a float ref stores a freshly boxed float, so the refs would
     allocate O(len) words on each insert — this runs once per accepted
     triple in the greedy steady state. Slots 0/1 are free here (they are
     the [marginal_cells] accumulators, and no marginal is in flight). *)
  let a = c.scratch in
  a.(0) <- 0.0;
  a.(1) <- 0.0;
  for j = 0 to c.len - 1 do
    a.(0) <- a.(0) +. (c.price.(j) *. c.prob.(j));
    a.(1) <- a.(1) +. (c.price.(j) *. if c.q.(j) <= 0.0 then 0.0 else c.q.(j) *. c.comp.(j))
  done;
  c.rev_sat <- a.(0);
  c.rev_nosat <- a.(1)

(* full rebuild of every cached aggregate, iterating in the same ascending
   order as the naive evaluator so the floating-point sums and products are
   reproduced exactly; O(L²) worst case but only used by [remove] *)
let recompute c =
  Metrics.incr c_recomputes;
  let j = ref 0 in
  let prefix = ref 1.0 in
  while !j < c.len do
    (* the group [!j, k) shares one time step *)
    let k = ref !j in
    while !k < c.len && c.zs.(!k).t = c.zs.(!j).t do incr k done;
    for a = !j to !k - 1 do
      let m = ref 0.0 in
      for l = 0 to !j - 1 do
        m := !m +. c.inv.(c.zs.(a).t - c.zs.(l).t)
      done;
      c.mem.(a) <- !m;
      let g = ref !prefix in
      for b = !j to !k - 1 do
        if b <> a then g := !g *. (1.0 -. c.q.(b))
      done;
      c.comp.(a) <- !g;
      set_prob c a
    done;
    for b = !j to !k - 1 do
      prefix := !prefix *. (1.0 -. c.q.(b))
    done;
    j := !k
  done;
  refresh_revenues c

let ensure_capacity c n =
  if n > Array.length c.zs then begin
    let cap = max 4 (max n (2 * Array.length c.zs)) in
    let zs = Array.make cap dummy in
    Array.blit c.zs 0 zs 0 c.len;
    c.zs <- zs;
    let ts = Array.make cap 0 in
    Array.blit c.ts 0 ts 0 c.len;
    c.ts <- ts;
    let grow_f a =
      let fresh = Array.make cap 0.0 in
      Array.blit a 0 fresh 0 c.len;
      fresh
    in
    c.q <- grow_f c.q;
    c.price <- grow_f c.price;
    c.beta <- grow_f c.beta;
    c.mem <- grow_f c.mem;
    c.comp <- grow_f c.comp;
    c.prob <- grow_f c.prob
  end

let insert ?qz c (z : Triple.t) =
  Metrics.incr c_inserts;
  ensure_capacity c (c.len + 1);
  (let j0 = find c z in
   if j0 >= 0 && Triple.equal c.zs.(j0) z then invalid_arg "Chain.insert: duplicate triple");
  let qz =
    match qz with Some q -> q | None -> Instance.q c.inst ~u:z.u ~i:z.i ~time:z.t
  in
  let one_minus_qz = 1.0 -. qz in
  (* splice z's effects into the existing aggregates and accumulate z's own
     memory / competition in the same O(L) pass. The accumulators live in
     scratch cells (slot 0: memory, slot 1: competition) for the same
     no-flambda reason as [refresh_revenues]: float refs would box on every
     loop iteration of every accept. *)
  let a = c.scratch in
  a.(0) <- 0.0;
  a.(1) <- 1.0;
  for j = 0 to c.len - 1 do
    let tj = c.zs.(j).t in
    if tj < z.t then begin
      a.(0) <- a.(0) +. c.inv.(z.t - tj);
      a.(1) <- a.(1) *. (1.0 -. c.q.(j))
    end
    else if tj = z.t then begin
      a.(1) <- a.(1) *. (1.0 -. c.q.(j));
      c.comp.(j) <- c.comp.(j) *. one_minus_qz;
      set_prob c j
    end
    else begin
      c.mem.(j) <- c.mem.(j) +. c.inv.(tj - z.t);
      c.comp.(j) <- c.comp.(j) *. one_minus_qz;
      set_prob c j
    end
  done;
  (* shift the tail and write the new slot *)
  let pos = ref c.len in
  (try
     for j = 0 to c.len - 1 do
       if not (Triple.chain_before c.zs.(j) z) then begin
         pos := j;
         raise Exit
       end
     done
   with Exit -> ());
  for j = c.len downto !pos + 1 do
    c.zs.(j) <- c.zs.(j - 1);
    c.ts.(j) <- c.ts.(j - 1);
    c.q.(j) <- c.q.(j - 1);
    c.price.(j) <- c.price.(j - 1);
    c.beta.(j) <- c.beta.(j - 1);
    c.mem.(j) <- c.mem.(j - 1);
    c.comp.(j) <- c.comp.(j - 1);
    c.prob.(j) <- c.prob.(j - 1)
  done;
  let p = !pos in
  c.zs.(p) <- z;
  c.ts.(p) <- z.t;
  c.q.(p) <- qz;
  c.price.(p) <- Instance.price c.inst ~i:z.i ~time:z.t;
  c.beta.(p) <- Instance.saturation c.inst z.i;
  c.mem.(p) <- a.(0);
  c.comp.(p) <- a.(1);
  c.len <- c.len + 1;
  set_prob c p;
  refresh_revenues c

let remove c (z : Triple.t) =
  Metrics.incr c_removes;
  let j0 = find c z in
  if j0 < 0 || not (Triple.equal c.zs.(j0) z) then
    invalid_arg "Chain.remove: absent triple";
  for j = j0 to c.len - 2 do
    c.zs.(j) <- c.zs.(j + 1);
    c.ts.(j) <- c.ts.(j + 1);
    c.q.(j) <- c.q.(j + 1);
    c.price.(j) <- c.price.(j + 1);
    c.beta.(j) <- c.beta.(j + 1)
  done;
  c.len <- c.len - 1;
  (* clear the vacated tail slot: a stale triple left beyond [len] could
     otherwise alias a future [find]/[iter] read after a re-insert at the
     old boundary *)
  c.zs.(c.len) <- dummy;
  c.ts.(c.len) <- 0;
  c.q.(c.len) <- 0.0;
  c.price.(c.len) <- 0.0;
  c.beta.(c.len) <- 0.0;
  c.mem.(c.len) <- 0.0;
  c.comp.(c.len) <- 0.0;
  c.prob.(c.len) <- 0.0;
  recompute c

let revenue ~with_saturation c = if with_saturation then c.rev_sat else c.rev_nosat

let aggregates c (z : Triple.t) =
  let j = find c z in
  if j < 0 || not (Triple.equal c.zs.(j) z) then None
  else Some (c.mem.(j), c.comp.(j), c.prob.(j))

let prob ~with_saturation c (z : Triple.t) =
  let j = find c z in
  if j < 0 || not (Triple.equal c.zs.(j) z) then None
  else if with_saturation then Some c.prob.(j)
  else Some (if c.q.(j) <= 0.0 then 0.0 else c.q.(j) *. c.comp.(j))

(* Allocation-free kernel of [marginal]: every per-candidate instance fact
   (q, price, saturation base) arrives as an argument so the O(L) loop only
   touches the chain's flat float arrays. The saturation closed form is
   inlined by hand — without flambda a call to [saturation_factor] would
   box its float result on every later-triple iteration — and the loop body
   performs no tupling, no option construction and no hashtable lookups, so
   the per-element work allocates nothing. Floating-point operations are
   ordered exactly as the historical [marginal], keeping golden traces and
   the naive≈incremental properties bit-stable. *)
let oracle_cells c = c.scratch

(* The one oracle call of the steady-state selection loop, with a float-free
   signature: without flambda every float argument or result of a
   non-inlined call is boxed on the minor heap, so the caller passes qz,
   price and beta by storing them into [oracle_cells] slots 3..5 (unboxed
   float-array stores) and the marginal comes back through [res.(0)] — the
   call itself moves only immediates and pointers and allocates nothing.

   The three accumulators live in the same preallocated [scratch] array:
   a [ref] cell (or float arguments threaded through a local recursion,
   which the non-flambda compiler boxes) would allocate on every call.
   Each branch performs the same floating-point operations in the same
   order as the historical accumulate-in-refs loop, so results are
   bit-identical. The walk reads the [ts] time mirror, not [zs], to keep
   it free of pointer chasing. *)
let marginal_cells ~with_saturation c ~time ~res =
  Metrics.incr c_marginals;
  let a = c.scratch in
  let qz = a.(3) in
  let price = a.(4) in
  let beta = a.(5) in
  let one_minus_qz = 1.0 -. qz in
  let len = c.len in
  a.(0) <- 0.0 (* mz *);
  a.(1) <- 1.0 (* compz *);
  a.(2) <- 0.0 (* delta *);
  for j = 0 to len - 1 do
    let tj = c.ts.(j) in
    if tj < time then begin
      a.(0) <- a.(0) +. c.inv.(time - tj);
      a.(1) <- a.(1) *. (1.0 -. c.q.(j))
    end
    else if tj = time then begin
      (* z's primitive probability joins the same-time competition *)
      a.(1) <- a.(1) *. (1.0 -. c.q.(j));
      let old_p =
        if c.q.(j) <= 0.0 then 0.0
        else if with_saturation then c.prob.(j)
        else c.q.(j) *. c.comp.(j)
      in
      a.(2) <- a.(2) -. (c.price.(j) *. old_p *. qz)
    end
    else begin
      (* later triple: its memory gains 1/(Δt), its competition gains
         (1 − q_z) *)
      let d =
        if c.q.(j) <= 0.0 then 0.0
        else if with_saturation then begin
          let m' = c.mem.(j) +. c.inv.(tj - time) in
          let sat = if m' = 0.0 then 1.0 else c.beta.(j) ** m' in
          (c.q.(j) *. sat *. c.comp.(j) *. one_minus_qz) -. c.prob.(j)
        end
        else begin
          let p0 = c.q.(j) *. c.comp.(j) in
          (p0 *. one_minus_qz) -. p0
        end
      in
      a.(2) <- a.(2) +. (c.price.(j) *. d)
    end
  done;
  let gain =
    if qz <= 0.0 then 0.0
    else begin
      let sat = if with_saturation then (if a.(0) = 0.0 then 1.0 else beta ** a.(0)) else 1.0 in
      price *. qz *. sat *. a.(1)
    end
  in
  res.(0) <- gain +. a.(2)

(* boxed-float façade over [marginal_cells] — one implementation, so the
   two entry points cannot drift apart numerically. [res] reuses [scratch]:
   slot 0 (the mz accumulator) is dead by the time the result is stored. *)
let marginal_flat ~with_saturation c ~time ~qz ~price ~beta =
  let a = c.scratch in
  a.(3) <- qz;
  a.(4) <- price;
  a.(5) <- beta;
  marginal_cells ~with_saturation c ~time ~res:a;
  a.(0)

let marginal ~with_saturation c (z : Triple.t) =
  marginal_flat ~with_saturation c ~time:z.t
    ~qz:(Instance.q c.inst ~u:z.u ~i:z.i ~time:z.t)
    ~price:(Instance.price c.inst ~i:z.i ~time:z.t)
    ~beta:(Instance.saturation c.inst z.i)
