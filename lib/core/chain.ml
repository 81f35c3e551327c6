(* Array-backed (user, class) chain with cached per-triple aggregates.

   The chain keeps its members sorted (time ascending, ties by item id —
   Triple.chain_before) in two flat arrays. The float array [f] holds six
   floats per member z_j:

     q      primitive adoption probability q(u, i_j, t_j)
     price  p(i_j, t_j)
     beta   saturation factor of i_j
     mem    memory  M_j = Σ_{t_l < t_j} 1/(t_j − t_l)          (Equation 1)
     comp   competition Π_{t_l < t_j ∨ (t_l = t_j ∧ l ≠ j)} (1 − q_l)
     prob   dynamic adoption probability q_j · β_j^{M_j} · comp_j

   and the int array [d] holds the member's item and time (and, on slate
   instances, its slot). No chain total is cached: [revenue] sums
   p_j·prob_j (with saturation) or p_j·q_j·comp_j (the β = 1 variant used
   by GlobalNo planning) over the members when asked. Both arrays start
   with room for one member and double; no triple record is stored. The
   oracle cells and the 1/Δt table are per-strategy constants, held once
   in a [ctx] every chain of the strategy points to.

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

type ctx = {
  inst : Instance.t;
  cells : float array; (* unboxed oracle cells: 0-2 accumulators, 3-5 qz/price/beta inputs *)
  inv : float array; (* inv.(d) = 1/d for d in 1..horizon: memory terms are
                        always 1/Δt with Δt bounded by the horizon, and a
                        table load beats a float divide in the oracle walk;
                        the values are the same IEEE quotients *)
  ist : int; (* ints per member in [d]: item, time, and the slot on slates *)
}

type t = {
  ctx : ctx;
  mutable user : int;
  mutable len : int;
  mutable f : float array;
  mutable d : int array;
}

let context inst =
  {
    inst;
    cells = Array.make 6 0.0;
    inv =
      Array.init (Instance.horizon inst + 1) (fun d ->
          if d = 0 then 0.0 else 1.0 /. float_of_int d);
    ist = (if Instance.is_slate inst then 3 else 2);
  }

(* float-array layout: [fw] floats per member *)
let fw = 6
let fb j = fw * j
let oq = 0
let oprice = 1
let obeta = 2
let omem = 3
let ocomp = 4
let oprob = 5

let create_in ctx = { ctx; user = 0; len = 0; f = Array.make (fb 1) 0.0; d = Array.make ctx.ist 0 }

let create inst = create_in (context inst)

let length c = c.len

let user c = c.user

let item c j = c.d.(c.ctx.ist * j)

let time c j = c.d.((c.ctx.ist * j) + 1)

let q c j = c.f.(fb j + oq)

let slot c j = if c.ctx.ist < 3 then 0 else c.d.((3 * j) + 2)

let triple c j = Triple.make ~u:c.user ~i:(item c j) ~t:(time c j)

let to_list c =
  let acc = ref [] in
  for j = c.len - 1 downto 0 do
    acc := triple c j :: !acc
  done;
  !acc

let iter c f =
  for j = 0 to c.len - 1 do
    f (triple c j)
  done

(* index of the (time, item) member, or -1 *)
let find c ~i ~t =
  let lo = ref 0 and hi = ref (c.len - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let tm = time c mid in
    let cmp = if tm <> t then compare tm t else compare (item c mid) i in
    if cmp = 0 then begin
      res := mid;
      lo := !hi + 1
    end
    else if cmp < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !res

(* the member's index, or -1 when the triple is not in the chain *)
let index c (z : Triple.t) = if c.len > 0 && z.u = c.user then find c ~i:z.i ~t:z.t else -1

let mem c z = index c z >= 0

let slot_of c z =
  let j = index c z in
  if j < 0 || c.ctx.ist < 3 then None else Some c.d.((3 * j) + 2)

let saturation_factor beta m = if m = 0.0 then 1.0 else beta ** m

(* recompute member j's prob = q_j · β_j^{M_j} · comp_j in place, with no
   float crossing a call boundary: a [prob_at c j] helper returning the
   value would box its result (and [saturation_factor]'s arguments) on
   every chain element of every insert/remove *)
let set_prob c j =
  let f = c.f and b = fb j in
  f.(b + oprob) <-
    (if f.(b + oq) <= 0.0 then 0.0
     else
       let m = f.(b + omem) in
       f.(b + oq) *. (if m = 0.0 then 1.0 else f.(b + obeta) ** m) *. f.(b + ocomp))

(* full rebuild of every cached aggregate, iterating in the same ascending
   order as the naive evaluator so the floating-point sums and products are
   reproduced exactly; O(L²) worst case but only used by [remove] *)
let recompute c =
  Metrics.incr c_recomputes;
  let f = c.f and inv = c.ctx.inv in
  let j = ref 0 in
  let prefix = ref 1.0 in
  while !j < c.len do
    (* the group [!j, k) shares one time step *)
    let k = ref !j in
    while !k < c.len && time c !k = time c !j do incr k done;
    for a = !j to !k - 1 do
      let m = ref 0.0 in
      for l = 0 to !j - 1 do
        m := !m +. inv.(time c a - time c l)
      done;
      f.(fb a + omem) <- !m;
      let g = ref !prefix in
      for b = !j to !k - 1 do
        if b <> a then g := !g *. (1.0 -. f.(fb b + oq))
      done;
      f.(fb a + ocomp) <- !g;
      set_prob c a
    done;
    for b = !j to !k - 1 do
      prefix := !prefix *. (1.0 -. f.(fb b + oq))
    done;
    j := !k
  done

(* room for [n] members: capacities go 1, 2, 4, ... *)
let ensure_capacity c n =
  let ist = c.ctx.ist in
  let cap = Array.length c.d / ist in
  if n > cap then begin
    let cap = max n (2 * cap) in
    let f = Array.make (fb cap) 0.0 in
    Array.blit c.f 0 f 0 (fb c.len);
    c.f <- f;
    let d = Array.make (ist * cap) 0 in
    Array.blit c.d 0 d 0 (ist * c.len);
    c.d <- d
  end

let insert ?slot ~qz c (z : Triple.t) =
  Metrics.incr c_inserts;
  if mem c z then invalid_arg "Chain.insert: duplicate triple";
  ensure_capacity c (c.len + 1);
  let inst = c.ctx.inst and ist = c.ctx.ist and inv = c.ctx.inv in
  let one_minus_qz = 1.0 -. qz in
  (* splice z's effects into the existing aggregates and accumulate z's own
     memory / competition in the same O(L) pass. The accumulators live in
     the oracle cells (slot 0: memory, slot 1: competition). *)
  let a = c.ctx.cells and f = c.f in
  a.(0) <- 0.0;
  a.(1) <- 1.0;
  for j = 0 to c.len - 1 do
    let tj = time c j and b = fb j in
    if tj < z.t then begin
      a.(0) <- a.(0) +. inv.(z.t - tj);
      a.(1) <- a.(1) *. (1.0 -. f.(b + oq))
    end
    else if tj = z.t then begin
      a.(1) <- a.(1) *. (1.0 -. f.(b + oq));
      f.(b + ocomp) <- f.(b + ocomp) *. one_minus_qz;
      set_prob c j
    end
    else begin
      f.(b + omem) <- f.(b + omem) +. inv.(tj - z.t);
      f.(b + ocomp) <- f.(b + ocomp) *. one_minus_qz;
      set_prob c j
    end
  done;
  (* shift the tail and write the new member *)
  let p = ref c.len in
  while !p > 0 && not (time c (!p - 1) < z.t || (time c (!p - 1) = z.t && item c (!p - 1) <= z.i)) do
    decr p
  done;
  let p = !p in
  Array.blit f (fb p) f (fb (p + 1)) (fw * (c.len - p));
  Array.blit c.d (ist * p) c.d (ist * (p + 1)) (ist * (c.len - p));
  if c.len = 0 then c.user <- z.u;
  let b = fb p in
  f.(b + oq) <- qz;
  f.(b + oprice) <- Instance.price inst ~i:z.i ~time:z.t;
  f.(b + obeta) <- Instance.saturation inst z.i;
  f.(b + omem) <- a.(0);
  f.(b + ocomp) <- a.(1);
  c.d.(ist * p) <- z.i;
  c.d.((ist * p) + 1) <- z.t;
  if ist > 2 then c.d.((ist * p) + 2) <- Option.value slot ~default:0;
  c.len <- c.len + 1;
  set_prob c p

let remove c (z : Triple.t) =
  Metrics.incr c_removes;
  let j0 = index c z in
  if j0 < 0 then invalid_arg "Chain.remove: absent triple";
  let ist = c.ctx.ist in
  let last = c.len - 1 in
  Array.blit c.f (fb (j0 + 1)) c.f (fb j0) (fw * (last - j0));
  Array.blit c.d (ist * (j0 + 1)) c.d (ist * j0) (ist * (last - j0));
  c.len <- last;
  (* clear the vacated tail member: stale data left beyond [len] could
     otherwise alias a future read after a re-insert at the old boundary *)
  Array.fill c.f (fb last) fw 0.0;
  Array.fill c.d (ist * last) ist 0;
  recompute c

(* summed in member order from 0.0, the order every insert and rebuild
   leaves the members in *)
let revenue ~with_saturation c =
  let f = c.f in
  let acc = ref 0.0 in
  for j = 0 to c.len - 1 do
    let b = fb j in
    acc :=
      !acc
      +. f.(b + oprice)
         *.
         if with_saturation then f.(b + oprob)
         else if f.(b + oq) <= 0.0 then 0.0
         else f.(b + oq) *. f.(b + ocomp)
  done;
  !acc

let aggregates c z =
  let j = index c z in
  if j < 0 then None
  else
    let b = fb j in
    Some (c.f.(b + omem), c.f.(b + ocomp), c.f.(b + oprob))

let prob ~with_saturation c z =
  let j = index c z in
  if j < 0 then None
  else
    let b = fb j in
    if with_saturation then Some c.f.(b + oprob)
    else Some (if c.f.(b + oq) <= 0.0 then 0.0 else c.f.(b + oq) *. c.f.(b + ocomp))

(* The cells are the strategy's, shared by all its chains: the caller
   fills slots 3..5 right before [marginal_cells] reads them. *)
let oracle_cells c = c.ctx.cells

(* The one oracle call of the steady-state selection loop, with a float-free
   signature: without flambda every float argument or result of a
   non-inlined call is boxed on the minor heap, so the caller passes qz,
   price and beta by storing them into [oracle_cells] slots 3..5 (unboxed
   float-array stores) and the marginal comes back through [res.(0)] — the
   call itself moves only immediates and pointers and allocates nothing.

   The three accumulators live in the same preallocated cells: a [ref]
   cell (or float arguments threaded through a local recursion, which the
   non-flambda compiler boxes) would allocate on every call. Each branch
   performs the same floating-point operations in the same order as the
   historical accumulate-in-refs loop, so results are bit-identical. The
   saturation closed form is inlined by hand, and the walk reads each
   member's time and six floats from two flat arrays. *)
let marginal_cells ~with_saturation c ~time:tz ~res =
  Metrics.incr c_marginals;
  let a = c.ctx.cells and inv = c.ctx.inv and f = c.f and d = c.d and ist = c.ctx.ist in
  let qz = a.(3) in
  let price = a.(4) in
  let beta = a.(5) in
  let one_minus_qz = 1.0 -. qz in
  let len = c.len in
  a.(0) <- 0.0 (* mz *);
  a.(1) <- 1.0 (* compz *);
  a.(2) <- 0.0 (* delta *);
  for j = 0 to len - 1 do
    let tj = d.((ist * j) + 1) and b = fb j in
    let qj = f.(b + oq) in
    if tj < tz then begin
      a.(0) <- a.(0) +. inv.(tz - tj);
      a.(1) <- a.(1) *. (1.0 -. qj)
    end
    else if tj = tz then begin
      (* z's primitive probability joins the same-time competition *)
      a.(1) <- a.(1) *. (1.0 -. qj);
      let old_p =
        if qj <= 0.0 then 0.0
        else if with_saturation then f.(b + oprob)
        else qj *. f.(b + ocomp)
      in
      a.(2) <- a.(2) -. (f.(b + oprice) *. old_p *. qz)
    end
    else begin
      (* later triple: its memory gains 1/(Δt), its competition gains
         (1 − q_z) *)
      let dl =
        if qj <= 0.0 then 0.0
        else if with_saturation then begin
          let m' = f.(b + omem) +. inv.(tj - tz) in
          let sat = if m' = 0.0 then 1.0 else f.(b + obeta) ** m' in
          (qj *. sat *. f.(b + ocomp) *. one_minus_qz) -. f.(b + oprob)
        end
        else begin
          let p0 = qj *. f.(b + ocomp) in
          (p0 *. one_minus_qz) -. p0
        end
      in
      a.(2) <- a.(2) +. (f.(b + oprice) *. dl)
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
   two entry points cannot drift apart numerically. [res] reuses the
   cells: slot 0 (the mz accumulator) is dead by the time the result is
   stored. *)
let marginal_flat ~with_saturation c ~time ~qz ~price ~beta =
  let a = c.ctx.cells in
  a.(3) <- qz;
  a.(4) <- price;
  a.(5) <- beta;
  marginal_cells ~with_saturation c ~time ~res:a;
  a.(0)

let marginal ~with_saturation c (z : Triple.t) =
  let inst = c.ctx.inst in
  marginal_flat ~with_saturation c ~time:z.t
    ~qz:(Instance.q inst ~u:z.u ~i:z.i ~time:z.t)
    ~price:(Instance.price inst ~i:z.i ~time:z.t)
    ~beta:(Instance.saturation inst z.i)
