(* Array-backed (user, class) chain with cached per-triple aggregates.

   A chain is one unboxed float block. Two header floats hold its length
   and its user; member z_j then takes [w] floats, sorted by
   Triple.chain_before (time ascending, ties by item id):

     time   t_j
     item   i_j
     q      adoption probability q(u, i_j, t_j) (q̃ on slates)
     price  p(i_j, t_j)
     beta   saturation factor of i_j
     mem    memory  M_j = Σ_{t_l < t_j} 1/(t_j − t_l)          (Equation 1)
     comp   competition Π_{t_l < t_j ∨ (t_l = t_j ∧ l ≠ j)} (1 − q_l)
     prob   dynamic adoption probability q_j · β_j^{M_j} · comp_j
     slot   the member's 1-based slot, on slate instances only

   so [w] is 8, or 9 on slates. Ints stored as floats are exact (ids and
   times are far below 2^53). No chain total is cached. The oracle cells,
   the 1/Δt table and [w] are per-strategy constants, held once in the
   [ctx] every function takes.

   [create] makes a block with room for no member; an insert into a full
   block copies it into one of twice the room (see [grow]) and returns
   the new block. The caller owns every pointer to the old one: a
   strategy repoints its (user, class) row, or its overflow entry, to
   the returned block.

   [insert] splices a triple in O(L): the new triple's memory and
   competition are accumulated in one pass, and each later (or same-time)
   triple's aggregates absorb the newcomer's 1/(Δt) memory term and (1 − q)
   competition factor in O(1). [remove] rebuilds the aggregates from
   scratch — removal only happens on the cold paths (brute force,
   hardness, local search) and a division-free rebuild stays exact even
   when some q = 1 makes the competition product unrecoverable by
   division. [marginal_cells] computes an insertion's revenue delta in
   O(L) without mutating anything — the hot path of every greedy. *)

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
  w : int; (* floats per member: 8, and 9 with the slot on slates *)
}

type t = float array

let context inst =
  {
    inst;
    cells = Array.make 6 0.0;
    inv =
      Array.init (Instance.horizon inst + 1) (fun d ->
          if d = 0 then 0.0 else 1.0 /. float_of_int d);
    w = (if Instance.is_slate inst then 9 else 8);
  }

(* header *)
let olen = 0
let ouser = 1
let hdr = 2

(* member fields, at [fb ctx j + o] *)
let otime = 0
let oitem = 1
let oq = 2
let oprice = 3
let obeta = 4
let omem = 5
let ocomp = 6
let oprob = 7
let oslot = 8

let fb ctx j = hdr + (ctx.w * j)

let create () = Array.make hdr 0.0

let length (c : t) = int_of_float c.(olen)

let user (c : t) = int_of_float c.(ouser)

let item ctx (c : t) j = int_of_float c.(fb ctx j + oitem)

let time ctx (c : t) j = int_of_float c.(fb ctx j + otime)

let q ctx (c : t) j = c.(fb ctx j + oq)

let slot ctx (c : t) j = if ctx.w > oslot then int_of_float c.(fb ctx j + oslot) else 0

let member ctx (c : t) j = Array.sub c (fb ctx j) ctx.w

let triple ctx c j = Triple.make ~u:(user c) ~i:(item ctx c j) ~t:(time ctx c j)

let to_list ctx c =
  let acc = ref [] in
  for j = length c - 1 downto 0 do
    acc := triple ctx c j :: !acc
  done;
  !acc

(* index of the (time, item) member, or -1 *)
let find ctx c ~i ~t =
  let lo = ref 0 and hi = ref (length c - 1) and res = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let tm = time ctx c mid in
    let cmp = if tm <> t then compare tm t else compare (item ctx c mid) i in
    if cmp = 0 then begin
      res := mid;
      lo := !hi + 1
    end
    else if cmp < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !res

(* the member's index, or -1 when the triple is not in the chain *)
let index ctx c (z : Triple.t) = if length c > 0 && z.u = user c then find ctx c ~i:z.i ~t:z.t else -1

let mem ctx c z = index ctx c z >= 0

let slot_of ctx c z =
  let j = index ctx c z in
  if j < 0 || ctx.w <= oslot then None else Some (slot ctx c j)

let saturation_factor beta m = if m = 0.0 then 1.0 else beta ** m

(* recompute the prob of the member at [b] = q · β^M · comp in place,
   with no float crossing a call boundary: a [prob_at c j] helper
   returning the value would box its result (and [saturation_factor]'s
   arguments) on every chain element of every insert/remove *)
let set_prob (c : t) b =
  c.(b + oprob) <-
    (if c.(b + oq) <= 0.0 then 0.0
     else
       let m = c.(b + omem) in
       c.(b + oq) *. (if m = 0.0 then 1.0 else c.(b + obeta) ** m) *. c.(b + ocomp))

(* full rebuild of every cached aggregate, iterating in the same ascending
   order as the naive evaluator so the floating-point sums and products are
   reproduced exactly; O(L²) worst case but only used by [remove] *)
let recompute ctx c =
  Metrics.incr c_recomputes;
  let inv = ctx.inv and len = length c in
  let j = ref 0 in
  let prefix = ref 1.0 in
  while !j < len do
    (* the group [!j, k) shares one time step *)
    let k = ref !j in
    while !k < len && time ctx c !k = time ctx c !j do incr k done;
    for a = !j to !k - 1 do
      let m = ref 0.0 in
      for l = 0 to !j - 1 do
        m := !m +. inv.(time ctx c a - time ctx c l)
      done;
      c.(fb ctx a + omem) <- !m;
      let g = ref !prefix in
      for b = !j to !k - 1 do
        if b <> a then g := !g *. (1.0 -. c.(fb ctx b + oq))
      done;
      c.(fb ctx a + ocomp) <- !g;
      set_prob c (fb ctx a)
    done;
    for b = !j to !k - 1 do
      prefix := !prefix *. (1.0 -. c.(fb ctx b + oq))
    done;
    j := !k
  done

(* The most members a block of at most 128 words holds: the OCaml 5
   runtime keeps blocks up to 128 words in size-classed pools and
   mallocs each larger one, and the freed ones stay with the process. *)
let pooled ctx = (128 - hdr) / ctx.w

(* a copy of [c]'s header and [len] members with room for twice its
   members, or one; a doubling that would just leave the pooled sizes
   (8 → 16 members, 130 words) stops at [pooled] (15) instead *)
let grow ctx c len =
  let cap = (Array.length c - hdr) / ctx.w in
  let cap' = max 1 (2 * cap) in
  let cap' = if cap < pooled ctx && cap' > pooled ctx then pooled ctx else cap' in
  let c' = Array.make (fb ctx cap') 0.0 in
  Array.blit c 0 c' 0 (fb ctx len);
  c'

let insert_cells ctx c ~u ~i ~time:tz ~slot =
  Metrics.incr c_inserts;
  let len = length c in
  (* the new member goes after every member at or before (tz, i) *)
  let p = ref len in
  while
    !p > 0
    && not (time ctx c (!p - 1) < tz || (time ctx c (!p - 1) = tz && item ctx c (!p - 1) <= i))
  do
    decr p
  done;
  let p = !p in
  let c = if Array.length c < fb ctx (len + 1) then grow ctx c len else c in
  let inv = ctx.inv and a = ctx.cells in
  let qz = a.(3) in
  let one_minus_qz = 1.0 -. qz in
  (* splice z's effects into the existing aggregates and accumulate z's own
     memory / competition in the same O(L) pass. The accumulators live in
     the oracle cells (slot 0: memory, slot 1: competition). *)
  a.(0) <- 0.0;
  a.(1) <- 1.0;
  for j = 0 to len - 1 do
    let b = fb ctx j in
    let tj = int_of_float c.(b + otime) in
    if tj < tz then begin
      a.(0) <- a.(0) +. inv.(tz - tj);
      a.(1) <- a.(1) *. (1.0 -. c.(b + oq))
    end
    else if tj = tz then begin
      a.(1) <- a.(1) *. (1.0 -. c.(b + oq));
      c.(b + ocomp) <- c.(b + ocomp) *. one_minus_qz;
      set_prob c b
    end
    else begin
      c.(b + omem) <- c.(b + omem) +. inv.(tj - tz);
      c.(b + ocomp) <- c.(b + ocomp) *. one_minus_qz;
      set_prob c b
    end
  done;
  (* shift the tail and write the new member *)
  let b = fb ctx p in
  Array.blit c b c (b + ctx.w) (ctx.w * (len - p));
  c.(b + otime) <- float_of_int tz;
  c.(b + oitem) <- float_of_int i;
  c.(b + oq) <- qz;
  Instance.price_into ctx.inst ~i ~time:tz c (b + oprice);
  Instance.saturation_into ctx.inst i c (b + obeta);
  c.(b + omem) <- a.(0);
  c.(b + ocomp) <- a.(1);
  if ctx.w > oslot then c.(b + oslot) <- float_of_int slot;
  if len = 0 then c.(ouser) <- float_of_int u;
  c.(olen) <- float_of_int (len + 1);
  set_prob c b;
  c

let insert ctx ?(slot = 0) ~qz c (z : Triple.t) =
  if mem ctx c z then invalid_arg "Chain.insert: duplicate triple";
  ctx.cells.(3) <- qz;
  insert_cells ctx c ~u:z.u ~i:z.i ~time:z.t ~slot

let remove ctx c (z : Triple.t) =
  Metrics.incr c_removes;
  let j0 = index ctx c z in
  if j0 < 0 then invalid_arg "Chain.remove: absent triple";
  let last = length c - 1 in
  Array.blit c (fb ctx (j0 + 1)) c (fb ctx j0) (ctx.w * (last - j0));
  c.(olen) <- float_of_int last;
  (* clear the vacated tail member: stale data left beyond the length
     could otherwise alias a future read after a re-insert at the old
     boundary *)
  Array.fill c (fb ctx last) ctx.w 0.0;
  recompute ctx c

let prob ctx ~with_saturation c z =
  let j = index ctx c z in
  if j < 0 then None
  else
    let b = fb ctx j in
    if with_saturation then Some c.(b + oprob)
    else Some (if c.(b + oq) <= 0.0 then 0.0 else c.(b + oq) *. c.(b + ocomp))

(* The cells are the context's, shared by all its chains: the caller
   fills slots 3..5 right before [marginal_cells] reads them. *)
let oracle_cells ctx = ctx.cells

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
   member's time and floats from the one block. *)
let marginal_cells ctx ~with_saturation c ~time:tz ~res =
  Metrics.incr c_marginals;
  let a = ctx.cells and inv = ctx.inv and w = ctx.w in
  let qz = a.(3) in
  let price = a.(4) in
  let beta = a.(5) in
  let one_minus_qz = 1.0 -. qz in
  let len = length c in
  a.(0) <- 0.0 (* mz *);
  a.(1) <- 1.0 (* compz *);
  a.(2) <- 0.0 (* delta *);
  for j = 0 to len - 1 do
    let b = hdr + (w * j) in
    let tj = int_of_float c.(b + otime) in
    let qj = c.(b + oq) in
    if tj < tz then begin
      a.(0) <- a.(0) +. inv.(tz - tj);
      a.(1) <- a.(1) *. (1.0 -. qj)
    end
    else if tj = tz then begin
      (* z's primitive probability joins the same-time competition *)
      a.(1) <- a.(1) *. (1.0 -. qj);
      let old_p =
        if qj <= 0.0 then 0.0
        else if with_saturation then c.(b + oprob)
        else qj *. c.(b + ocomp)
      in
      a.(2) <- a.(2) -. (c.(b + oprice) *. old_p *. qz)
    end
    else begin
      (* later triple: its memory gains 1/(Δt), its competition gains
         (1 − q_z) *)
      let dl =
        if qj <= 0.0 then 0.0
        else if with_saturation then begin
          let m' = c.(b + omem) +. inv.(tj - tz) in
          let sat = if m' = 0.0 then 1.0 else c.(b + obeta) ** m' in
          (qj *. sat *. c.(b + ocomp) *. one_minus_qz) -. c.(b + oprob)
        end
        else begin
          let p0 = qj *. c.(b + ocomp) in
          (p0 *. one_minus_qz) -. p0
        end
      in
      a.(2) <- a.(2) +. (c.(b + oprice) *. dl)
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
