module Budget = Revmax_prelude.Budget
module Err = Revmax_prelude.Err
module Metrics = Revmax_prelude.Metrics
module Instance = Revmax.Instance
module Strategy = Revmax.Strategy
module Triple = Revmax.Triple
module Greedy = Revmax.Greedy
module Revenue = Revmax.Revenue
module Shard_greedy = Revmax.Shard_greedy
module Io = Revmax.Io

type config = {
  data_dir : string;
  snapshot_every : int;
  sync_every : int;
  replan_evals : int option;
  retry : Supervisor.policy;
  seed : int;
}

let default_config ~data_dir =
  {
    data_dir;
    snapshot_every = 64;
    sync_every = 1;
    replan_evals = None;
    retry = Supervisor.default_policy;
    seed = 0;
  }

(* Which chains may hold cached aggregates a copy-based replan would have
   rebuilt differently (see [canonicalize]). *)
type grown = Every_chain | User of int | No_chain

type t = {
  cfg : config;
  inst : Instance.t;
  strategy_ : Strategy.t; (* the live strategy: every event mutates it in place *)
  mutable grown : grown;
  adopted : (int * int, unit) Hashtbl.t;
  organic : int array; (* per-item capacity units consumed outside the plan *)
  stale : (int, unit) Hashtbl.t; (* users whose last replan was truncated *)
  mutable now_ : int; (* largest event time seen *)
  mutable seq_ : int64; (* events applied *)
  mutable realized_rec : float; (* revenue from recommended adoptions *)
  mutable realized_org : float; (* revenue from organic adoptions *)
  journal : Journal.t;
  sup : Supervisor.t;
  mutable events_since_snapshot : int;
}

let c_requests = Metrics.counter "serve.requests"
let c_events = Metrics.counter "serve.events"
let c_adopt_rec = Metrics.counter "serve.adoptions_recommended"
let c_adopt_org = Metrics.counter "serve.adoptions_organic"
let c_clicks = Metrics.counter "serve.clicks"
let c_clicks_served = Metrics.counter "serve.clicks_on_served"
let c_replans = Metrics.counter "serve.replans"
let c_replan_trunc = Metrics.counter "serve.replans_truncated"
let c_released = Metrics.counter "serve.released_pairs"
let c_snapshots = Metrics.counter "serve.snapshots"
let c_recovered = Metrics.counter "serve.recovered_events"
let c_refused = Metrics.counter "serve.events_refused"
let c_stale_answers = Metrics.counter "serve.stale_answers"
let c_dropped_conns = Metrics.counter "serve.dropped_connections"
let t_request = Metrics.timer "serve.request_seconds"
let t_replan = Metrics.timer "serve.replan_seconds"
let t_snapshot = Metrics.timer "serve.snapshot_seconds"

let snapshot_path cfg = Filename.concat cfg.data_dir "snapshot.revmax"
let journal_path cfg = Filename.concat cfg.data_dir "journal.wal"

(* ------------------------------------------------------------------ *)
(* State observation                                                   *)
(* ------------------------------------------------------------------ *)

let strategy st = st.strategy_
let seq st = st.seq_
let now st = st.now_
let realized_revenue st = st.realized_rec +. st.realized_org
let organic_consumed st i = st.organic.(i)

let stale_users st =
  Hashtbl.fold (fun u () acc -> u :: acc) st.stale [] |> List.sort compare

let is_degraded st = Hashtbl.length st.stale > 0

(* ------------------------------------------------------------------ *)
(* Planning-state transitions (the deterministic fold)                 *)
(* ------------------------------------------------------------------ *)

let effective_capacity st i = max 0 (Instance.capacity st.inst i - st.organic.(i))

(* Chain canonicalization. Chain aggregates are floating-point folds whose
   bits depend on insertion order. The serving fold's outputs (top-k
   scores, replan marginals) are defined as those of planning each replan
   on a fresh [Strategy.copy], which rebuilds every chain in ascending
   (time, item) order. Replanning in place keeps them bit-identical by
   recomputing, before each replan, exactly the chains such a copy would
   have rebuilt differently: every chain after the boot plan (a greedy
   run inserts out of order), afterwards only the chains of the user the
   previous replan grew. Removals need nothing: [Chain.remove] ends in the
   same rebuild. *)
let canonicalize st =
  (match st.grown with
  | Every_chain -> Strategy.recompute_chains st.strategy_
  | User u -> Strategy.recompute_chains ~u st.strategy_
  | No_chain -> ());
  st.grown <- No_chain

(* Replan one user against the committed remainder of the strategy: the
   sharded planner's repair path, run in place over the user's own
   candidate row.
   Selection is restricted to the user's future slots; adopted pairs are
   out, and a new (user, item) pair must fit the item's *effective*
   capacity (instance capacity minus externally consumed units). Because
   exactly one user is replanned per call, and [allowed] is consulted
   before the first selection, checking the pair-count against the
   pre-replan strategy is exact. The work cap is a deterministic
   evaluation budget — wall-clock caps would make live execution and WAL
   replay diverge; a truncated replan leaves a valid prefix and flags the
   user for the next Repair event (degraded mode). *)
let replan_user st ~capped u =
  let budget =
    if capped then Option.map (fun n -> Budget.create ~max_evaluations:n ()) st.cfg.replan_evals
    else None
  in
  let s = st.strategy_ in
  let allowed (z : Triple.t) =
    z.t > st.now_
    && (not (Hashtbl.mem st.adopted (z.u, z.i)))
    && (Strategy.item_has_user s ~i:z.i ~u:z.u
       || Strategy.item_user_count s z.i < effective_capacity st z.i)
  in
  let (gstats : Greedy.stats) =
    Metrics.span_t t_replan (fun () ->
        canonicalize st;
        Greedy.plan_rows ?budget ~allowed s ~users:(u, u + 1))
  in
  st.grown <- User u;
  Metrics.incr c_replans;
  if gstats.truncated then begin
    Hashtbl.replace st.stale u ();
    Metrics.incr c_replan_trunc
  end
  else Hashtbl.remove st.stale u

(* When consumed stock pushes an item's effective capacity below its
   current holder count, release the holders of globally lowest removal
   loss (ties to the lower user id) and replan each — the same
   deterministic reconciliation contract, and the same ranking key, as
   the sharded planner's. The holder count is one array read, so an item
   within its capacity (the common case) costs O(1). *)
let reconcile_item st i =
  let s = st.strategy_ in
  let excess = Strategy.item_user_count s i - effective_capacity st i in
  if excess > 0 then begin
    let holders = Strategy.item_holders s i in
    let ranked =
      List.sort compare (List.map (fun u -> (Shard_greedy.removal_loss st.inst s ~u ~i, u)) holders)
    in
    let released =
      List.filteri (fun rank _ -> rank < excess) ranked |> List.map snd |> List.sort compare
    in
    List.iter (fun u -> Strategy.remove_pair s ~u ~i) released;
    Metrics.incr c_released ~by:excess;
    List.iter (fun u -> replan_user st ~capped:true u) released
  end

let apply_state st (ev : Journal.event) =
  Metrics.incr c_events;
  match ev with
  | Click { u; i; t } ->
      st.now_ <- max st.now_ t;
      Metrics.incr c_clicks;
      if Strategy.item_has_user st.strategy_ ~i ~u then Metrics.incr c_clicks_served
  | Adopt { u; i; t } ->
      st.now_ <- max st.now_ t;
      if not (Hashtbl.mem st.adopted (u, i)) then begin
        Hashtbl.replace st.adopted (u, i) ();
        let price = Instance.price st.inst ~i ~time:t in
        if Strategy.item_has_user st.strategy_ ~i ~u then begin
          Metrics.incr c_adopt_rec;
          st.realized_rec <- st.realized_rec +. price
        end
        else begin
          Metrics.incr c_adopt_org;
          st.realized_org <- st.realized_org +. price
        end;
        (* the adopter consumes one capacity unit for the rest of the
           horizon whether or not the plan had reached them; their planned
           recommendations of the item are now worthless *)
        st.organic.(i) <- min (Instance.capacity st.inst i) (st.organic.(i) + 1);
        Strategy.remove_pair st.strategy_ ~u ~i;
        reconcile_item st i;
        replan_user st ~capped:true u
      end
  | Cap { i; delta } ->
      let before = st.organic.(i) in
      st.organic.(i) <- max 0 (min (Instance.capacity st.inst i) (before + delta));
      if st.organic.(i) > before then reconcile_item st i
  | Repair ->
      let users = stale_users st in
      List.iter (fun u -> replan_user st ~capped:false u) users

let validate_event st (ev : Journal.event) =
  let err msg = Error (Err.Unexpected { context = "serve.event"; msg }) in
  let check_uit u i t =
    if u < 0 || u >= Instance.num_users st.inst then err (Printf.sprintf "user %d out of range" u)
    else if i < 0 || i >= Instance.num_items st.inst then
      err (Printf.sprintf "item %d out of range" i)
    else if t < 1 || t > Instance.horizon st.inst then err (Printf.sprintf "time %d out of range" t)
    else Ok ()
  in
  match ev with
  | Journal.Adopt { u; i; t } | Journal.Click { u; i; t } -> check_uit u i t
  | Journal.Cap { i; _ } ->
      if i < 0 || i >= Instance.num_items st.inst then err (Printf.sprintf "item %d out of range" i)
      else Ok ()
  | Journal.Repair -> Ok ()

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let write_snapshot st oc =
  Chaos.point "snapshot.write";
  let fp fmt = Printf.fprintf oc fmt in
  fp "revmax-serve-snapshot 1\n";
  fp "seq %Ld\n" st.seq_;
  fp "now %d\n" st.now_;
  fp "realized %.17g %.17g\n" st.realized_rec st.realized_org;
  List.iter (fun (u, i) -> fp "adopted %d %d\n" u i)
    (Hashtbl.fold (fun k () acc -> k :: acc) st.adopted [] |> List.sort compare);
  Array.iteri (fun i n -> if n > 0 then fp "organic %d %d\n" i n) st.organic;
  List.iter (fun u -> fp "stale %d\n" u) (stale_users st);
  List.iter (fun (z : Triple.t) -> fp "triple %d %d %d\n" z.u z.i z.t)
    (Strategy.to_list st.strategy_);
  fp "end\n"

type snapshot = {
  s_seq : int64;
  s_now : int;
  s_realized_rec : float;
  s_realized_org : float;
  s_adopted : (int * int) list;
  s_organic : (int * int) list;
  s_stale : int list;
  s_strategy : Strategy.t;
}

(* Every record is checked against the instance as it is read, and the
   strategy is rebuilt here, so a snapshot that does not describe a state
   of this instance is a [Parse_error] naming its line, never an index
   error or an out-of-range state later on. *)
let load_snapshot inst path =
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_text path @@ fun ic ->
    let line_no = ref 0 in
    let fail msg = Err.raise_ (Err.Parse_error { file = path; line = !line_no; col = 0; msg }) in
    let next () =
      match In_channel.input_line ic with
      | None -> fail "unexpected end of snapshot"
      | Some l ->
          incr line_no;
          String.split_on_char ' ' (String.trim l) |> List.filter (fun s -> s <> "")
    in
    let int_f s = match int_of_string_opt s with Some v -> v | None -> fail ("bad integer " ^ s) in
    let i64_f s =
      match Int64.of_string_opt s with
      | Some v when Int64.compare v 0L >= 0 -> v
      | _ -> fail ("bad sequence " ^ s)
    in
    let float_f s =
      match float_of_string_opt s with
      | Some v when Float.is_finite v -> v
      | _ -> fail ("bad float " ^ s)
    in
    let in_range what v n =
      if v < 0 || v >= n then fail (Printf.sprintf "%s %d out of range" what v) else v
    in
    let user s = in_range "user" (int_f s) (Instance.num_users inst) in
    let item s = in_range "item" (int_f s) (Instance.num_items inst) in
    (match next () with
    | [ "revmax-serve-snapshot"; "1" ] -> ()
    | _ -> fail "expected header: revmax-serve-snapshot 1");
    let s_seq = match next () with [ "seq"; v ] -> i64_f v | _ -> fail "expected: seq <n>" in
    let s_now =
      match next () with
      | [ "now"; v ] ->
          let t = int_f v in
          if t < 0 || t > Instance.horizon inst then fail (Printf.sprintf "time %d out of range" t)
          else t
      | _ -> fail "expected: now <t>"
    in
    let s_realized_rec, s_realized_org =
      match next () with
      | [ "realized"; a; b ] -> (float_f a, float_f b)
      | _ -> fail "expected: realized <rec> <org>"
    in
    let adopted = ref [] and organic = ref [] and stale = ref [] and triples = ref [] in
    let finished = ref false in
    while not !finished do
      match next () with
      | [ "end" ] -> finished := true
      | [ "adopted"; u; i ] ->
          let u = user u in
          adopted := (u, item i) :: !adopted
      | [ "organic"; i; n ] ->
          let i = item i in
          let n = int_f n in
          if n < 0 || n > Instance.capacity inst i then
            fail (Printf.sprintf "organic count %d outside 0..capacity %d" n (Instance.capacity inst i));
          organic := (i, n) :: !organic
      | [ "stale"; u ] -> stale := user u :: !stale
      | [ "triple"; u; i; t ] ->
          let z = Triple.make ~u:(int_f u) ~i:(int_f i) ~t:(int_f t) in
          triples := (z, !line_no) :: !triples
      | tag :: _ -> fail ("unknown snapshot record " ^ tag)
      | [] -> ()
    done;
    (* in sorted order, as [write_snapshot] lists them, so every chain is
       built ascending; a bad or duplicate triple names its own line *)
    let s_strategy = Strategy.create inst in
    List.iter
      (fun (z, line) ->
        match Strategy.add_result s_strategy z with
        | Ok () -> ()
        | Error e ->
            line_no := line;
            fail (Err.message e))
      (List.stable_sort (fun (a, _) (b, _) -> Triple.compare a b) (List.rev !triples));
    (* a constraint breach is no one line's: it is reported at [end] *)
    (match Strategy.validate s_strategy with Ok () -> () | Error e -> fail (Err.message e));
    Some
      {
        s_seq;
        s_now;
        s_realized_rec;
        s_realized_org;
        s_adopted = List.rev !adopted;
        s_organic = List.rev !organic;
        s_stale = List.rev !stale;
        s_strategy;
      }

let save_snapshot st =
  let r =
    Supervisor.run st.sup ~name:"snapshot.write" (fun _budget ->
        Metrics.span_t t_snapshot (fun () ->
            Io.save_atomic (snapshot_path st.cfg) (fun oc -> write_snapshot st oc)))
  in
  match r with
  | Ok () ->
      Metrics.incr c_snapshots;
      st.events_since_snapshot <- 0;
      (* every journaled event is now covered by the snapshot; dropping
         them is safe, and failure to drop them is harmless (replay skips
         records whose seq the snapshot covers) *)
      (match Supervisor.run st.sup ~name:"journal.rotate" (fun _ -> Journal.rotate st.journal) with
      | Ok () -> ()
      | Error e -> Metrics.Log.warn "serve: journal rotation failed (%s); continuing\n" (Err.message e));
      Ok ()
  | Error e ->
      Metrics.Log.warn "serve: snapshot failed (%s); will retry next interval\n" (Err.message e);
      Error e

(* ------------------------------------------------------------------ *)
(* Boot / recovery                                                     *)
(* ------------------------------------------------------------------ *)

let rec mkdirs dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create cfg inst =
  mkdirs cfg.data_dir;
  let snap = load_snapshot inst (snapshot_path cfg) in
  let journal, records = Journal.openw ~sync_every:cfg.sync_every (journal_path cfg) in
  let sup = Supervisor.create ~policy:cfg.retry ~seed:cfg.seed () in
  let st =
    match snap with
    | Some s ->
        let strategy_ = s.s_strategy in
        let adopted = Hashtbl.create 64 in
        List.iter (fun p -> Hashtbl.replace adopted p ()) s.s_adopted;
        let organic = Array.make (Instance.num_items inst) 0 in
        List.iter (fun (i, n) -> organic.(i) <- n) s.s_organic;
        let stale = Hashtbl.create 8 in
        List.iter (fun u -> Hashtbl.replace stale u ()) s.s_stale;
        {
          cfg;
          inst;
          strategy_;
          (* loaded in sorted order: every chain was built ascending *)
          grown = No_chain;
          adopted;
          organic;
          stale;
          now_ = s.s_now;
          seq_ = s.s_seq;
          realized_rec = s.s_realized_rec;
          realized_org = s.s_realized_org;
          journal;
          sup;
          events_since_snapshot = 0;
        }
    | None ->
        (* first boot (or crash before the boot snapshot landed): the
           initial plan is a deterministic full greedy run, so re-deriving
           it reproduces exactly the state the journal's events expect *)
        let strategy_, _ = Greedy.run inst in
        {
          cfg;
          inst;
          strategy_;
          grown = Every_chain;
          adopted = Hashtbl.create 64;
          organic = Array.make (Instance.num_items inst) 0;
          stale = Hashtbl.create 8;
          now_ = 0;
          seq_ = 0L;
          realized_rec = 0.0;
          realized_org = 0.0;
          journal;
          sup;
          events_since_snapshot = 0;
        }
  in
  (* replay the journal suffix the snapshot does not cover *)
  List.iter
    (fun (seq, ev) ->
      if Int64.compare seq st.seq_ > 0 then begin
        apply_state st ev;
        st.seq_ <- seq;
        Metrics.incr c_recovered
      end)
    records;
  (* write-through boot snapshot: makes the next recovery cheap and means
     a crash loop cannot re-pay the initial planning cost forever *)
  (match save_snapshot st with
  | Ok () -> ()
  | Error e -> Metrics.Log.warn "serve: boot snapshot failed (%s)\n" (Err.message e));
  st

let close st =
  (match save_snapshot st with
  | Ok () -> ()
  | Error e -> Metrics.Log.warn "serve: final snapshot failed (%s)\n" (Err.message e));
  Journal.close st.journal

(* ------------------------------------------------------------------ *)
(* Live event path                                                     *)
(* ------------------------------------------------------------------ *)

let apply st ev =
  match validate_event st ev with
  | Error e ->
      Metrics.incr c_refused;
      Error e
  | Ok () -> (
      let next = Int64.succ st.seq_ in
      (* write-ahead: the event is durable (per the sync_every contract)
         before any state changes; a refused append leaves state and
         journal both untouched, so the client can safely retry *)
      match Supervisor.run st.sup ~name:"journal.append" (fun _budget ->
                Journal.append st.journal ~seq:next ev)
      with
      | Error e ->
          Metrics.incr c_refused;
          Error e
      | Ok () ->
          apply_state st ev;
          st.seq_ <- next;
          st.events_since_snapshot <- st.events_since_snapshot + 1;
          if st.cfg.snapshot_every > 0 && st.events_since_snapshot >= st.cfg.snapshot_every then
            ignore (save_snapshot st : (unit, Err.t) result);
          Ok next)

let topk_of_strategy inst s ~u ~time ~k =
  let scored =
    List.filter_map
      (fun (z : Triple.t) ->
        if z.u = u && z.t = time then
          Some (z.i, Instance.price inst ~i:z.i ~time *. Revenue.dynamic_probability_in s z)
        else None)
      (Strategy.to_list s)
  in
  let sorted =
    List.sort (fun (i1, s1) (i2, s2) -> if s1 <> s2 then compare s2 s1 else compare i1 i2) scored
  in
  List.filteri (fun rank _ -> rank < k) sorted

let topk st ~u ~time ~k =
  let stale = is_degraded st in
  if stale then Metrics.incr c_stale_answers;
  (topk_of_strategy st.inst st.strategy_ ~u ~time ~k, stale)

(* ------------------------------------------------------------------ *)
(* Wire protocol                                                       *)
(* ------------------------------------------------------------------ *)

module Wire = struct
  type request =
    | Topk of { u : int; time : int; k : int }
    | Event of Journal.event
    | Stats
    | Snapshot
    | Dump
    | Shutdown

  type response =
    | Items of { stale : bool; items : (int * float) list }
    | Ack of { seq : int64; stale : bool }
    | Stats_r of { seq : int64; size : int; stale : bool; realized : float; now : int }
    | Dump_r of (int * int * int) list
    | Err_r of string

  let max_frame = 1 lsl 24

  let rec read_retry fd b off len =
    try Unix.read fd b off len with Unix.Unix_error (Unix.EINTR, _, _) -> read_retry fd b off len

  let read_exact fd b off len =
    let off = ref off and remaining = ref len in
    let eof = ref false in
    while !remaining > 0 && not !eof do
      match read_retry fd b !off !remaining with
      | 0 -> eof := true
      | n ->
          off := !off + n;
          remaining := !remaining - n
    done;
    !remaining = 0

  let write_all fd b =
    let off = ref 0 and remaining = ref (Bytes.length b) in
    while !remaining > 0 do
      let n =
        try Unix.write fd b !off !remaining
        with Unix.Unix_error (Unix.EINTR, _, _) -> 0
      in
      off := !off + n;
      remaining := !remaining - n
    done

  let write_frame fd payload =
    let n = Bytes.length payload in
    let framed = Bytes.create (4 + n) in
    Bytes.set_int32_le framed 0 (Int32.of_int n);
    Bytes.blit payload 0 framed 4 n;
    write_all fd framed

  (* The payload buffer grows with what arrives: it starts at no more
     than 4 KiB and never grows past twice the bytes received, so a
     header that claims more than the peer sends costs about what was
     sent, not what was claimed. *)
  let read_frame fd =
    let hdr = Bytes.create 4 in
    if not (read_exact fd hdr 0 4) then None
    else
      let n = Int32.to_int (Bytes.get_int32_le hdr 0) in
      if n < 1 || n > max_frame then None
      else
        (* [buf] is full up to [off]: fill the rest, then double it *)
        let rec fill buf off =
          let len = Bytes.length buf in
          if not (read_exact fd buf off (len - off)) then None
          else if len = n then Some buf
          else begin
            let b = Bytes.create (min n (2 * len)) in
            Bytes.blit buf 0 b 0 len;
            fill b len
          end
        in
        fill (Bytes.create (min n 4096)) 0

  (* little builder: tag byte + i32/i64/f64 fields *)
  let buf_i32 b v = Buffer.add_int32_le b (Int32.of_int v)
  let buf_i64 b v = Buffer.add_int64_le b v
  let buf_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

  let event_tag = function
    | Journal.Adopt _ -> 1
    | Journal.Click _ -> 2
    | Journal.Cap _ -> 3
    | Journal.Repair -> 4

  let encode_request req =
    let b = Buffer.create 32 in
    (match req with
    | Topk { u; time; k } ->
        Buffer.add_uint8 b 1;
        buf_i32 b u;
        buf_i32 b time;
        buf_i32 b k
    | Event ev -> (
        Buffer.add_uint8 b 2;
        Buffer.add_uint8 b (event_tag ev);
        match ev with
        | Journal.Adopt { u; i; t } | Journal.Click { u; i; t } ->
            buf_i32 b u;
            buf_i32 b i;
            buf_i32 b t
        | Journal.Cap { i; delta } ->
            buf_i32 b i;
            buf_i32 b delta
        | Journal.Repair -> ())
    | Stats -> Buffer.add_uint8 b 3
    | Snapshot -> Buffer.add_uint8 b 4
    | Dump -> Buffer.add_uint8 b 5
    | Shutdown -> Buffer.add_uint8 b 6);
    Buffer.to_bytes b

  let get_i32 p off = Int32.to_int (Bytes.get_int32_le p off)

  let decode_request p =
    let len = Bytes.length p in
    if len < 1 then Error "empty request"
    else
      match Bytes.get_uint8 p 0 with
      | 1 when len = 13 -> Ok (Topk { u = get_i32 p 1; time = get_i32 p 5; k = get_i32 p 9 })
      | 2 when len >= 2 -> (
          match Bytes.get_uint8 p 1 with
          | 1 when len = 14 ->
              Ok (Event (Journal.Adopt { u = get_i32 p 2; i = get_i32 p 6; t = get_i32 p 10 }))
          | 2 when len = 14 ->
              Ok (Event (Journal.Click { u = get_i32 p 2; i = get_i32 p 6; t = get_i32 p 10 }))
          | 3 when len = 10 -> Ok (Event (Journal.Cap { i = get_i32 p 2; delta = get_i32 p 6 }))
          | 4 when len = 2 -> Ok (Event Journal.Repair)
          | tag -> Error (Printf.sprintf "bad event tag %d (len %d)" tag len))
      | 3 when len = 1 -> Ok Stats
      | 4 when len = 1 -> Ok Snapshot
      | 5 when len = 1 -> Ok Dump
      | 6 when len = 1 -> Ok Shutdown
      | tag -> Error (Printf.sprintf "bad request tag %d (len %d)" tag len)

  let encode_response resp =
    let b = Buffer.create 64 in
    (match resp with
    | Items { stale; items } ->
        Buffer.add_uint8 b 101;
        Buffer.add_uint8 b (if stale then 1 else 0);
        buf_i32 b (List.length items);
        List.iter
          (fun (i, score) ->
            buf_i32 b i;
            buf_f64 b score)
          items
    | Ack { seq; stale } ->
        Buffer.add_uint8 b 102;
        buf_i64 b seq;
        Buffer.add_uint8 b (if stale then 1 else 0)
    | Stats_r { seq; size; stale; realized; now } ->
        Buffer.add_uint8 b 103;
        buf_i64 b seq;
        buf_i32 b size;
        Buffer.add_uint8 b (if stale then 1 else 0);
        buf_f64 b realized;
        buf_i32 b now
    | Dump_r triples ->
        Buffer.add_uint8 b 104;
        buf_i32 b (List.length triples);
        List.iter
          (fun (u, i, t) ->
            buf_i32 b u;
            buf_i32 b i;
            buf_i32 b t)
          triples
    | Err_r msg ->
        Buffer.add_uint8 b 105;
        Buffer.add_string b msg);
    Buffer.to_bytes b

  let get_f64 p off = Int64.float_of_bits (Bytes.get_int64_le p off)

  let decode_response p =
    let len = Bytes.length p in
    if len < 1 then Error "empty response"
    else
      match Bytes.get_uint8 p 0 with
      | 101 when len >= 6 ->
          let n = get_i32 p 2 in
          if len <> 6 + (12 * n) then Error "bad items length"
          else
            Ok
              (Items
                 {
                   stale = Bytes.get_uint8 p 1 <> 0;
                   items =
                     List.init n (fun k -> (get_i32 p (6 + (12 * k)), get_f64 p (10 + (12 * k))));
                 })
      | 102 when len = 10 ->
          Ok (Ack { seq = Bytes.get_int64_le p 1; stale = Bytes.get_uint8 p 9 <> 0 })
      | 103 when len = 26 ->
          Ok
            (Stats_r
               {
                 seq = Bytes.get_int64_le p 1;
                 size = get_i32 p 9;
                 stale = Bytes.get_uint8 p 13 <> 0;
                 realized = get_f64 p 14;
                 now = get_i32 p 22;
               })
      | 104 when len >= 5 ->
          let n = get_i32 p 1 in
          if len <> 5 + (12 * n) then Error "bad dump length"
          else
            Ok
              (Dump_r
                 (List.init n (fun k ->
                      (get_i32 p (5 + (12 * k)), get_i32 p (9 + (12 * k)), get_i32 p (13 + (12 * k))))))
      | 105 -> Ok (Err_r (Bytes.sub_string p 1 (len - 1)))
      | tag -> Error (Printf.sprintf "bad response tag %d (len %d)" tag len)
end

(* ------------------------------------------------------------------ *)
(* Serving loops                                                       *)
(* ------------------------------------------------------------------ *)

let handle st (req : Wire.request) : Wire.response * [ `Continue | `Shutdown ] =
  match req with
  | Wire.Topk { u; time; k } ->
      if u < 0 || u >= Instance.num_users st.inst then
        (Wire.Err_r (Printf.sprintf "user %d out of range" u), `Continue)
      else
        let items, stale = topk st ~u ~time ~k in
        (Wire.Items { stale; items }, `Continue)
  | Wire.Event ev -> (
      match apply st ev with
      | Ok seq -> (Wire.Ack { seq; stale = is_degraded st }, `Continue)
      | Error e -> (Wire.Err_r (Err.message e), `Continue))
  | Wire.Stats ->
      ( Wire.Stats_r
          {
            seq = st.seq_;
            size = Strategy.size st.strategy_;
            stale = is_degraded st;
            realized = realized_revenue st;
            now = st.now_;
          },
        `Continue )
  | Wire.Snapshot -> (
      match save_snapshot st with
      | Ok () -> (Wire.Ack { seq = st.seq_; stale = is_degraded st }, `Continue)
      | Error e -> (Wire.Err_r (Err.message e), `Continue))
  | Wire.Dump ->
      ( Wire.Dump_r
          (List.map (fun (z : Triple.t) -> (z.u, z.i, z.t)) (Strategy.to_list st.strategy_)),
        `Continue )
  | Wire.Shutdown -> (Wire.Ack { seq = st.seq_; stale = is_degraded st }, `Shutdown)

(* One connection's request loop. A client disconnect mid-response (EPIPE
   with SIGPIPE ignored, or a reset) is a typed, logged event that drops
   only this connection — the satellite hardening contract. *)
let serve_conn st ~in_fd ~out_fd : [ `Eof | `Shutdown | `Dropped ] =
  let rec loop () =
    match Wire.read_frame in_fd with
    | None -> `Eof
    | Some payload -> (
        Metrics.incr c_requests;
        let resp, next =
          Metrics.span_t t_request (fun () ->
              match Wire.decode_request payload with
              | Error msg -> (Wire.Err_r ("bad request: " ^ msg), `Continue)
              | Ok req -> (
                  try
                    Chaos.point "server.handle";
                    handle st req
                  with
                  | Err.Error e -> (Wire.Err_r (Err.message e), `Continue)
                  | Sys_error msg -> (Wire.Err_r msg, `Continue)))
        in
        match Wire.write_frame out_fd (Wire.encode_response resp) with
        | () -> ( match next with `Shutdown -> `Shutdown | `Continue -> loop ())
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET) as code, _, _) ->
            Metrics.incr c_dropped_conns;
            Metrics.Log.warn "serve: %s\n"
              (Err.message
                 (Err.Io_error
                    {
                      path = "<client>";
                      msg =
                        Printf.sprintf "connection closed mid-response (%s); request dropped"
                          (Unix.error_message code);
                    }));
            `Dropped)
  in
  loop ()

let with_sigpipe_ignored f =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | old -> Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old) f
  | exception (Invalid_argument _ | Sys_error _) -> f () (* no SIGPIPE on this platform *)

let serve st ~in_fd ~out_fd =
  with_sigpipe_ignored (fun () -> ignore (serve_conn st ~in_fd ~out_fd))

let serve_unix st ~path =
  with_sigpipe_ignored @@ fun () ->
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      Metrics.Log.info "serve: listening on %s\n" path;
      let rec accept_loop () =
        let client, _ = Unix.accept sock in
        let outcome =
          Fun.protect
            ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
            (fun () ->
              try serve_conn st ~in_fd:client ~out_fd:client
              with Unix.Unix_error (code, _, _) ->
                Metrics.incr c_dropped_conns;
                Metrics.Log.warn "serve: connection error (%s); client dropped\n"
                  (Unix.error_message code);
                `Dropped)
        in
        match outcome with `Shutdown -> () | `Eof | `Dropped -> accept_loop ()
      in
      accept_loop ())
