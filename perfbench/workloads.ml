(* One repetition of a workload.

   A repetition logs named samples, which the run pools across
   repetitions, the base each derived per-layer figure was computed from,
   the operations it attempted and the checks that failed. Every layer is
   timed from outside, around calls into its public functions; a traced
   repetition also turns the Metrics registry on, diffs its snapshots
   around the same calls and records spans. *)

module Instance = Revmax.Instance
module Greedy = Revmax.Greedy
module Strategy = Revmax.Strategy
module Revenue = Revmax.Revenue
module Shard_greedy = Revmax.Shard_greedy
module Triple = Revmax.Triple
module Scalability = Revmax_datagen.Scalability
module Pipeline = Revmax_datagen.Pipeline
module Server = Revmax_serve.Server
module Journal = Revmax_serve.Journal
module Driver = Revmax_serve.Driver
module Metrics = Revmax_prelude.Metrics
module Pool = Revmax_prelude.Pool
module Budget = Revmax_prelude.Budget
module Err = Revmax_prelude.Err
module Util = Revmax_prelude.Util

(* ---- sizes: the user or event count is each workload's run length ---- *)

let dense_users = 1500
let mmap_users = 20_000
let contended_users = 400
let serve_users = 300
let serve_events = 1000

(* ---- what a repetition logs ---- *)

type log = {
  samples : (string, float list) Hashtbl.t;  (** newest first *)
  notes : (string, string) Hashtbl.t;
  mutable failures : string list;  (** newest first *)
  mutable attempted : int;
}

type ctx = {
  seed : int;
  dir : string;  (** scratch directory owned by this repetition *)
  traced : bool;
  log : log;
}

let sample ctx name v =
  Hashtbl.replace ctx.log.samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt ctx.log.samples name))

let samples log name =
  Array.of_list (List.rev (Option.value ~default:[] (Hashtbl.find_opt log.samples name)))

(* the base a derived per-layer figure was computed from *)
let note ctx name fmt = Printf.ksprintf (Hashtbl.replace ctx.log.notes name) fmt

let fail ctx fmt = Printf.ksprintf (fun s -> ctx.log.failures <- s :: ctx.log.failures) fmt

(* one operation, failed when [ok] is false *)
let op ctx ok fmt =
  ctx.log.attempted <- ctx.log.attempted + 1;
  Printf.ksprintf (fun s -> if not ok then fail ctx "%s" s) fmt

let timed ?req name f = Span.with_ ?req name (fun () -> Util.time_it f)

(* Run the set-up [f k] for k = 1 .. n, sample each duration as setup_s
   and keep the last result. A set-up is short next to the measured
   phase, so several samples per repetition steady its median; each
   starts from a collected heap, as in a fresh process. *)
let set_up ctx ~n f =
  let rec go k =
    Gc.full_major ();
    let r, dt = f k in
    sample ctx "setup_s" dt;
    if k < n then go (k + 1) else r
  in
  go 1

(* the registry activity of [f] (empty when tracing is off) *)
let registry f =
  if not (Metrics.enabled ()) then (f (), [])
  else
    let before = Metrics.snapshot () in
    let r = f () in
    (r, Metrics.diff ~before ~after:(Metrics.snapshot ()))

let count snap name = match List.assoc_opt name snap with Some (Metrics.Counter n) -> n | _ -> 0

let summary snap name =
  match List.assoc_opt name snap with
  | Some (Metrics.Summary { count; sum; _ }) -> (count, sum)
  | _ -> (0, 0.0)

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- correctness gates ---- *)

(* A plan passes when it satisfies every constraint; its revenue is the
   exact [Revenue.total], never the planner's running sum. *)
let check_plan ctx ~what s =
  let valid = Strategy.validate s in
  let revenue = Revenue.total s in
  op ctx
    (Result.is_ok valid && Float.is_finite revenue && revenue > 0.0)
    "%s: %s, revenue %g" what
    (match valid with Ok () -> "valid" | Error e -> Err.message e)
    revenue;
  revenue

let sorted_triples s =
  List.sort compare (List.map (fun (z : Triple.t) -> (z.u, z.i, z.t)) (Strategy.to_list s))

(* ---- instance layer ---- *)

(* Build a heap instance; traced runs also report its live-heap size. *)
let build_heap ctx build =
  if not ctx.traced then timed "instance.build" build
  else begin
    Gc.full_major ();
    let live0 = (Gc.stat ()).Gc.live_words in
    let inst, build_s = timed "instance.build" build in
    Gc.full_major ();
    let live1 = (Gc.stat ()).Gc.live_words in
    sample ctx "instance.build_s" build_s;
    sample ctx "instance.heap_mb" (mb_of_words (float_of_int (live1 - live0)));
    sample ctx "instance.pairs" (float_of_int (Instance.pair_count inst));
    (inst, build_s)
  end

(* ---- greedy layer (traced runs) ---- *)

(* Per-layer figures of one full [Greedy.run] that took [plan_s] and
   allocated [words] minor words, plus a set-up-only run: a budget of one
   evaluation stops after the first selection, which isolates candidate
   registration and the initial key computation. *)
let greedy_layers ctx inst ~plan_s ~words ~heap_words (st : Greedy.stats) =
  let w0 = Gc.minor_words () in
  let (_, st1), build_s =
    timed "greedy.build" (fun () -> Greedy.run ~budget:(Budget.create ~max_evaluations:1 ()) inst)
  in
  let build_words = Gc.minor_words () -. w0 in
  let evals = float_of_int st.Greedy.marginal_evaluations in
  let selected = float_of_int st.Greedy.selected in
  sample ctx "greedy.evaluations" evals;
  sample ctx "greedy.pops" (float_of_int st.Greedy.pops);
  sample ctx "greedy.selected" selected;
  sample ctx "greedy.ns_per_eval" (1e9 *. ratio plan_s evals);
  note ctx "greedy.ns_per_eval" "plan_s %.4f s / %.0f evaluations" plan_s evals;
  sample ctx "greedy.us_per_selection" (1e6 *. ratio plan_s selected);
  note ctx "greedy.us_per_selection" "plan_s %.4f s / %.0f selections" plan_s selected;
  let steady = selected -. float_of_int st1.Greedy.selected in
  sample ctx "greedy.minor_words_per_selection" (ratio (words -. build_words) steady);
  note ctx "greedy.minor_words_per_selection" "(%.0f - %.0f set-up) words / %.0f selections" words
    build_words steady;
  sample ctx "greedy.top_heap_mb" (mb_of_words heap_words);
  sample ctx "greedy.build_s" build_s

(* [f ()] and how far the major heap grew above its size at the call,
   read at the end of each major cycle and on return. The process-wide
   top_heap_words would read 0 once an earlier repetition set the top. *)
let with_heap_growth f =
  let heap () = (Gc.quick_stat ()).Gc.heap_words in
  let base = heap () in
  let peak = ref base in
  let alarm = Gc.create_alarm (fun () -> peak := max !peak (heap ())) in
  let r = Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f in
  peak := max !peak (heap ());
  (r, float_of_int (!peak - base))

(* [Greedy.run] with defaults, timed; traced runs add its layer figures. *)
let plan_greedy ctx inst =
  let run () = timed "greedy.run" (fun () -> Greedy.run inst) in
  if not ctx.traced then
    let (s, st), plan_s = run () in
    (s, st, plan_s)
  else begin
    let w0 = Gc.minor_words () in
    let ((s, st), plan_s), heap_words = with_heap_growth run in
    greedy_layers ctx inst ~plan_s ~words:(Gc.minor_words () -. w0) ~heap_words st;
    (s, st, plan_s)
  end

(* ---- the planning workloads ---- *)

let report_plan ctx ~plan_s ~selected ~revenue =
  sample ctx "plan_s" plan_s;
  sample ctx "work_per_s" (ratio (float_of_int selected) plan_s);
  sample ctx "expected_revenue" revenue

let plan_dense ctx =
  let inst =
    set_up ctx ~n:6 (fun _ ->
        let d, draw_s = timed "dense.draw" (fun () -> Dense.draw ~seed:ctx.seed ~users:dense_users) in
        let inst, build_s = build_heap ctx (fun () -> Dense.build d) in
        (inst, draw_s +. build_s))
  in
  let s, st, plan_s = plan_greedy ctx inst in
  let revenue = check_plan ctx ~what:"Greedy.run" s in
  report_plan ctx ~plan_s ~selected:st.Greedy.selected ~revenue

let mmap_config =
  let base = Scalability.with_users Scalability.default_config mmap_users in
  let items = mmap_users / 10 in
  {
    base with
    Scalability.num_items = items;
    num_classes = items / 10;
    items_per_user = 10;
    horizon = 4;
    display_limit = 3;
  }

let plan_mmap ctx =
  let inst =
    set_up ctx ~n:4 (fun k ->
        let path = Filename.concat ctx.dir (Printf.sprintf "instance-%d.pack" k) in
        let (), write_s =
          timed "pack.write" (fun () -> Scalability.generate_pack mmap_config ~seed:ctx.seed ~path)
        in
        let inst, open_s = timed "instance.of_mmap" (fun () -> Instance.of_mmap path) in
        if ctx.traced then begin
          sample ctx "instance.open_s" open_s;
          sample ctx "instance.pack_mb" (float_of_int (Unix.stat path).Unix.st_size /. 1e6);
          sample ctx "instance.pairs" (float_of_int (Instance.pair_count inst))
        end;
        (inst, write_s +. open_s))
  in
  let s, st, plan_s = plan_greedy ctx inst in
  let revenue = check_plan ctx ~what:"Greedy.run" s in
  report_plan ctx ~plan_s ~selected:st.Greedy.selected ~revenue

let contended_config =
  let base = Scalability.with_users mmap_config contended_users in
  {
    base with
    Scalability.num_items = 80;
    num_classes = 8;
    capacity = Pipeline.Cap_gaussian { mean = 20.0; sigma = 1.2 };
  }

let shards = 4
let jobs = 2

(* Traced only: the shard-local phase redone from outside — shard views,
   then their greedy runs through the pool at jobs = 2 and one by one —
   and the reconciliation share derived from the solve's total. *)
let shard_layers ctx inst ~plan_s ~s (st : Shard_greedy.stats) =
  let views, shard_s = timed "instance.shard" (fun () -> Instance.shard ~shards inst) in
  let _, local_s =
    timed "shard_greedy.local" (fun () ->
        Pool.parallel_init ~jobs (Array.length views) ~f:(fun v -> Greedy.run views.(v)))
  in
  let one_by_one =
    Array.map (fun v -> snd (timed "shard_greedy.local_view" (fun () -> Greedy.run v))) views
  in
  let sequential = Array.fold_left ( +. ) 0.0 one_by_one in
  let reconcile_s = plan_s -. shard_s -. local_s in
  let released = float_of_int st.Shard_greedy.released_pairs in
  sample ctx "instance.shard_s" shard_s;
  sample ctx "shard_greedy.local_s" local_s;
  sample ctx "shard_greedy.local_max_s" (Array.fold_left Float.max 0.0 one_by_one);
  sample ctx "pool.speedup" (ratio sequential local_s);
  note ctx "pool.speedup" "sequential %.4f s / jobs=%d %.4f s over %d views" sequential jobs local_s
    (Array.length views);
  sample ctx "shard_greedy.reconcile_s" reconcile_s;
  note ctx "shard_greedy.reconcile_s" "plan_s %.4f - shard %.4f - local %.4f s" plan_s shard_s
    local_s;
  sample ctx "shard_greedy.released_pairs" released;
  sample ctx "shard_greedy.rounds" (float_of_int st.Shard_greedy.reconciliation_rounds);
  sample ctx "shard_greedy.replanned" (float_of_int st.Shard_greedy.replanned);
  sample ctx "shard_greedy.us_per_released_pair" (1e6 *. ratio reconcile_s released);
  note ctx "shard_greedy.us_per_released_pair" "reconcile %.4f s / %.0f pairs" reconcile_s released;
  let evals = float_of_int st.Shard_greedy.marginal_evaluations in
  let selected = float_of_int st.Shard_greedy.selected in
  sample ctx "greedy.evaluations" evals;
  sample ctx "greedy.pops" (float_of_int st.Shard_greedy.pops);
  sample ctx "greedy.selected" selected;
  sample ctx "greedy.ns_per_eval" (1e9 *. ratio plan_s evals);
  note ctx "greedy.ns_per_eval" "plan_s %.4f s / %.0f evaluations (all phases)" plan_s evals;
  sample ctx "greedy.us_per_selection" (1e6 *. ratio plan_s selected);
  note ctx "greedy.us_per_selection" "plan_s %.4f s / %.0f final selections" plan_s selected;
  (* jobs must not change the plan *)
  let (s1, _), _ =
    timed "shard_greedy.solve_jobs1" (fun () -> Shard_greedy.solve ~shards ~jobs:1 inst)
  in
  op ctx (sorted_triples s1 = sorted_triples s) "Shard_greedy.solve: jobs=1 and jobs=%d plans differ"
    jobs

let plan_contended ctx =
  let inst =
    set_up ctx ~n:10 (fun _ ->
        build_heap ctx (fun () -> Scalability.generate contended_config ~seed:ctx.seed))
  in
  let (s, st), plan_s =
    timed "shard_greedy.solve" (fun () -> Shard_greedy.solve ~shards ~jobs inst)
  in
  let revenue = check_plan ctx ~what:"Shard_greedy.solve" s in
  if ctx.traced then shard_layers ctx inst ~plan_s ~s st;
  report_plan ctx ~plan_s ~selected:st.Shard_greedy.selected ~revenue

(* ---- the serving workload ---- *)

let serve_config =
  let base = Scalability.with_users Scalability.default_config serve_users in
  {
    base with
    Scalability.num_items = max 2 (serve_users * 2);
    num_classes = max 1 (serve_users / 10);
    items_per_user = 10;
  }

let serve_setups = 10
let recoveries = 5

(* the server's observable state, compared after recovery *)
let state st = (Driver.outcome_of_server st, Server.stale_users st)

let copy_file src dst =
  if Sys.file_exists src then
    In_channel.with_open_bin src (fun ic ->
        Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc (In_channel.input_all ic)))

let copy_state ~src ~dst =
  Unix.mkdir dst 0o755;
  List.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dst f))
    [ "snapshot.revmax"; "journal.wal" ]

(* Traced only: [Journal.append] alone on a scratch journal in the same
   directory tree with the server's [sync_every], replaying the events. *)
let journal_layers ctx ~sync_every events =
  let path = Filename.concat ctx.dir "scratch.wal" in
  let j, _ = Journal.openw ~sync_every path in
  let lat, reg =
    registry (fun () ->
        List.mapi
          (fun i ev ->
            snd (timed "journal.append" (fun () -> Journal.append j ~seq:(Int64.of_int (i + 1)) ev)))
          events)
  in
  let n = float_of_int (List.length events) in
  let bytes = float_of_int (Journal.size_bytes j) in
  Journal.close j;
  let p = Driver.percentiles_of lat in
  sample ctx "journal.append_p50_us" (1e6 *. p.Driver.p50);
  sample ctx "journal.append_p99_us" (1e6 *. p.Driver.p99);
  note ctx "journal.append_p99_us" "nearest rank over %d appends" (List.length lat);
  let syncs = float_of_int (count reg "journal.syncs") in
  sample ctx "journal.syncs_per_event" (ratio syncs n);
  note ctx "journal.syncs_per_event" "%.0f syncs / %.0f appends" syncs n;
  sample ctx "journal.bytes_per_event" (ratio bytes n);
  note ctx "journal.bytes_per_event" "%.0f bytes / %.0f appends" bytes n

(* The service comes up two ways, both timed as set-up: a cold start
   (generation, then [Server.create] on an empty directory, which plans
   and writes the boot snapshot) and a restart that recovers a crashed
   directory. The crash images are copies of the data directory taken
   inside the closed loop, three snapshots apart and the last at its end:
   every recovery replays a journal tail of the same length, but each
   tail holds different events, so the median recovery does not hang on
   how many adopts one tail happens to hold. *)
let serve_mixed ctx =
  let inst, cfg, st, boot_s =
    set_up ctx ~n:serve_setups (fun k ->
        let inst, gen_s = build_heap ctx (fun () -> Scalability.generate serve_config ~seed:ctx.seed) in
        let cfg = Server.default_config ~data_dir:(Filename.concat ctx.dir (Printf.sprintf "serve-%d" k)) in
        let st, boot_s = timed "server.create" (fun () -> Server.create cfg inst) in
        (* only the last cold start serves; the others release their journal *)
        if k < serve_setups then Server.close st;
        ((inst, cfg, st, boot_s), gen_s +. boot_s))
  in
  let events = Driver.synth_workload inst ~seed:ctx.seed ~events:serve_events in
  let crash_points =
    List.init recoveries (fun j -> serve_events - (j * 3 * cfg.Server.snapshot_every))
  in
  let images = ref [] and paused = ref 0.0 in
  (* with sync_every = 1 the directory holds exactly what a SIGKILL after
     event [n] would leave *)
  let crash_image n =
    let (), dt =
      timed "serve.crash_image" (fun () ->
          let dir = Filename.concat ctx.dir (Printf.sprintf "crash-%d" n) in
          copy_state ~src:cfg.Server.data_dir ~dst:dir;
          images := (dir, state st) :: !images)
    in
    paused := !paused +. dt
  in
  let sizes = ref [] and requests = ref 0 and probes = ref 0 and probe_s = ref 0.0 in
  let next_request () =
    incr requests;
    !requests
  in
  let fold () =
    List.iteri
      (fun n ev ->
        let req = next_request () in
        let res, dt = timed ~req "server.apply" (fun () -> Server.apply st ev) in
        sample ctx "event_s" dt;
        op ctx (Result.is_ok res) "event %d refused: %s" req
          (match res with Ok _ -> "" | Error e -> Err.message e);
        (match ev with Journal.Adopt _ -> sample ctx "adopt_s" dt | _ -> ());
        (match ev with
        | Journal.Adopt { u; t; _ } | Journal.Click { u; t; _ } ->
            if ctx.traced then sizes := Strategy.size (Server.strategy st) :: !sizes;
            let req = next_request () in
            let answer, dt = timed ~req "server.topk" (fun () -> Server.topk st ~u ~time:t ~k:3) in
            sample ctx "topk_s" dt;
            incr probes;
            probe_s := !probe_s +. dt;
            let items = fst answer in
            op ctx
              (List.length items <= 3
              && List.for_all (fun (i, score) -> i >= 0 && Float.is_finite score) items)
              "topk probe %d malformed" req
        | Journal.Cap _ | Journal.Repair -> ());
        if List.mem (n + 1) crash_points then crash_image (n + 1))
      events
  in
  let ((), fold_s), reg = registry (fun () -> timed "serve.fold" fold) in
  let fold_s = fold_s -. !paused in
  sample ctx "fold_s" fold_s;
  sample ctx "requests_per_s" (float_of_int !requests /. fold_s);
  (* the read path's throughput: probes answered per second of probing *)
  sample ctx "work_per_s" (ratio (float_of_int !probes) !probe_s);
  sample ctx "expected_revenue" (check_plan ctx ~what:"server strategy" (Server.strategy st));
  (* the handle is dropped without [close] *)
  let rec_reg = ref [] in
  List.iter
    (fun (dir, crashed) ->
      let (st', reg'), rec_s =
        timed "server.recover" (fun () ->
            registry (fun () -> Server.create { cfg with data_dir = dir } inst))
      in
      rec_reg := reg' :: !rec_reg;
      sample ctx "recover_s" rec_s;
      op ctx (state st' = crashed) "recovery of %s differs from the crashed server" dir;
      Server.close st')
    (List.rev !images);
  op ctx (Pool.worker_count () = 0) "serve-mixed spawned pool domains";
  if ctx.traced then begin
    let replans, replan_s = summary reg "serve.replan_seconds" in
    let snapshots, snapshot_s = summary reg "serve.snapshot_seconds" in
    let evals = float_of_int (count reg "greedy.marginal_evaluations") in
    sample ctx "server.replans" (float_of_int (count reg "serve.replans"));
    sample ctx "server.replan_ms" (1e3 *. ratio replan_s (float_of_int replans));
    note ctx "server.replan_ms" "%.4f s over %d replans" replan_s replans;
    sample ctx "server.evals_per_replan" (ratio evals (float_of_int replans));
    note ctx "server.evals_per_replan" "%.0f evaluations over %d replans" evals replans;
    sample ctx "server.released_pairs" (float_of_int (count reg "serve.released_pairs"));
    sample ctx "server.strategy_size_mean"
      (ratio (float_of_int (List.fold_left ( + ) 0 !sizes)) (float_of_int (List.length !sizes)));
    note ctx "server.strategy_size_mean" "over %d probes" (List.length !sizes);
    sample ctx "server.snapshots" (float_of_int (count reg "serve.snapshots"));
    sample ctx "server.snapshot_ms" (1e3 *. ratio snapshot_s (float_of_int snapshots));
    note ctx "server.snapshot_ms" "%.4f s over %d snapshots" snapshot_s snapshots;
    sample ctx "server.boot_s" boot_s;
    sample ctx "server.recovered_events"
      (ratio
         (float_of_int (List.fold_left (fun a r -> a + count r "serve.recovered_events") 0 !rec_reg))
         (float_of_int recoveries));
    note ctx "server.recovered_events" "per recovery, over %d recoveries" recoveries;
    sample ctx "supervisor.retries" (float_of_int (count reg "supervisor.retries"));
    sample ctx "supervisor.failures" (float_of_int (count reg "supervisor.failures"));
    sample ctx "server.syncs" (float_of_int (count reg "journal.syncs"));
    journal_layers ctx ~sync_every:cfg.Server.sync_every events;
    (* the boot plan's greedy, rerun from outside: every replan pays its
       set-up over the whole instance *)
    ignore (plan_greedy ctx inst)
  end

(* ---- the workloads ---- *)

type workload = {
  name : string;
  rep : ctx -> unit;
  nominal_s : float;  (** one repetition's seconds on the reference VM *)
}

let all =
  [
    { name = "plan-dense"; rep = plan_dense; nominal_s = 4.8 };
    { name = "plan-mmap"; rep = plan_mmap; nominal_s = 5.5 };
    { name = "plan-contended"; rep = plan_contended; nominal_s = 1.3 };
    { name = "serve-mixed"; rep = serve_mixed; nominal_s = 7.5 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* One repetition of [w] on the instance drawn from [seed]. An exception
   counts as one failed operation. *)
let run w ~seed ~dir ~traced =
  let log = { samples = Hashtbl.create 64; notes = Hashtbl.create 16; failures = []; attempted = 0 } in
  let ctx = { seed; dir; traced; log } in
  Span.on := traced;
  Metrics.set_enabled traced;
  (try w.rep ctx
   with e ->
     log.attempted <- log.attempted + 1;
     fail ctx "%s raised %s" w.name (Printexc.to_string e));
  Span.on := false;
  Metrics.set_enabled false;
  log
