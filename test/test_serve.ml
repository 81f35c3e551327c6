(* The serving-layer suite: WAL journal codec + self-heal, supervised
   retry/backoff/quarantine, deterministic chaos, crash-recovery identity
   (in-process and through the fork/SIGKILL/restart driver), degraded
   mode, wire-codec robustness and SIGPIPE hardening. *)

module Journal = Revmax_serve.Journal
module Supervisor = Revmax_serve.Supervisor
module Chaos = Revmax_serve.Chaos
module Server = Revmax_serve.Server
module Driver = Revmax_serve.Driver
module Scalability = Revmax_datagen.Scalability
module Instance = Revmax.Instance
module Strategy = Revmax.Strategy
module Rng = Revmax_prelude.Rng
module Err = Revmax_prelude.Err

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* the driver creates sibling "<dir>.ref" scratch directories, so tests
   hand out subdirectories of one disposable root *)
let with_temp_dir f =
  let dir = Filename.temp_file "revmax-serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Chaos.disarm ();
      rm_rf dir)
    (fun () -> f dir)

let ev_adopt u i t = Journal.Adopt { u; i; t }
let ev_click u i t = Journal.Click { u; i; t }

let pp_ev = Fmt.of_to_string (Format.asprintf "%a" Journal.pp_event)
let event_t = Alcotest.testable pp_ev ( = )
let records_t = Alcotest.(list (pair int64 event_t))

let sample_events =
  [
    (1L, ev_adopt 3 7 2);
    (2L, ev_click 1 4 2);
    (3L, Journal.Cap { i = 5; delta = -2 });
    (4L, Journal.Repair);
    (5L, ev_adopt 0 0 1);
  ]

let file_size path = (Unix.stat path).Unix.st_size

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let test_journal_roundtrip () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "j.wal" in
  let j, recovered = Journal.openw path in
  Alcotest.check records_t "fresh journal is empty" [] recovered;
  List.iter (fun (seq, ev) -> Journal.append j ~seq ev) sample_events;
  Journal.close j;
  let j2, recovered = Journal.openw path in
  Alcotest.check records_t "roundtrip" sample_events recovered;
  Journal.close j2

let test_journal_truncated_tail_heals () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "j.wal" in
  let j, _ = Journal.openw path in
  List.iter (fun (seq, ev) -> Journal.append j ~seq ev) sample_events;
  Journal.close j;
  (* cut the file mid-record: a torn final write *)
  let full = file_size path in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Unix.ftruncate fd (full - 5);
  Unix.close fd;
  let j2, recovered = Journal.openw path in
  Alcotest.check records_t "torn tail dropped, prefix intact"
    (List.filteri (fun k _ -> k < 4) sample_events)
    recovered;
  (* the heal is durable and appending over it works *)
  Journal.append j2 ~seq:5L (ev_click 9 9 1);
  Journal.close j2;
  let j3, recovered = Journal.openw path in
  Alcotest.check records_t "append after heal"
    (List.filteri (fun k _ -> k < 4) sample_events @ [ (5L, ev_click 9 9 1) ])
    recovered;
  Journal.close j3

let test_journal_bit_flip_drops_suffix () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "j.wal" in
  let j, _ = Journal.openw path in
  List.iter (fun (seq, ev) -> Journal.append j ~seq ev) sample_events;
  Journal.close j;
  (* adopt/click records are 29 bytes; flip a payload byte of record 2 *)
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  ignore (Unix.lseek fd 40 Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x10));
  ignore (Unix.lseek fd 40 Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let j2, recovered = Journal.openw path in
  Alcotest.check records_t "CRC catches the flip; only the clean prefix survives"
    [ List.hd sample_events ] recovered;
  Journal.close j2

let test_journal_rotate () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "j.wal" in
  let j, _ = Journal.openw path in
  List.iter (fun (seq, ev) -> Journal.append j ~seq ev) sample_events;
  Journal.rotate j;
  Alcotest.(check int) "rotated to empty" 0 (Journal.size_bytes j);
  Journal.append j ~seq:6L (ev_adopt 1 1 1);
  Journal.close j;
  Alcotest.check records_t "only post-rotation records" [ (6L, ev_adopt 1 1 1) ]
    (Journal.events path)

let test_journal_sync_batching () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "j.wal" in
  let j, _ = Journal.openw ~sync_every:3 path in
  Journal.append j ~seq:1L (ev_click 0 0 1);
  Journal.append j ~seq:2L (ev_click 0 1 1);
  Alcotest.(check int) "two pending before the batch boundary" 2 (Journal.pending j);
  Journal.append j ~seq:3L (ev_click 0 2 1);
  Alcotest.(check int) "third append fsyncs the batch" 0 (Journal.pending j);
  Journal.append j ~seq:4L (ev_click 0 3 1);
  Journal.sync j;
  Alcotest.(check int) "explicit sync drains" 0 (Journal.pending j);
  Journal.close j

let test_journal_injected_tear_rolls_back () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "j.wal" in
  let j, _ = Journal.openw path in
  Journal.append j ~seq:1L (ev_adopt 1 2 3);
  let size_before = Journal.size_bytes j in
  Chaos.configure "seed=1;fail=journal.mid_write:1.0";
  Alcotest.check_raises "half-written record raises" (Sys_error
    "chaos: injected fault at journal.mid_write (hit 1)") (fun () ->
      Journal.append j ~seq:2L (ev_adopt 4 5 1));
  Chaos.disarm ();
  Alcotest.(check int) "failed append rolled back to the record boundary" size_before
    (Journal.size_bytes j);
  Journal.append j ~seq:2L (ev_adopt 4 5 1);
  Journal.close j;
  Alcotest.check records_t "retry after rollback leaves a clean journal"
    [ (1L, ev_adopt 1 2 3); (2L, ev_adopt 4 5 1) ]
    (Journal.events path)

(* ------------------------------------------------------------------ *)
(* Supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let fast_policy =
  {
    Supervisor.max_attempts = 3;
    base_delay = 0.0;
    multiplier = 2.0;
    max_delay = 0.0;
    jitter = 0.0;
    timeout = None;
    quarantine_after = 2;
    probe_every = 3;
  }

let test_supervisor_retries_then_succeeds () =
  let sup = Supervisor.create ~policy:fast_policy ~seed:0 () in
  let calls = ref 0 in
  let r =
    Supervisor.run sup ~name:"flaky" (fun _ ->
        incr calls;
        if !calls < 3 then raise (Sys_error "transient");
        "ok")
  in
  Alcotest.(check (result string reject)) "third attempt lands" (Ok "ok") r;
  Alcotest.(check int) "two retries consumed" 3 !calls;
  Alcotest.(check int) "success resets the failure streak" 0
    (Supervisor.consecutive_failures sup "flaky")

let test_supervisor_quarantine_and_probe () =
  let sup = Supervisor.create ~policy:fast_policy ~seed:0 () in
  let calls = ref 0 in
  let broken _ =
    incr calls;
    raise (Sys_error "down")
  in
  let expect_error what r =
    match r with Ok _ -> Alcotest.failf "%s unexpectedly succeeded" what | Error (_ : Err.t) -> ()
  in
  expect_error "first" (Supervisor.run sup ~name:"dep" broken);
  Alcotest.(check bool) "not yet quarantined" false (Supervisor.quarantined sup "dep");
  expect_error "second" (Supervisor.run sup ~name:"dep" broken);
  Alcotest.(check bool) "quarantined after 2 streak failures" true
    (Supervisor.quarantined sup "dep");
  Alcotest.(check int) "6 attempts so far" 6 !calls;
  expect_error "short-circuit 1" (Supervisor.run sup ~name:"dep" broken);
  expect_error "short-circuit 2" (Supervisor.run sup ~name:"dep" broken);
  Alcotest.(check int) "quarantined calls never reach the operation" 6 !calls;
  expect_error "probe" (Supervisor.run sup ~name:"dep" broken);
  Alcotest.(check int) "every 3rd quarantined call probes" 9 !calls;
  Supervisor.reset sup "dep";
  Alcotest.(check bool) "reset lifts quarantine" false (Supervisor.quarantined sup "dep");
  let r = Supervisor.run sup ~name:"dep" (fun _ -> 42) in
  Alcotest.(check (result int reject)) "healthy after reset" (Ok 42) r

let test_supervisor_backoff_deterministic () =
  let policy = { Supervisor.default_policy with jitter = 0.5 } in
  let delays seed =
    let rng = Rng.create seed in
    List.init 8 (fun k -> Supervisor.backoff_delay policy ~rng ~attempt:(k + 1))
  in
  Alcotest.(check (list (float 0.0))) "same seed, same schedule" (delays 11) (delays 11);
  List.iter
    (fun d ->
      Alcotest.(check bool) "delay within [0, max*(1+jitter)]" true
        (d >= 0.0 && d <= policy.Supervisor.max_delay *. 1.5))
    (delays 11);
  Alcotest.(check bool) "different seeds differ somewhere" true (delays 11 <> delays 12)

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

let chaos_fault_trace spec site hits =
  Chaos.configure spec;
  let faults = ref [] in
  for k = 1 to hits do
    try Chaos.point site with Sys_error _ -> faults := k :: !faults
  done;
  Chaos.disarm ();
  List.rev !faults

let test_chaos_deterministic () =
  let spec = "seed=3;fail=x.site:0.5" in
  let a = chaos_fault_trace spec "x.site" 64 in
  let b = chaos_fault_trace spec "x.site" 64 in
  Alcotest.(check (list int)) "same spec, same fault schedule" a b;
  Alcotest.(check bool) "p=0.5 faults sometimes, not always" true
    (a <> [] && List.length a < 64);
  let c = chaos_fault_trace "seed=4;fail=x.site:0.5" "x.site" 64 in
  Alcotest.(check bool) "seed changes the schedule" true (a <> c)

let test_chaos_disarmed_is_inert () =
  Chaos.disarm ();
  for _ = 1 to 100 do
    Chaos.point "journal.append"
  done;
  Alcotest.(check bool) "disarmed points never fault" true (not (Chaos.active ()))

(* ------------------------------------------------------------------ *)
(* Server                                                              *)
(* ------------------------------------------------------------------ *)

let small_instance ?(users = 40) () =
  let base = Scalability.with_users Scalability.default_config users in
  Scalability.generate
    { base with Scalability.num_items = users * 2; num_classes = 4; items_per_user = 10 }
    ~seed:1

let outcome_t =
  Alcotest.testable
    (fun ppf (o : Driver.outcome) ->
      Format.fprintf ppf "seq=%Ld triples=%d realized=%.17g stale=%b" o.seq
        (List.length o.triples) o.realized o.stale)
    (fun a b ->
      Int64.equal a.Driver.seq b.Driver.seq
      && a.Driver.triples = b.Driver.triples
      && Float.equal a.Driver.realized b.Driver.realized
      && Bool.equal a.Driver.stale b.Driver.stale)

let apply_all st wl =
  List.iter
    (fun ev -> match Server.apply st ev with Ok _ -> () | Error e -> Err.raise_ e)
    wl

(* Abandon a live server (no close, no final snapshot) and boot a second
   one from its directory: the WAL alone must reproduce the state. *)
let test_recovery_identity_in_process () =
  with_temp_dir @@ fun dir ->
  let inst = small_instance () in
  let cfg =
    { (Server.default_config ~data_dir:(Filename.concat dir "d")) with Server.snapshot_every = 17 }
  in
  let wl = Driver.synth_workload inst ~seed:2 ~events:60 in
  let live = Server.create cfg inst in
  apply_all live wl;
  let expected = Driver.outcome_of_server live in
  let recovered = Server.create cfg inst in
  Alcotest.check outcome_t "crash recovery reproduces the live fold" expected
    (Driver.outcome_of_server recovered);
  Server.close recovered

let test_transient_io_faults_keep_journal_clean () =
  with_temp_dir @@ fun dir ->
  let inst = small_instance ~users:20 () in
  let cfg =
    { (Server.default_config ~data_dir:(Filename.concat dir "d")) with Server.snapshot_every = 0 }
  in
  let wl = Driver.synth_workload inst ~seed:5 ~events:50 in
  let live = Server.create cfg inst in
  Chaos.configure "seed=9;fail=journal.append:0.3;fail=journal.mid_write:0.3";
  let accepted = ref 0 and refused = ref 0 in
  List.iter
    (fun ev ->
      match Server.apply live ev with Ok _ -> incr accepted | Error _ -> incr refused)
    wl;
  Chaos.disarm ();
  Alcotest.(check bool) "chaos at p=0.3 refused nothing the retries could save" true
    (!accepted > 0);
  (* every accepted event must be a clean, gapless journal record *)
  let seqs = List.map fst (Journal.events (Filename.concat dir "d/journal.wal")) in
  Alcotest.(check (list int64)) "journal is gapless despite injected tears"
    (List.init !accepted (fun k -> Int64.of_int (k + 1)))
    seqs;
  let expected = Driver.outcome_of_server live in
  let recovered = Server.create cfg inst in
  Alcotest.check outcome_t "recovery matches the live fold" expected
    (Driver.outcome_of_server recovered);
  Server.close recovered

let test_degraded_mode_and_repair () =
  with_temp_dir @@ fun dir ->
  let inst = small_instance ~users:20 () in
  let cfg =
    {
      (Server.default_config ~data_dir:(Filename.concat dir "d")) with
      Server.replan_evals = Some 1;
    }
  in
  let st = Server.create cfg inst in
  (* adopt a planned pair so a (truncated) replan must run *)
  let z =
    match Strategy.to_list (Server.strategy st) with
    | z :: _ -> z
    | [] -> Alcotest.fail "initial plan is empty"
  in
  (match Server.apply st (Journal.Adopt { u = z.u; i = z.i; t = z.t }) with
  | Ok _ -> ()
  | Error e -> Err.raise_ e);
  Alcotest.(check bool) "1-evaluation replan truncates: user is stale" true
    (List.mem z.u (Server.stale_users st));
  let _, stale = Server.topk st ~u:z.u ~time:z.t ~k:3 in
  Alcotest.(check bool) "answers carry the stale flag" true stale;
  (match Server.apply st Journal.Repair with Ok _ -> () | Error e -> Err.raise_ e);
  Alcotest.(check (list int)) "repair replans unbounded and clears staleness" []
    (Server.stale_users st);
  let _, stale = Server.topk st ~u:z.u ~time:z.t ~k:3 in
  Alcotest.(check bool) "answers are fresh again" false stale;
  Server.close st

(* the global quantity budget (DESIGN.md §14) rides the serving adoption
   path for free: releases and incremental replans go through
   [Greedy.run ~allowed ~base], which treats a full quota as completion —
   the cap must hold after every event and across WAL recovery *)
let test_quantity_budget_respected_through_serving () =
  with_temp_dir @@ fun dir ->
  let plain = small_instance ~users:20 () in
  let s_plain, _ = Revmax.Greedy.run plain in
  let cap = max 1 (Strategy.size s_plain / 2) in
  let inst = Instance.with_max_total plain cap in
  let cfg = Server.default_config ~data_dir:(Filename.concat dir "d") in
  let st = Server.create cfg inst in
  Alcotest.(check bool) "initial plan within the cap" true
    (Strategy.size (Server.strategy st) <= cap);
  List.iter
    (fun ev ->
      (match Server.apply st ev with Ok _ -> () | Error e -> Err.raise_ e);
      let n = Strategy.size (Server.strategy st) in
      if n > cap then Alcotest.failf "cap %d exceeded after %a: %d" cap Journal.pp_event ev n)
    (Driver.synth_workload inst ~seed:4 ~events:40);
  (match Strategy.validate (Server.strategy st) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "final serving strategy invalid: %s" (Err.message e));
  let expected = Driver.outcome_of_server st in
  let recovered = Server.create cfg inst in
  Alcotest.check outcome_t "budgeted recovery reproduces the live fold" expected
    (Driver.outcome_of_server recovered);
  Server.close recovered

let test_corrupt_snapshot_is_typed_error () =
  with_temp_dir @@ fun dir ->
  let inst = small_instance ~users:10 () in
  let cfg = Server.default_config ~data_dir:(Filename.concat dir "d") in
  let st = Server.create cfg inst in
  Server.close st;
  let snap = Filename.concat dir "d/snapshot.revmax" in
  Out_channel.with_open_bin snap (fun oc -> Out_channel.output_string oc "revmax-serve-snapshot 1\nseq zebra\n");
  (match Server.create cfg inst with
  | exception Err.Error (Err.Parse_error _) -> ()
  | exception e -> Alcotest.failf "wanted Parse_error, got %s" (Printexc.to_string e)
  | st2 ->
      Server.close st2;
      Alcotest.fail "corrupt snapshot silently accepted")

(* Boot from a valid snapshot with [extra] spliced in before its [end]
   line: the boot must fail with a [Parse_error] naming the spliced line.
   [extra] is a function of the snapshot's own lines, so it can repeat one
   of them. *)
let check_spliced_snapshot_rejected extra =
  with_temp_dir @@ fun dir ->
  let inst = small_instance ~users:10 () in
  let cfg = Server.default_config ~data_dir:(Filename.concat dir "d") in
  Server.close (Server.create cfg inst);
  let snap = Filename.concat dir "d/snapshot.revmax" in
  let lines = In_channel.with_open_bin snap In_channel.input_all |> String.split_on_char '\n' in
  let body = List.filter (fun l -> l <> "" && l <> "end") lines in
  let line = extra body in
  Out_channel.with_open_bin snap (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) (body @ [ line; "end" ]));
  match Server.create cfg inst with
  | exception Err.Error (Err.Parse_error { line = at; _ }) ->
      Alcotest.(check int) (line ^ ": the error names the spliced line") (List.length body + 1) at
  | exception e -> Alcotest.failf "%s: wanted Parse_error, got %s" line (Printexc.to_string e)
  | st ->
      Server.close st;
      Alcotest.failf "%s: corrupt snapshot accepted" line

let test_snapshot_item_out_of_range () =
  check_spliced_snapshot_rejected (fun _ -> "organic 100000 1")

let test_snapshot_triple_out_of_range () = check_spliced_snapshot_rejected (fun _ -> "triple 0 0 99")

let test_snapshot_negative_organic () = check_spliced_snapshot_rejected (fun _ -> "organic 0 -5")

let test_snapshot_duplicate_triple () =
  check_spliced_snapshot_rejected (fun body ->
      List.find (fun l -> String.starts_with ~prefix:"triple " l) body)

let test_topk_scores_and_order () =
  with_temp_dir @@ fun _dir ->
  let inst = small_instance ~users:10 () in
  let s, _ = Revmax.Greedy.run inst in
  let all = Strategy.to_list s in
  List.iter
    (fun (z : Revmax.Triple.t) ->
      let items = Server.topk_of_strategy inst s ~u:z.u ~time:z.t ~k:1000 in
      let planned =
        List.filter (fun (w : Revmax.Triple.t) -> w.u = z.u && w.t = z.t) all |> List.length
      in
      Alcotest.(check int) "every planned slot is answered" planned (List.length items);
      Alcotest.(check bool) "scores are sorted non-increasing" true
        (let rec sorted = function
           | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
           | _ -> true
         in
         sorted items);
      List.iter
        (fun (i, score) ->
          Alcotest.(check bool) "score is price × in-plan adoption probability" true
            (Float.equal score
               (Instance.price inst ~i ~time:z.t
               *. Revmax.Revenue.dynamic_probability_in s (Revmax.Triple.make ~u:z.u ~i ~t:z.t))))
        items)
    (List.filteri (fun k _ -> k < 10) all)

let test_invalid_events_refused_without_journaling () =
  with_temp_dir @@ fun dir ->
  let inst = small_instance ~users:10 () in
  let cfg =
    { (Server.default_config ~data_dir:(Filename.concat dir "d")) with Server.snapshot_every = 0 }
  in
  let st = Server.create cfg inst in
  List.iter
    (fun ev ->
      match Server.apply st ev with
      | Ok _ -> Alcotest.failf "hostile event accepted: %a" Journal.pp_event ev
      | Error (_ : Err.t) -> ())
    [
      Journal.Adopt { u = -1; i = 0; t = 1 };
      Journal.Adopt { u = 0; i = 10_000; t = 1 };
      Journal.Click { u = 0; i = 0; t = 0 };
      Journal.Cap { i = -3; delta = 1 };
    ];
  Alcotest.(check int64) "nothing applied" 0L (Server.seq st);
  Alcotest.(check (list (pair int64 event_t))) "nothing journaled" []
    (Journal.events (Filename.concat dir "d/journal.wal"));
  Server.close st

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrip () =
  let reqs =
    [
      Server.Wire.Topk { u = 7; time = 3; k = 5 };
      Server.Wire.Event (ev_adopt 1 2 3);
      Server.Wire.Event (ev_click 4 5 1);
      Server.Wire.Event (Journal.Cap { i = 9; delta = -4 });
      Server.Wire.Event Journal.Repair;
      Server.Wire.Stats;
      Server.Wire.Snapshot;
      Server.Wire.Dump;
      Server.Wire.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      match Server.Wire.decode_request (Server.Wire.encode_request req) with
      | Ok req' -> Alcotest.(check bool) "request roundtrip" true (req = req')
      | Error msg -> Alcotest.failf "request failed to roundtrip: %s" msg)
    reqs;
  let resps =
    [
      Server.Wire.Items { stale = true; items = [ (3, 1.5); (9, 0.25) ] };
      Server.Wire.Items { stale = false; items = [] };
      Server.Wire.Ack { seq = 77L; stale = false };
      Server.Wire.Stats_r { seq = 1L; size = 2; stale = true; realized = 3.25; now = 4 };
      Server.Wire.Dump_r [ (1, 2, 3); (4, 5, 6) ];
      Server.Wire.Err_r "nope";
    ]
  in
  List.iter
    (fun resp ->
      match Server.Wire.decode_response (Server.Wire.encode_response resp) with
      | Ok resp' -> Alcotest.(check bool) "response roundtrip" true (resp = resp')
      | Error msg -> Alcotest.failf "response failed to roundtrip: %s" msg)
    resps

let test_wire_hostile_bytes_never_raise () =
  let rng = Rng.create 99 in
  for _ = 1 to 500 do
    let len = Rng.int rng 40 in
    let b = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    (match Server.Wire.decode_request b with Ok _ | Error _ -> ());
    match Server.Wire.decode_response b with Ok _ | Error _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* In-place replanning ≡ copy-based replanning                         *)
(* ------------------------------------------------------------------ *)

module Triple = Revmax.Triple
module Greedy = Revmax.Greedy
module Revenue = Revmax.Revenue
module Budget = Revmax_prelude.Budget

(* A test-local reference of the serving fold as it was defined before
   replanning went in place: every replan plans on a fresh copy through
   [Greedy.run ~allowed ~base], and pair removal, reconciliation and
   top-k all walk the sorted [Strategy.to_list]. The live server must
   match it bit for bit after every event. *)
module Copy_fold = struct
  type t = {
    inst : Instance.t;
    replan_evals : int option;
    mutable s : Strategy.t;
    adopted : (int * int, unit) Hashtbl.t;
    organic : int array;
    stale : (int, unit) Hashtbl.t;
    mutable now : int;
    mutable realized_rec : float;
    mutable realized_org : float;
    mutable released : int;
    mutable truncated : int;
  }

  let create ?replan_evals inst =
    {
      inst;
      replan_evals;
      s = fst (Greedy.run inst);
      adopted = Hashtbl.create 16;
      organic = Array.make (Instance.num_items inst) 0;
      stale = Hashtbl.create 8;
      now = 0;
      realized_rec = 0.0;
      realized_org = 0.0;
      released = 0;
      truncated = 0;
    }

  let stale_users r = Hashtbl.fold (fun u () acc -> u :: acc) r.stale [] |> List.sort compare
  let realized r = r.realized_rec +. r.realized_org
  let effective_capacity r i = max 0 (Instance.capacity r.inst i - r.organic.(i))

  let remove_pair r u i =
    List.iter
      (fun (z : Triple.t) -> if z.u = u && z.i = i then Strategy.remove r.s z)
      (Strategy.to_list r.s)

  let replan_user r ~capped u =
    let budget =
      if capped then Option.map (fun n -> Budget.create ~max_evaluations:n ()) r.replan_evals
      else None
    in
    let base = r.s in
    let allowed (z : Triple.t) =
      z.u = u && z.t > r.now
      && (not (Hashtbl.mem r.adopted (z.u, z.i)))
      && (Strategy.item_has_user base ~i:z.i ~u:z.u
         || Strategy.item_user_count base z.i < effective_capacity r z.i)
    in
    let s', (st : Greedy.stats) = Greedy.run ?budget ~allowed ~base r.inst in
    r.s <- s';
    if st.truncated then begin
      Hashtbl.replace r.stale u ();
      r.truncated <- r.truncated + 1
    end
    else Hashtbl.remove r.stale u

  let removal_loss r ~u ~i =
    let chain = Strategy.chain r.s ~u ~cls:(Instance.class_of r.inst i) in
    let keep = List.filter (fun (z : Triple.t) -> z.i <> i) chain in
    Revenue.chain_revenue r.inst chain -. Revenue.chain_revenue r.inst keep

  let reconcile_item r i =
    let holders =
      List.sort_uniq compare
        (List.filter_map
           (fun (z : Triple.t) -> if z.i = i then Some z.u else None)
           (Strategy.to_list r.s))
    in
    let excess = List.length holders - effective_capacity r i in
    if excess > 0 then begin
      let ranked = List.sort compare (List.map (fun u -> (removal_loss r ~u ~i, u)) holders) in
      let released =
        List.filteri (fun rank _ -> rank < excess) ranked |> List.map snd |> List.sort compare
      in
      List.iter (fun u -> remove_pair r u i) released;
      r.released <- r.released + excess;
      List.iter (fun u -> replan_user r ~capped:true u) released
    end

  let apply r (ev : Journal.event) =
    match ev with
    | Click { t; _ } -> r.now <- max r.now t
    | Adopt { u; i; t } ->
        r.now <- max r.now t;
        if not (Hashtbl.mem r.adopted (u, i)) then begin
          Hashtbl.replace r.adopted (u, i) ();
          let price = Instance.price r.inst ~i ~time:t in
          if Strategy.item_has_user r.s ~i ~u then r.realized_rec <- r.realized_rec +. price
          else r.realized_org <- r.realized_org +. price;
          r.organic.(i) <- min (Instance.capacity r.inst i) (r.organic.(i) + 1);
          remove_pair r u i;
          reconcile_item r i;
          replan_user r ~capped:true u
        end
    | Cap { i; delta } ->
        let before = r.organic.(i) in
        r.organic.(i) <- max 0 (min (Instance.capacity r.inst i) (before + delta));
        if r.organic.(i) > before then reconcile_item r i
    | Repair -> List.iter (fun u -> replan_user r ~capped:false u) (stale_users r)

  let topk r ~u ~time ~k =
    let scored =
      List.filter_map
        (fun (z : Triple.t) ->
          if z.u = u && z.t = time then
            Some (z.i, Instance.price r.inst ~i:z.i ~time *. Revenue.dynamic_probability_in r.s z)
          else None)
        (Strategy.to_list r.s)
    in
    List.sort (fun (i1, s1) (i2, s2) -> if s1 <> s2 then compare s2 s1 else compare i1 i2) scored
    |> List.filteri (fun rank _ -> rank < k)
end

(* tight capacities, so adoptions and stock shocks force releases *)
let contended_serve_instance ~seed =
  let base = Scalability.with_users Scalability.default_config 24 in
  Scalability.generate
    {
      base with
      Scalability.num_items = 48;
      num_classes = 4;
      items_per_user = 10;
      capacity = Revmax_datagen.Pipeline.Cap_gaussian { mean = 4.0; sigma = 1.0 };
    }
    ~seed

let sorted_triples s =
  List.sort compare (List.map (fun (z : Triple.t) -> (z.u, z.i, z.t)) (Strategy.to_list s))

(* the server's whole observable fold state against the reference: the
   sorted triples, the stale users, the realized revenue, and every
   (user, time) top-k answer with its scores compared bit for bit *)
let check_against_reference ~what inst st (r : Copy_fold.t) =
  let bits = Int64.bits_of_float in
  if sorted_triples (Server.strategy st) <> sorted_triples r.s then
    Alcotest.failf "%s: planned triples differ" what;
  if Server.stale_users st <> Copy_fold.stale_users r then Alcotest.failf "%s: stale users differ" what;
  if not (Int64.equal (bits (Server.realized_revenue st)) (bits (Copy_fold.realized r))) then
    Alcotest.failf "%s: realized revenue differs" what;
  let k = Instance.display_limit inst + 1 in
  for u = 0 to Instance.num_users inst - 1 do
    for time = 1 to Instance.horizon inst do
      let live, _ = Server.topk st ~u ~time ~k in
      let expected = Copy_fold.topk r ~u ~time ~k in
      if
        List.length live <> List.length expected
        || not
             (List.for_all2
                (fun (i1, s1) (i2, s2) -> i1 = i2 && Int64.equal (bits s1) (bits s2))
                live expected)
      then Alcotest.failf "%s: top-k of user %d at time %d differs" what u time
    done
  done

let copy_data_dir ~src ~dst =
  Unix.mkdir dst 0o700;
  List.iter
    (fun f ->
      let from = Filename.concat src f in
      if Sys.file_exists from then
        Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
            Out_channel.output_string oc (In_channel.with_open_bin from In_channel.input_all)))
    [ "snapshot.revmax"; "journal.wal" ]

let test_in_place_replan_matches_copy_based () =
  with_temp_dir @@ fun dir ->
  let released = ref 0 and truncated = ref 0 and runs = ref 0 in
  List.iter
    (fun seed ->
      let inst = contended_serve_instance ~seed in
      let events = Driver.synth_workload inst ~seed ~events:150 in
      let crash_at = 97 in
      List.iter
        (fun replan_evals ->
          incr runs;
          let data_dir = Filename.concat dir (Printf.sprintf "live-%d" !runs) in
          let cfg =
            { (Server.default_config ~data_dir) with Server.snapshot_every = 17; replan_evals }
          in
          let st = Server.create cfg inst in
          let r = Copy_fold.create ?replan_evals inst in
          let recovered = ref None in
          List.iteri
            (fun n ev ->
              (match Server.apply st ev with Ok _ -> () | Error e -> Err.raise_ e);
              Copy_fold.apply r ev;
              let what = Format.asprintf "seed %d, event %d (%a)" seed (n + 1) Journal.pp_event ev in
              check_against_reference ~what inst st r;
              (match !recovered with
              | Some st' -> (
                  match Server.apply st' ev with Ok _ -> () | Error e -> Err.raise_ e)
              | None -> ());
              if n + 1 = crash_at then begin
                (* a crash image of the live directory, recovered on the
                   spot: snapshot plus journal tail must rebuild the fold *)
                let crash_dir = Filename.concat dir (Printf.sprintf "crash-%d" !runs) in
                copy_data_dir ~src:data_dir ~dst:crash_dir;
                let st' = Server.create { cfg with Server.data_dir = crash_dir } inst in
                Alcotest.check outcome_t "recovered mid-run" (Driver.outcome_of_server st)
                  (Driver.outcome_of_server st');
                recovered := Some st'
              end)
            events;
          (match !recovered with
          | Some st' ->
              (* after the recovered server replanned again, its chains are
                 canonical exactly where the live ones are *)
              check_against_reference ~what:(Printf.sprintf "seed %d, recovered" seed) inst st' r;
              Server.close st'
          | None -> Alcotest.fail "no crash image was taken");
          Server.close st;
          released := !released + r.released;
          truncated := !truncated + r.truncated)
        [ None; Some 3 ])
    [ 1; 2; 3; 4 ];
  Alcotest.(check bool) "the workloads released over-subscribed holders" true (!released > 0);
  Alcotest.(check bool) "the capped runs truncated replans" true (!truncated > 0)

(* ------------------------------------------------------------------ *)
(* Fork/kill/restart driver                                            *)
(* ------------------------------------------------------------------ *)

let check_replay name (r : Driver.report) =
  if not r.identical then
    Alcotest.failf "%s diverged:@.  expected %a@.  actual   %a" name
      (fun ppf (o : Driver.outcome) ->
        Format.fprintf ppf "seq=%Ld triples=%d realized=%.17g" o.seq (List.length o.triples)
          o.realized)
      r.expected
      (fun ppf (o : Driver.outcome) ->
        Format.fprintf ppf "seq=%Ld triples=%d realized=%.17g" o.seq (List.length o.triples)
          o.realized)
      r.actual

let test_driver_sigkill_schedule_identity () =
  with_temp_dir @@ fun dir ->
  let inst = small_instance () in
  let cfg =
    { (Server.default_config ~data_dir:(Filename.concat dir "d")) with Server.snapshot_every = 13 }
  in
  let wl = Driver.synth_workload inst ~seed:3 ~events:70 in
  let r = Driver.run_replay ~kill_every:18 cfg inst wl in
  check_replay "kill-every-18" r;
  Alcotest.(check bool) "the schedule actually killed the child" true (r.restarts >= 3)

let test_driver_chaos_torn_write_identity () =
  with_temp_dir @@ fun dir ->
  let inst = small_instance () in
  let cfg = Server.default_config ~data_dir:(Filename.concat dir "d") in
  let wl = Driver.synth_workload inst ~seed:4 ~events:60 in
  let r = Driver.run_replay ~chaos:"seed=7;crash=journal.mid_write:25" cfg inst wl in
  check_replay "torn-write crashes" r;
  Alcotest.(check bool) "seeded crashes fired" true (r.restarts >= 1)

let test_driver_batched_fsync_loss_is_resent () =
  with_temp_dir @@ fun dir ->
  let inst = small_instance () in
  let cfg =
    {
      (Server.default_config ~data_dir:(Filename.concat dir "d")) with
      Server.sync_every = 8;
      snapshot_every = 0;
    }
  in
  let wl = Driver.synth_workload inst ~seed:6 ~events:50 in
  let r = Driver.run_replay ~kill_every:11 cfg inst wl in
  check_replay "acked-but-unsynced suffix resent after SIGKILL" r;
  Alcotest.(check bool) "some events needed resending" true (r.events_sent >= List.length wl)

(* ------------------------------------------------------------------ *)
(* SIGPIPE hardening                                                   *)
(* ------------------------------------------------------------------ *)

let test_client_disconnect_does_not_kill_server () =
  with_temp_dir @@ fun dir ->
  let inst = small_instance ~users:10 () in
  let cfg = Server.default_config ~data_dir:(Filename.concat dir "d") in
  let parent_sock, child_sock = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close parent_sock;
      let code =
        try
          let st = Server.create cfg inst in
          Server.serve st ~in_fd:child_sock ~out_fd:child_sock;
          Server.close st;
          0
        with _ -> 1
      in
      Stdlib.exit code
  | pid ->
      Unix.close child_sock;
      (* enough pipelined requests that the server is still writing
         responses when the client vanishes *)
      let req = Server.Wire.encode_request (Server.Wire.Dump) in
      (try
         for _ = 1 to 200 do
           Server.Wire.write_frame parent_sock req
         done
       with Unix.Unix_error _ -> ());
      Unix.close parent_sock;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "server exits cleanly after EPIPE, not by signal" true
        (status = Unix.WEXITED 0)

(* ----- Driver.percentiles_of: nearest-rank pinning vectors ----- *)

let check_pcts name xs ~p50 ~p95 ~p99 ~max =
  let got = Driver.percentiles_of xs in
  Alcotest.(check (float 0.0)) (name ^ " p50") p50 got.Driver.p50;
  Alcotest.(check (float 0.0)) (name ^ " p95") p95 got.Driver.p95;
  Alcotest.(check (float 0.0)) (name ^ " p99") p99 got.Driver.p99;
  Alcotest.(check (float 0.0)) (name ^ " max") max got.Driver.max

let test_percentiles_hand_vectors () =
  (* nearest-rank definition: value at index ⌈p·n⌉ − 1 of the sorted
     sample. Hand-computed over small vectors, exercising the boundary
     cases the integer rank must get right. *)
  check_pcts "empty" [] ~p50:0.0 ~p95:0.0 ~p99:0.0 ~max:0.0;
  (* n = 1: every percentile is the single sample *)
  check_pcts "n=1" [ 7.5 ] ~p50:7.5 ~p95:7.5 ~p99:7.5 ~max:7.5;
  (* n = 2: p50 rank ⌈1.0⌉ = 1 → the lower sample, not the upper *)
  check_pcts "n=2" [ 2.0; 1.0 ] ~p50:1.0 ~p95:2.0 ~p99:2.0 ~max:2.0;
  (* n = 10: p50 rank 5, p95 rank ⌈9.5⌉ = 10, p99 rank ⌈9.9⌉ = 10 *)
  let v10 = List.init 10 (fun i -> float_of_int (i + 1)) in
  check_pcts "n=10" v10 ~p50:5.0 ~p95:10.0 ~p99:10.0 ~max:10.0;
  (* n = 20: p95·n exactly integral — rank 19, not 20 *)
  let v20 = List.init 20 (fun i -> float_of_int (i + 1)) in
  check_pcts "n=20" v20 ~p50:10.0 ~p95:19.0 ~p99:20.0 ~max:20.0;
  (* n = 100: every pct·n integral — p50 rank 50, p95 rank 95, p99 rank 99 *)
  let v100 = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_pcts "n=100" v100 ~p50:50.0 ~p95:95.0 ~p99:99.0 ~max:100.0;
  (* n = 200: p99·n = 198 exactly — rank 198 is the 198th value *)
  let v200 = List.init 200 (fun i -> float_of_int (i + 1)) in
  check_pcts "n=200" v200 ~p50:100.0 ~p95:190.0 ~p99:198.0 ~max:200.0

let test_percentiles_sort_input () =
  (* the function sorts; feed a shuffled vector and expect sorted ranks *)
  let xs = [ 9.0; 1.0; 5.0; 3.0; 7.0; 8.0; 2.0; 6.0; 4.0; 10.0 ] in
  check_pcts "shuffled n=10" xs ~p50:5.0 ~p95:10.0 ~p99:10.0 ~max:10.0

let () =
  Alcotest.run "serve"
    [
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "truncated tail self-heals" `Quick test_journal_truncated_tail_heals;
          Alcotest.test_case "bit flip drops the suffix" `Quick test_journal_bit_flip_drops_suffix;
          Alcotest.test_case "rotation" `Quick test_journal_rotate;
          Alcotest.test_case "batched fsync accounting" `Quick test_journal_sync_batching;
          Alcotest.test_case "injected tear rolls back" `Quick
            test_journal_injected_tear_rolls_back;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "retries then succeeds" `Quick test_supervisor_retries_then_succeeds;
          Alcotest.test_case "quarantine and probe" `Quick test_supervisor_quarantine_and_probe;
          Alcotest.test_case "backoff is deterministic" `Quick
            test_supervisor_backoff_deterministic;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "fault schedule is seeded" `Quick test_chaos_deterministic;
          Alcotest.test_case "disarmed is inert" `Quick test_chaos_disarmed_is_inert;
        ] );
      ( "server",
        [
          Alcotest.test_case "in-process recovery identity" `Quick
            test_recovery_identity_in_process;
          Alcotest.test_case "transient IO faults keep the journal clean" `Quick
            test_transient_io_faults_keep_journal_clean;
          Alcotest.test_case "degraded mode and repair" `Quick test_degraded_mode_and_repair;
          Alcotest.test_case "quantity budget holds through adoption and recovery" `Quick
            test_quantity_budget_respected_through_serving;
          Alcotest.test_case "corrupt snapshot is a typed error" `Quick
            test_corrupt_snapshot_is_typed_error;
          Alcotest.test_case "snapshot item out of range is a typed error" `Quick
            test_snapshot_item_out_of_range;
          Alcotest.test_case "snapshot triple out of range is a typed error" `Quick
            test_snapshot_triple_out_of_range;
          Alcotest.test_case "snapshot negative organic count is a typed error" `Quick
            test_snapshot_negative_organic;
          Alcotest.test_case "snapshot duplicate triple is a typed error" `Quick
            test_snapshot_duplicate_triple;
          Alcotest.test_case "topk scoring and order" `Quick test_topk_scores_and_order;
          Alcotest.test_case "in-place replanning matches copy-based" `Quick
            test_in_place_replan_matches_copy_based;
          Alcotest.test_case "hostile events refused unjournaled" `Quick
            test_invalid_events_refused_without_journaling;
        ] );
      ( "wire",
        [
          Alcotest.test_case "codec roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "hostile bytes never raise" `Quick
            test_wire_hostile_bytes_never_raise;
        ] );
      ( "driver",
        [
          Alcotest.test_case "SIGKILL schedule identity" `Quick
            test_driver_sigkill_schedule_identity;
          Alcotest.test_case "chaos torn-write identity" `Quick
            test_driver_chaos_torn_write_identity;
          Alcotest.test_case "batched-fsync loss is resent" `Quick
            test_driver_batched_fsync_loss_is_resent;
        ] );
      ( "sigpipe",
        [
          Alcotest.test_case "client disconnect does not kill the server" `Quick
            test_client_disconnect_does_not_kill_server;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "nearest-rank hand vectors" `Quick test_percentiles_hand_vectors;
          Alcotest.test_case "input is sorted first" `Quick test_percentiles_sort_input;
        ] );
    ]
