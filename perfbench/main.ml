(* The repository benchmark.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   runs one workload — plan-dense, plan-mmap, plan-contended or
   serve-mixed — as repetitions in this process, each planning its own
   instance drawn from N, about S seconds in all (at least three
   repetitions), and prints the end-to-end metrics by name, unit and
   sample count. The last line of standard output is one JSON object.
   With --trace 1 it alternates untraced and traced repetitions of one
   instance instead and prints the per-layer metrics, the span self times
   and the tracing overhead. The exit code is non-zero when any
   correctness check fails.

   Scratch files (packs, server data directories) live under
   .perfbench/tmp in the current directory and are removed on exit; span
   files are kept under .perfbench/trace. *)

open Perfbench

let default_seed = 20140901
let time_limit = 170.0

(* A run makes max 3 (seconds / nominal) repetitions: a count fixed by
   the command line, so the same seed and seconds always plan the same
   instances. *)
let repetitions (w : Workloads.workload) ~seconds =
  max 3 (int_of_float (float_of_int seconds /. w.nominal_s))

(* Repetition [i] plans its own instance, drawn from [seed]: the run's
   medians then average over several inputs as well as over time. *)
let rep_seed ~seed i = (seed * 16) + i

(* ---- metric catalogue (mirrors BENCHMARK.json) ---- *)

let end_to_end =
  [
    ("setup_s", "s"); ("op_p50_ms", "ms"); ("work_per_s", "1/s"); ("expected_revenue", "revenue");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("instance.open_s", "s"); ("instance.pack_mb", "MB"); ("instance.build_s", "s");
    ("instance.heap_mb", "MB"); ("instance.pairs", "count"); ("greedy.evaluations", "count");
    ("greedy.pops", "count"); ("greedy.ns_per_eval", "ns"); ("greedy.selected", "count");
    ("greedy.us_per_selection", "us"); ("greedy.minor_words_per_selection", "words");
    ("greedy.top_heap_mb", "MB"); ("greedy.build_s", "s"); ("shard_greedy.reconcile_s", "s");
    ("shard_greedy.released_pairs", "count"); ("shard_greedy.rounds", "count");
    ("shard_greedy.replanned", "count"); ("shard_greedy.us_per_released_pair", "us");
    ("instance.shard_s", "s"); ("shard_greedy.local_s", "s"); ("shard_greedy.local_max_s", "s");
    ("pool.speedup", "ratio"); ("server.replans", "count"); ("server.replan_ms", "ms");
    ("server.evals_per_replan", "count"); ("server.released_pairs", "count");
    ("server.strategy_size_mean", "count"); ("server.snapshots", "count");
    ("server.snapshot_ms", "ms"); ("server.syncs", "count"); ("server.boot_s", "s");
    ("server.recovered_events", "count"); ("journal.append_p50_us", "us");
    ("journal.append_p99_us", "us"); ("journal.syncs_per_event", "ratio");
    ("journal.bytes_per_event", "bytes"); ("supervisor.retries", "count");
    ("supervisor.failures", "count"); ("trace.overhead", "ratio");
  ]

(* counts that must repeat exactly across traced repetitions *)
let repeatable =
  [
    "greedy.evaluations"; "greedy.pops"; "greedy.selected"; "shard_greedy.released_pairs";
    "server.replans"; "server.syncs"; "server.snapshots";
  ]

(* ---- scratch directories ---- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ---- repetitions ---- *)

let started = Unix.gettimeofday ()
let elapsed () = Unix.gettimeofday () -. started

(* Repetition [index] on its own scratch directory. A full collection
   first lets every repetition start from a heap holding nothing of the
   one before. *)
let run_rep ~tmp w ~seed ~traced ~index =
  let dir = Filename.concat tmp (Printf.sprintf "rep-%d" index) in
  mkdir_p dir;
  Gc.full_major ();
  let log = Workloads.run w ~seed ~dir ~traced in
  rm_rf dir;
  log

let pooled logs name = Array.concat (List.map (fun l -> Workloads.samples l name) logs)

let totals logs =
  List.fold_left
    (fun (a, f) (l : Workloads.log) -> (a + l.attempted, f + List.length l.failures))
    (0, 0) logs

let failures_of logs =
  List.iter
    (fun (l : Workloads.log) -> List.iter (Printf.printf "  FAILED: %s\n") (List.rev l.failures))
    logs

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> 0.0
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f kB" (fun kb -> kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* ---- printing ---- *)

let print_result ~attempted ~failed values =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
          values))

let print_env (w : Workloads.workload) ~seed ~seconds ~tmp =
  let gc = Gc.get () in
  Printf.printf "perfbench %s  seed %d  seconds %d\n" w.name seed seconds;
  Printf.printf
    "env: nproc %d, OCaml %s, flambda %b, default GC (minor heap %d words, space_overhead %d), scratch %s\n"
    (Domain.recommended_domain_count ()) Build_info.ocaml_version Build_info.flambda
    gc.Gc.minor_heap_size gc.Gc.space_overhead tmp

(* One row per metric: value, unit, sample count, and how it was taken.
   A tail percentile with fewer than ten samples beyond it is not printed. *)
let row name unit ?(p99 = false) ?(scale = 1.0) ?(how = "") samples =
  let n = Array.length samples in
  if n = 0 then Printf.printf "  %-22s %14s %-8s n=0\n" name "-" unit
  else if p99 && not (Pctl.reportable ~pct:99 n) then
    Printf.printf "  %-22s %14s %-8s n=%d (fewer than 10 samples beyond p99)\n" name "-" unit n
  else
    let v = if p99 then Pctl.p99 samples else Pctl.median samples in
    Printf.printf "  %-22s %14.6g %-8s n=%d %s\n" name (scale *. v) unit n how

(* ---- untraced run: end-to-end metrics ---- *)

let measure ~tmp (w : Workloads.workload) ~seed ~seconds =
  let wanted = repetitions w ~seconds in
  let logs = ref [] and longest = ref 0.0 and rss = ref 0.0 in
  (* the time limit only guards a program far slower than nominal *)
  while List.length !logs < wanted && elapsed () +. !longest < time_limit -. 10.0 do
    let t0 = elapsed () and index = List.length !logs + 1 in
    logs := run_rep ~tmp w ~seed:(rep_seed ~seed index) ~traced:false ~index :: !logs;
    (* the peak of a process that ran the workload once, before later
       repetitions land on a heap the earlier ones grew *)
    if index = 1 then rss := peak_rss_mb ();
    longest := Float.max !longest (elapsed () -. t0)
  done;
  let logs = List.rev !logs in
  let serving = w.name = "serve-mixed" in
  let p = pooled logs in
  let med name = Pctl.median (p name) in
  let cut_short = List.length logs < wanted in
  let attempted, failed = totals logs in
  let attempted = attempted + 1 and failed = failed + if cut_short then 1 else 0 in
  let rss = !rss in
  let revenues = p "expected_revenue" in
  let mean_revenue =
    Array.fold_left ( +. ) 0.0 revenues /. float_of_int (max 1 (Array.length revenues))
  in
  Printf.printf "%d repetitions, each on its own instance:\n" (List.length logs);
  if serving then begin
    row "cold_start_s" "s" ~how:"(generation + Server.create on an empty directory)" (p "setup_s");
    row "recover_s" "s" ~how:"(Server.create on a crash image, each used once)"
      (p "recover_s");
    Printf.printf "  %-22s %14.6g %-8s cold_start_s + recover_s\n" "setup_s"
      (med "setup_s" +. med "recover_s") "s";
    row "adopt_p50_ms" "ms" ~scale:1e3 (p "adopt_s");
    row "event_p99_ms" "ms" ~p99:true ~scale:1e3 (p "event_s");
    row "topk_p50_ms" "ms" ~scale:1e3 (p "topk_s");
    row "topk_p99_ms" "ms" ~p99:true ~scale:1e3 (p "topk_s");
    row "probes_per_s" "1/s" ~how:"(probes / probe seconds, median of repetitions)"
      (p "work_per_s");
    row "requests_per_s" "1/s" ~how:"(events + probes / fold seconds, median of repetitions)"
      (p "requests_per_s")
  end
  else begin
    row "setup_s" "s" (p "setup_s");
    row "plan_s" "s" (p "plan_s");
    row "selections_per_s" "1/s" ~how:"(median of repetitions)" (p "work_per_s")
  end;
  Printf.printf "  %-22s %14.6g %-8s n=%d (mean over the run's instances)\n" "expected_revenue"
    mean_revenue "revenue" (Array.length revenues);
  Printf.printf "  %-22s %14.6g %-8s VmHWM after the first repetition\n" "peak_rss_mb" rss "MB";
  Printf.printf "  %-22s %14.6g %-8s %d of %d operations\n" "failed_share"
    (float_of_int failed /. float_of_int attempted)
    "fraction" failed attempted;
  if cut_short then
    Printf.printf "  FAILED: only %d of %d repetitions fit the time limit\n" (List.length logs) wanted;
  failures_of logs;
  let value = function
    | "setup_s" -> if serving then med "setup_s" +. med "recover_s" else med "setup_s"
    | "op_p50_ms" -> 1e3 *. if serving then med "adopt_s" else med "plan_s"
    | "expected_revenue" -> mean_revenue
    | "peak_rss_mb" -> rss
    | name -> med name
  in
  print_result ~attempted ~failed (List.map (fun (name, unit) -> (name, unit, value name)) end_to_end);
  failed = 0

(* ---- traced run: per-layer metrics ---- *)

(* Untraced and traced repetitions alternate on one instance, so both
   sides of the overhead ratio see the same stretch of host time. *)
let trace ~tmp (w : Workloads.workload) ~seed ~seconds =
  let trace_dir = Filename.concat ".perfbench" "trace" in
  mkdir_p trace_dir;
  let seed = rep_seed ~seed 1 in
  let pairs = max 2 (repetitions w ~seconds / 2) in
  let runs =
    List.init pairs (fun i ->
        let base = run_rep ~tmp w ~seed ~traced:false ~index:((2 * i) + 1) in
        let traced = run_rep ~tmp w ~seed ~traced:true ~index:((2 * i) + 2) in
        (base, traced, Span.take ()))
  in
  let bases = List.map (fun (b, _, _) -> b) runs and traced = List.map (fun (_, t, _) -> t) runs in
  List.iteri
    (fun i (_, _, spans) ->
      Span.write
        (Filename.concat trace_dir (Printf.sprintf "%s-seed%d-%d.jsonl" w.name seed (i + 1)))
        spans)
    runs;
  let main = if w.name = "serve-mixed" then "fold_s" else "plan_s" in
  let u = pooled bases main and t = pooled traced main in
  let overhead = Pctl.median t /. Pctl.median u in
  let drift = (Array.fold_left Float.max 0.0 u -. Array.fold_left Float.min infinity u) /. Pctl.median u in
  Printf.printf
    "trace.overhead = %.4f (traced %s median %.4f s, n=%d / untraced median %.4f s, n=%d; untraced \
     spread %.3f%s)\n"
    overhead main (Pctl.median t) (Array.length t) (Pctl.median u) (Array.length u) drift
    (if Float.abs (overhead -. 1.0) <= drift then ", unresolved" else "");
  (* tracing must not change the plan, and the counts must repeat *)
  let same name logs =
    match List.map (fun l -> Workloads.samples l name) logs with
    | first :: rest -> List.for_all (( = ) first) rest
    | [] -> true
  in
  let mismatched =
    List.filter (fun name -> not (same name traced)) repeatable
    @ if same "expected_revenue" (bases @ traced) then [] else [ "expected_revenue" ]
  in
  List.iter (Printf.printf "  FAILED: %s differs between repetitions\n") mismatched;
  let attempted, failed = totals (bases @ traced) in
  let attempted = attempted + 1 and failed = failed + if mismatched = [] then 0 else 1 in
  let value name = if name = "trace.overhead" then overhead else Pctl.median (pooled traced name) in
  Printf.printf "per-layer metrics (median of %d traced repetitions; 0 = layer not exercised):\n"
    (List.length traced);
  let first = List.hd traced in
  List.iter
    (fun (name, unit) ->
      let base = Option.value ~default:"" (Hashtbl.find_opt first.Workloads.notes name) in
      Printf.printf "  %-36s %14.6g %-6s %s\n" name (value name) unit base)
    per_layer;
  Printf.printf "spans of the first traced repetition (count, total s, self s):\n";
  let _, _, spans = List.hd runs in
  List.iter
    (fun (name, n, total, self) -> Printf.printf "  %s %d %.6f %.6f\n" name n total self)
    (Span.summary spans);
  failures_of (bases @ traced);
  print_result ~attempted ~failed (List.map (fun (name, unit) -> (name, unit, value name)) per_layer);
  failed = 0

(* ---- command line ---- *)

let parse_args argv =
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | [] -> Ok acc
    | k :: _ -> Error ("unexpected argument " ^ k)
  in
  go [] (List.tl (Array.to_list argv))

let usage () =
  prerr_endline
    "usage: main.exe --workload plan-dense|plan-mmap|plan-contended|serve-mixed [--seed N] \
     [--seconds S] [--trace 0|1]";
  exit 2

let () =
  match parse_args Sys.argv with
  | Error msg ->
      prerr_endline msg;
      usage ()
  | Ok args ->
      let int k default = Option.fold ~none:default ~some:int_of_string (List.assoc_opt k args) in
      let w =
        match Option.bind (List.assoc_opt "--workload" args) Workloads.find with
        | Some w -> w
        | None -> usage ()
      in
      let seed = int "--seed" default_seed and seconds = int "--seconds" 25 in
      let tmp = Filename.concat (Filename.concat ".perfbench" "tmp") (string_of_int (Unix.getpid ())) in
      mkdir_p tmp;
      at_exit (fun () ->
          rm_rf tmp;
          (* the parents go too when nothing else is left in them *)
          List.iter
            (fun dir -> try Unix.rmdir dir with Unix.Unix_error _ -> ())
            [ Filename.dirname tmp; ".perfbench" ]);
      (* a stopped run still removes its scratch files *)
      let quit _ = exit 3 in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
      Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
      print_env w ~seed ~seconds ~tmp;
      let ok =
        if int "--trace" 0 = 1 then trace ~tmp w ~seed ~seconds else measure ~tmp w ~seed ~seconds
      in
      exit (if ok then 0 else 1)
