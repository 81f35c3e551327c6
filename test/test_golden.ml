(* Golden-trace conformance: four small pinned instances with the expected
   revenue and the exact selection trace of G-Greedy, SL-Greedy and the
   brute-force optimum, frozen under test/golden/*.golden. Any behavior
   change in the solvers shows up as a readable field-by-field diff.

   After an intentional change, regenerate the fixtures with

     REVMAX_BLESS=1 REVMAX_GOLDEN_DIR=test/golden dune exec test/test_golden.exe

   from the repository root and review the diff like any other code
   change. *)

module Rng = Revmax_prelude.Rng
module Instance = Revmax.Instance
module Triple = Revmax.Triple
module Strategy = Revmax.Strategy
module Revenue = Revmax.Revenue
module Greedy = Revmax.Greedy
module Local_greedy = Revmax.Local_greedy
module Exact = Revmax.Exact
open Helpers

(* ----- the pinned instances ----- *)

(* Two handcrafted instances from the paper and two pinned micro instances
   with real capacity/display contention, all small enough for the
   brute-force optimum. Every number is written out, so the fixtures are
   frozen independently of any generator. *)

(* 2 users fighting over a capacity-1 item of a shared class *)
let two_user_tight () =
  Instance.create ~num_users:2 ~num_items:2 ~horizon:2 ~display_limit:1 ~class_of:[| 0; 0 |]
    ~capacity:[| 1; 2 |] ~saturation:[| 0.4; 0.8 |]
    ~price:[| [| 5.0; 4.0 |]; [| 3.0; 6.0 |] |]
    ~adoption:
      [
        (0, 0, [| 0.6; 0.3 |]);
        (0, 1, [| 0.2; 0.5 |]);
        (1, 0, [| 0.5; 0.7 |]);
        (1, 1, [| 0.4; 0.1 |]);
      ]
    ()

(* 3 users, 3 items in 2 classes, k = 2: display slots and capacities both
   bind, and the class memory couples items 0 and 2 *)
let three_user_mixed () =
  Instance.create ~num_users:3 ~num_items:3 ~horizon:2 ~display_limit:2 ~class_of:[| 0; 1; 0 |]
    ~capacity:[| 1; 2; 2 |] ~saturation:[| 0.3; 0.9; 0.6 |]
    ~price:[| [| 2.0; 7.0 |]; [| 4.0; 4.5 |]; [| 6.0; 1.0 |] |]
    ~adoption:
      [
        (0, 0, [| 0.8; 0.1 |]);
        (0, 1, [| 0.3; 0.6 |]);
        (1, 1, [| 0.5; 0.5 |]);
        (1, 2, [| 0.7; 0.2 |]);
        (2, 0, [| 0.4; 0.4 |]);
        (2, 2, [| 0.1; 0.9 |]);
      ]
    ()

(* the constraint-variant fixtures: the same pinned instances with a
   position-decayed slate (k = 2, geometric 0.6) and with a global
   quantity budget of 2, freezing the slot-scaled marginals and the
   cap-bounded selection through every solver *)
let three_user_slate () = Instance.with_slate (three_user_mixed ()) [| 1.0; 0.6 |]

let two_user_budget () = Instance.with_max_total (two_user_tight ()) 2

let fixtures =
  [
    ("example4", fun () -> example4_instance ());
    ("example1-a07", fun () -> example1_instance 0.7);
    ("two-user-tight", two_user_tight);
    ("three-user-mixed", three_user_mixed);
    ("three-user-slate", three_user_slate);
    ("two-user-budget", two_user_budget);
  ]

(* ----- rendering: one "key value" line per frozen fact ----- *)

let triple_str (z : Triple.t) = Printf.sprintf "%d,%d,%d" z.u z.i z.t

let trace_str zs = match zs with [] -> "-" | _ -> String.concat " " (List.map triple_str zs)

let render name inst =
  let buf = Buffer.create 512 in
  let line key value = Buffer.add_string buf (Printf.sprintf "%s %s\n" key value) in
  Buffer.add_string buf (Printf.sprintf "# golden trace fixture %s (do not edit: bless)\n" name);
  line "instance.users" (string_of_int (Instance.num_users inst));
  line "instance.triples" (string_of_int (Instance.num_candidate_triples inst));
  let traced run =
    let order = ref [] in
    let s, _ = run ~trace:(fun (pt : Greedy.trace_point) -> order := pt.z :: !order) in
    (s, List.rev !order)
  in
  let gg, gg_trace = traced (fun ~trace -> Greedy.run ~trace inst) in
  line "gg.revenue" (Printf.sprintf "%.12g" (Revenue.total gg));
  line "gg.trace" (trace_str gg_trace);
  let slg, slg_trace = traced (fun ~trace -> Local_greedy.sl_greedy ~trace inst) in
  line "slg.revenue" (Printf.sprintf "%.12g" (Revenue.total slg));
  line "slg.trace" (trace_str slg_trace);
  let opt_s, opt_v = Exact.brute_force inst in
  line "exact.revenue" (Printf.sprintf "%.12g" opt_v);
  (* the optimum is a set, not a sequence: freeze its sorted selection *)
  line "exact.selection" (trace_str (List.sort Triple.compare (Strategy.to_list opt_s)));
  Buffer.contents buf

(* ----- fixture files ----- *)

let golden_dir () = Option.value (Sys.getenv_opt "REVMAX_GOLDEN_DIR") ~default:"golden"

let fixture_path name = Filename.concat (golden_dir ()) (name ^ ".golden")

let bless_requested () =
  match Sys.getenv_opt "REVMAX_BLESS" with Some ("1" | "true" | "yes") -> true | _ -> false

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* key → value map of the non-comment lines, preserving order *)
let parse content =
  String.split_on_char '\n' content
  |> List.filter_map (fun l ->
         let l = String.trim l in
         if l = "" || l.[0] = '#' then None
         else
           match String.index_opt l ' ' with
           | Some i ->
               Some (String.sub l 0 i, String.trim (String.sub l (i + 1) (String.length l - i - 1)))
           | None -> Some (l, ""))

let diff ~expected ~actual =
  let exp = parse expected and act = parse actual in
  let keys = List.sort_uniq compare (List.map fst exp @ List.map fst act) in
  List.filter_map
    (fun key ->
      match (List.assoc_opt key exp, List.assoc_opt key act) with
      | Some e, Some a when e = a -> None
      | Some e, Some a -> Some (Printf.sprintf "  %s:\n    expected %s\n    got      %s" key e a)
      | Some e, None -> Some (Printf.sprintf "  %s:\n    expected %s\n    got      (missing)" key e)
      | None, Some a -> Some (Printf.sprintf "  %s:\n    (new key)\n    got      %s" key a)
      | None, None -> None)
    keys

let check_fixture name build () =
  let actual = render name (build ()) in
  let path = fixture_path name in
  if bless_requested () then begin
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc actual);
    Printf.printf "blessed %s\n" path
  end
  else if not (Sys.file_exists path) then
    Alcotest.failf
      "golden fixture %s is missing; generate it with\n\
      \  REVMAX_BLESS=1 REVMAX_GOLDEN_DIR=test/golden dune exec test/test_golden.exe" path
  else
    match diff ~expected:(read_file path) ~actual with
    | [] -> ()
    | mismatches ->
        Alcotest.failf
          "golden trace %s diverged:\n\
           %s\n\
           If the change is intentional, re-bless with\n\
          \  REVMAX_BLESS=1 REVMAX_GOLDEN_DIR=test/golden dune exec test/test_golden.exe" name
          (String.concat "\n" mismatches)

(* The same fixtures, re-run with the instance routed through a pack file
   and opened memory-mapped. The pack stores and the mapping reads back the
   exact IEEE doubles, so the traces must match the {e existing} fixture
   byte-for-byte — there is deliberately no bless path here: a divergence
   means the pack codec broke, never that the fixture needs updating. *)
let check_fixture_mmap name build () =
  let path = Filename.temp_file "golden" ".pack" in
  let inst =
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        Instance.pack_to_file (build ()) path;
        Instance.of_mmap path)
  in
  let fixture = fixture_path name in
  if not (Sys.file_exists fixture) then
    Alcotest.failf "golden fixture %s is missing (bless via the heap suite first)" fixture
  else
    match diff ~expected:(read_file fixture) ~actual:(render name inst) with
    | [] -> ()
    | mismatches ->
        Alcotest.failf "mmap-backed trace %s diverged from the heap fixture:\n%s" name
          (String.concat "\n" mismatches)

let () =
  Alcotest.run "golden"
    [
      ( "golden-traces",
        List.map
          (fun (name, build) -> Alcotest.test_case name `Quick (check_fixture name build))
          fixtures );
      ( "golden-traces-mmap",
        List.map
          (fun (name, build) -> Alcotest.test_case name `Quick (check_fixture_mmap name build))
          fixtures );
    ]
