(* Fault-injection suite for the resilience layer (PR 2).

   A spec-level corruptor mutates well-formed instance specifications before
   they reach [Instance.create_checked]; the metamorphic property is that the
   identity corruption is accepted while every named corruption is rejected
   with a structured [Err.Invalid_instance] naming the corrupted field — and
   that no corruption ever escapes as an untyped exception. File-level
   corruptions (truncation, garbling, byte flips) are checked against
   [Io.load_instance_result], harness faults against [Runner.guarded], and
   checkpoint faults (corrupt records, metadata drift, SIGKILL mid-run)
   against [Checkpoint]. *)

module Rng = Revmax_prelude.Rng
module Err = Revmax_prelude.Err
module Util = Revmax_prelude.Util
module Instance = Revmax.Instance
module Strategy = Revmax.Strategy
module Io = Revmax.Io
module Algorithms = Revmax.Algorithms
module Runner = Revmax_experiments.Runner
module Checkpoint = Revmax_experiments.Checkpoint
module Server = Revmax_serve.Server
module Journal = Revmax_serve.Journal
module Scalability = Revmax_datagen.Scalability
open Helpers

(* a flat directory and its files *)
let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* ------------------------------------------------------------------ *)
(* Spec-level corruptor                                                *)
(* ------------------------------------------------------------------ *)

(* The raw arguments of [Instance.create_checked], kept mutable-friendly so a
   corruption can damage them before construction. *)
type spec = {
  num_users : int;
  num_items : int;
  horizon : int;
  display_limit : int;
  class_of : int array;
  capacity : int array;
  saturation : float array;
  price : float array array;
  adoption : (int * int * float array) list;
}

let copy_spec s =
  {
    s with
    class_of = Array.copy s.class_of;
    capacity = Array.copy s.capacity;
    saturation = Array.copy s.saturation;
    price = Array.map Array.copy s.price;
    adoption = List.map (fun (u, i, qs) -> (u, i, Array.copy qs)) s.adoption;
  }

(* Mirrors Helpers.random_instance, but keeps the raw arrays; always yields at
   least one adoption entry so every corruption has something to damage. *)
let random_spec rng =
  let num_users = 1 + Rng.int rng 3 in
  let num_items = 1 + Rng.int rng 4 in
  let horizon = 1 + Rng.int rng 3 in
  let num_classes = 1 + Rng.int rng (min 2 num_items) in
  let class_of =
    Array.init num_items (fun i -> if i < num_classes then i else Rng.int rng num_classes)
  in
  let capacity = Array.init num_items (fun _ -> 1 + Rng.int rng num_users) in
  let saturation = Array.init num_items (fun _ -> Rng.unit_float rng) in
  let price =
    Array.init num_items (fun _ -> Array.init horizon (fun _ -> Rng.uniform_in rng 0.5 10.0))
  in
  let adoption = ref [] in
  for u = 0 to num_users - 1 do
    for i = 0 to num_items - 1 do
      if Rng.bernoulli rng 0.8 then
        adoption := (u, i, Array.init horizon (fun _ -> Rng.unit_float rng)) :: !adoption
    done
  done;
  if !adoption = [] then adoption := [ (0, 0, Array.make horizon 0.5) ];
  {
    num_users;
    num_items;
    horizon;
    display_limit = 2;
    class_of;
    capacity;
    saturation;
    price;
    adoption = !adoption;
  }

let build s =
  Instance.create_checked ~num_users:s.num_users ~num_items:s.num_items ~horizon:s.horizon
    ~display_limit:s.display_limit ~class_of:s.class_of ~capacity:s.capacity
    ~saturation:s.saturation ~price:s.price ~adoption:s.adoption ()

let set_price s v =
  let s = copy_spec s in
  s.price.(0).(0) <- v;
  s

let set_saturation s v =
  let s = copy_spec s in
  s.saturation.(0) <- v;
  s

let mutate_first_adoption s g =
  let s = copy_spec s in
  match s.adoption with
  | entry :: rest -> { s with adoption = g s entry :: rest }
  | [] -> assert false

(* Named corruptions, each tagged with the Instance.create_checked field it
   must be rejected under. *)
let corruptions : (string * string * (spec -> spec)) list =
  [
    ("nan price", "price", fun s -> set_price s Float.nan);
    ("negative price", "price", fun s -> set_price s (-1.0));
    ("infinite price", "price", fun s -> set_price s Float.infinity);
    ("saturation above one", "saturation", fun s -> set_saturation s 1.5);
    ("negative saturation", "saturation", fun s -> set_saturation s (-0.25));
    ("nan saturation", "saturation", fun s -> set_saturation s Float.nan);
    ( "class_of wrong length",
      "class_of",
      fun s ->
        let s = copy_spec s in
        { s with class_of = Array.sub s.class_of 0 (s.num_items - 1) } );
    ( "negative class id",
      "class_of",
      fun s ->
        let s = copy_spec s in
        s.class_of.(0) <- -1;
        s );
    ( "capacity wrong length",
      "capacity",
      fun s ->
        let s = copy_spec s in
        { s with capacity = Array.append s.capacity [| 1 |] } );
    ( "negative capacity",
      "capacity",
      fun s ->
        let s = copy_spec s in
        s.capacity.(0) <- -3;
        s );
    ( "saturation wrong length",
      "saturation",
      fun s ->
        let s = copy_spec s in
        { s with saturation = Array.append s.saturation [| 0.5 |] } );
    ( "price row wrong length",
      "price",
      fun s ->
        let s = copy_spec s in
        s.price.(0) <- Array.append s.price.(0) [| 1.0 |];
        s );
    ( "price rows missing",
      "price",
      fun s ->
        let s = copy_spec s in
        { s with price = Array.sub s.price 0 (s.num_items - 1) } );
    ("negative num_users", "num_users", fun s -> { (copy_spec s) with num_users = -1 });
    ("negative num_items", "num_items", fun s -> { (copy_spec s) with num_items = -2 });
    ("zero horizon", "horizon", fun s -> { (copy_spec s) with horizon = 0 });
    ("zero display limit", "display_limit", fun s -> { (copy_spec s) with display_limit = 0 });
    ( "adoption pair out of range",
      "adoption",
      fun s ->
        let s = copy_spec s in
        { s with adoption = (s.num_users, 0, Array.make s.horizon 0.5) :: s.adoption } );
    ( "adoption vector wrong length",
      "adoption",
      fun s -> mutate_first_adoption s (fun s (u, i, _) -> (u, i, Array.make (s.horizon + 1) 0.5))
    );
    ( "adoption probability above one",
      "adoption",
      fun s ->
        mutate_first_adoption s (fun _ (u, i, qs) ->
            qs.(0) <- 1.5;
            (u, i, qs)) );
    ( "negative adoption probability",
      "adoption",
      fun s ->
        mutate_first_adoption s (fun _ (u, i, qs) ->
            qs.(0) <- -0.5;
            (u, i, qs)) );
    ( "nan adoption probability",
      "adoption",
      fun s ->
        mutate_first_adoption s (fun _ (u, i, qs) ->
            qs.(0) <- Float.nan;
            (u, i, qs)) );
    ( "duplicate adoption pair",
      "adoption",
      fun s ->
        let s = copy_spec s in
        match s.adoption with
        | (u, i, qs) :: _ -> { s with adoption = (u, i, Array.copy qs) :: s.adoption }
        | [] -> assert false );
  ]

let check_corruption ~seed spec (name, field, corrupt) =
  match build (corrupt spec) with
  | Ok _ -> Alcotest.failf "seed %d: corruption %S accepted" seed name
  | Error (Err.Invalid_instance { field = f; _ }) ->
      Alcotest.(check string) (Printf.sprintf "%S names its field" name) field f
  | Error e ->
      Alcotest.failf "seed %d: corruption %S: unexpected error class: %s" seed name
        (Err.message e)
  | exception e ->
      Alcotest.failf "seed %d: corruption %S escaped as exception %s" seed name
        (Printexc.to_string e)

(* Metamorphic test of the corruptor itself: identity accepted, every named
   corruption rejected with the expected constructor, exhaustively. *)
let test_corruptor_metamorphic () =
  for seed = 0 to 14 do
    let spec = random_spec (Rng.create seed) in
    (match build spec with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "seed %d: pristine spec rejected: %s" seed (Err.message e)
    | exception e ->
        Alcotest.failf "seed %d: pristine spec raised %s" seed (Printexc.to_string e));
    List.iter (check_corruption ~seed spec) corruptions
  done

(* The same property as a qcheck fuzz over (seed, corruption) pairs. *)
let prop_corruptions_rejected =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fuzzed corruptions yield structured errors" ~count:200
       QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 (List.length corruptions - 1)))
       (fun (seed, idx) ->
         let spec = random_spec (Rng.create seed) in
         (match build spec with
         | Ok _ -> ()
         | Error e -> QCheck2.Test.fail_reportf "pristine spec rejected: %s" (Err.message e));
         let name, field, corrupt = List.nth corruptions idx in
         match build (corrupt spec) with
         | Ok _ -> QCheck2.Test.fail_reportf "corruption %S accepted" name
         | Error (Err.Invalid_instance { field = f; _ }) -> f = field
         | Error e ->
             QCheck2.Test.fail_reportf "corruption %S: unexpected error: %s" name (Err.message e)))

(* A copy of the adoption loop [Instance.create_checked] ran when it still
   kept a (u·items + i) hashtable: the message of the first faulty entry
   in list order, checking range, length, probabilities, then whether an
   earlier entry named the same pair. *)
let reference_adoption_fault s =
  let seen = Hashtbl.create 16 in
  let exception Found of string in
  try
    List.iter
      (fun (u, i, qs) ->
        if u < 0 || u >= s.num_users || i < 0 || i >= s.num_items then
          raise (Found (Printf.sprintf "pair (%d, %d) out of range" u i));
        if Array.length qs <> s.horizon then
          raise
            (Found
               (Printf.sprintf "pair (%d, %d): vector length %d differs from horizon %d" u i
                  (Array.length qs) s.horizon));
        Array.iter
          (fun p ->
            if p < 0.0 || p > 1.0 || Float.is_nan p then
              raise (Found (Printf.sprintf "pair (%d, %d): probability %g outside [0,1]" u i p)))
          qs;
        let key = (u * s.num_items) + i in
        if Hashtbl.mem seen key then
          raise (Found (Printf.sprintf "duplicate (user, item) pair (%d, %d)" u i));
        Hashtbl.replace seen key ())
      s.adoption;
    None
  with Found msg -> Some msg

(* Shuffle the adoption list and insert up to four copies of its entries
   at random places, each out of range, with a wrong-length vector, with a
   probability outside [0,1], or unchanged (a duplicate pair), so faults
   of several kinds compete for "first". *)
let several_faults rng s =
  let a = Array.of_list (List.map (fun (u, i, qs) -> (u, i, Array.copy qs)) s.adoption) in
  Rng.shuffle rng a;
  let l = ref (Array.to_list a) in
  for _ = 1 to Rng.int rng 5 do
    let n = List.length !l in
    let pos = Rng.int rng (n + 1) in
    let u, i, qs = List.nth !l (Rng.int rng n) in
    let entry =
      match Rng.int rng 5 with
      | 0 -> ((if Rng.bernoulli rng 0.5 then s.num_users else -1), i, Array.copy qs)
      | 1 -> (u, (if Rng.bernoulli rng 0.5 then s.num_items else -1), Array.copy qs)
      | 2 -> (u, i, Array.make (s.horizon + 1) 0.5)
      | 3 ->
          let qs = Array.copy qs in
          qs.(Rng.int rng s.horizon) <- [| 1.5; -0.5; Float.nan |].(Rng.int rng 3);
          (u, i, qs)
      | _ -> (u, i, Array.copy qs)
    in
    l := List.filteri (fun k _ -> k < pos) !l @ (entry :: List.filteri (fun k _ -> k >= pos) !l)
  done;
  { s with adoption = !l }

let prop_first_fault_in_list_order =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"several faults: the first in list order, message for message"
       ~count:300 (QCheck2.Gen.int_range 0 1_000_000) (fun seed ->
         let rng = Rng.create seed in
         let s = several_faults rng (random_spec rng) in
         match (reference_adoption_fault s, build s) with
         | None, Ok _ -> true
         | Some expected, Error (Err.Invalid_instance { field = "adoption"; msg }) ->
             if msg <> expected then
               QCheck2.Test.fail_reportf "reported %S, the reference loop %S" msg expected;
             true
         | None, Error e -> QCheck2.Test.fail_reportf "clean list rejected: %s" (Err.message e)
         | Some expected, Ok _ -> QCheck2.Test.fail_reportf "accepted despite %S" expected
         | Some _, Error e -> QCheck2.Test.fail_reportf "unexpected error %s" (Err.message e)))

(* ------------------------------------------------------------------ *)
(* File-level corruptions                                              *)
(* ------------------------------------------------------------------ *)

let write_temp contents =
  let path = Filename.temp_file "revmax-fault" ".inst" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
  path

let expect_parse_error name contents =
  let path = write_temp contents in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Io.load_instance_result path with
      | Error (Err.Parse_error _) -> ()
      | Error e -> Alcotest.failf "%s: expected Parse_error, got %s" name (Err.message e)
      | Ok _ -> Alcotest.failf "%s: corrupted file accepted" name
      | exception e -> Alcotest.failf "%s: exception escaped: %s" name (Printexc.to_string e))

let test_garbled_files () =
  expect_parse_error "empty file" "";
  expect_parse_error "garbled header" "revmax-instankce 1\ndims 1 1 1 1\nend\n";
  expect_parse_error "binary garbage" "\x00\x01\xfe\xffPK\x03\x04 junk\n\x7f\x45\x4c\x46";
  expect_parse_error "short dims" "revmax-instance 1\ndims 1 1\nend\n";
  expect_parse_error "unknown record"
    "revmax-instance 1\ndims 1 1 1 1\nitem 0 0 1 1.0 1.0\nfrobnicate 3\nend\n";
  expect_parse_error "missing end" "revmax-instance 1\ndims 1 1 1 1\nitem 0 0 1 1.0 1.0\n"

(* A file that parses but carries out-of-model values is rejected by
   Instance.create_checked, not the parser — still a structured error. *)
let test_semantic_corruption_is_invalid_instance () =
  let path =
    write_temp "revmax-instance 1\ndims 1 1 1 1\nitem 0 0 1 1.0 1.0\nq 0 0 1.5\nend\n"
  in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Io.load_instance_result path with
      | Error (Err.Invalid_instance { field = "adoption"; _ }) -> ()
      | Error e -> Alcotest.failf "expected Invalid_instance, got %s" (Err.message e)
      | Ok _ -> Alcotest.fail "out-of-range probability accepted")

let test_truncated_files_rejected () =
  for seed = 0 to 9 do
    let inst = random_instance (Rng.create seed) in
    let path = Filename.temp_file "revmax-fault" ".inst" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Io.save_instance path inst;
        let full = In_channel.with_open_bin path In_channel.input_all in
        let n = String.length full in
        List.iter
          (fun keep ->
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc (String.sub full 0 keep));
            match Io.load_instance_result path with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "seed %d: file truncated to %d/%d bytes accepted" seed keep n
            | exception e ->
                Alcotest.failf "seed %d: truncation escaped as %s" seed (Printexc.to_string e))
          [ n / 2; n - 2 ])
  done

(* Single-byte corruption anywhere in a valid file must never escape the
   Result type, whatever it does to the content. *)
let test_byte_flips_never_raise () =
  for seed = 0 to 29 do
    let rng = Rng.create (1000 + seed) in
    let inst = random_instance rng in
    let path = Filename.temp_file "revmax-fault" ".inst" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Io.save_instance path inst;
        let full = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
        let pos = Rng.int rng (Bytes.length full) in
        Bytes.set full pos (if Bytes.get full pos = 'x' then 'y' else 'x');
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc full);
        match Io.load_instance_result path with
        | Ok _ | Error _ -> ()
        | exception e ->
            Alcotest.failf "seed %d: flipped byte %d escaped as %s" seed pos
              (Printexc.to_string e))
  done

(* ------------------------------------------------------------------ *)
(* Decoders: corrupt counts, and fuzzed text instances and packs        *)
(* ------------------------------------------------------------------ *)

let expect_invalid what field r =
  match r () with
  | Error (Err.Invalid_instance { field = f; _ }) when f = field -> ()
  | Error e ->
      Alcotest.failf "%s: expected Invalid_instance on %s, got %s" what field (Err.message e)
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | exception e -> Alcotest.failf "%s: exception escaped: %s" what (Printexc.to_string e)

let one_item_spec cls =
  {
    num_users = 1;
    num_items = 1;
    horizon = 1;
    display_limit = 1;
    class_of = [| cls |];
    capacity = [| 1 |];
    saturation = [| 1.0 |];
    price = [| [| 1.0 |] |];
    adoption = [ (0, 0, [| 0.5 |]) ];
  }

(* a class id sizes the class table, so it must stay below the item count *)
let test_class_id_2_pow_40 () =
  expect_invalid "class id 2^40" "class_of" (fun () -> build (one_item_spec (1 lsl 40)))

let test_class_id_max_int () =
  expect_invalid "class id max_int - 1" "class_of" (fun () -> build (one_item_spec (max_int - 1)))

(* [f path bytes] on the bytes of a pack of a small random instance *)
let with_pack_bytes inst f =
  let path = Filename.temp_file "revmax-fault" ".pack" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Instance.pack_to_file inst path;
      f path (Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)))

let load_pack path b =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  Instance.of_mmap_checked path

let header_bytes = 96
let set_slot b slot v = Bytes.set_int64_le b (8 * slot) (Int64.of_int v)
let get_slot b slot = Int64.to_int (Bytes.get_int64_le b (8 * slot))

let test_pack_class_id_beyond_items () =
  with_pack_bytes (random_instance (Rng.create 3)) (fun path b ->
      (* class_of is the first section after the header *)
      Bytes.set_int64_le b header_bytes (Int64.of_int (1 lsl 40));
      expect_invalid "pack class id 2^40" "class_of" (fun () -> load_pack path b))

(* num_items + 2^60 leaves 8 · num_items · (3 + T) unchanged modulo 2^63:
   a size check that multiplies first would pass it *)
let test_pack_header_counts_cannot_overflow () =
  with_pack_bytes (random_instance (Rng.create 4)) (fun path b ->
      set_slot b 4 (get_slot b 4 + (1 lsl 60));
      expect_invalid "num_items + 2^60" "size" (fun () -> load_pack path b))

let dims_file dims = "revmax-instance 1\ndims " ^ dims ^ "\nitem 0 0 1 1.0 1.0\nend\n"

let test_text_huge_item_count () =
  expect_parse_error "10^14 items" (dims_file "1 100000000000000 1 1")

let test_text_huge_horizon () =
  expect_parse_error "10^14 time steps" (dims_file "1 1 100000000000000 1")

let test_text_huge_user_count () =
  expect_parse_error "10^14 users" (dims_file "100000000000000 1 1 1");
  expect_parse_error "one user beyond the cap"
    (dims_file (Printf.sprintf "%d 1 1 1" (Io.max_users + 1)))

(* The invariants a decoded instance must satisfy, read through the public
   accessors: rows item-ascending and in range, probabilities in [0,1],
   ratings never NaN, item facts in range and the counts consistent. *)
let instance_is_valid inst =
  let items = Instance.num_items inst and horizon = Instance.horizon inst in
  let ok = ref (Instance.num_classes inst <= items) and triples = ref 0 and pairs = ref 0 in
  for u = 0 to Instance.num_users inst - 1 do
    let prev = ref (-1) in
    Array.iter
      (fun (i, qs) ->
        incr pairs;
        if i <= !prev || i >= items || Array.length qs <> horizon then ok := false;
        prev := i;
        Array.iter (fun p -> if not (p >= 0.0 && p <= 1.0) then ok := false else if p > 0.0 then incr triples) qs;
        match Instance.rating inst ~u ~i with Some r when Float.is_nan r -> ok := false | _ -> ())
      (Instance.candidates inst u)
  done;
  for i = 0 to items - 1 do
    let c = Instance.class_of inst i and b = Instance.saturation inst i in
    if c < 0 || c >= Instance.num_classes inst || Instance.capacity inst i < 0 then ok := false;
    if not (b >= 0.0 && b <= 1.0) then ok := false;
    for time = 1 to horizon do
      let p = Instance.price inst ~i ~time in
      if not (Float.is_finite p && p >= 0.0) then ok := false
    done
  done;
  !ok && !triples = Instance.num_candidate_triples inst && !pairs = Instance.pair_count inst

(* A small random instance with ratings on some candidate pairs and, now
   and then, a slate and a quantity budget: every section a decoder
   reads. *)
let fuzz_base rng =
  let inst = random_instance ~max_users:4 ~max_items:5 rng in
  let ratings = ref [] and adoption = ref [] in
  for u = 0 to Instance.num_users inst - 1 do
    Array.iter
      (fun (i, qs) ->
        adoption := (u, i, qs) :: !adoption;
        if Rng.bernoulli rng 0.5 then ratings := (u, i, Rng.uniform_in rng 1.0 5.0) :: !ratings)
      (Instance.candidates inst u)
  done;
  let items = Instance.num_items inst and horizon = Instance.horizon inst in
  let rated =
    Instance.create ~num_users:(Instance.num_users inst) ~num_items:items ~horizon
      ~display_limit:(Instance.display_limit inst)
      ~class_of:(Array.init items (Instance.class_of inst))
      ~capacity:(Array.init items (Instance.capacity inst))
      ~saturation:(Array.init items (Instance.saturation inst))
      ~price:(Array.init items (fun i -> Array.init horizon (fun k -> Instance.price inst ~i ~time:(k + 1))))
      ~ratings:!ratings ~adoption:!adoption ()
  in
  if Rng.bernoulli rng 0.7 then rated
  else
    Instance.with_max_total
      (Instance.with_slate rated (random_curve rng (Instance.display_limit rated)))
      (1 + Rng.int rng 5)

let corrupt_count rng old =
  match Rng.int rng 7 with
  | 0 -> 0
  | 1 -> -1
  | 2 -> old + 1 + Rng.int rng 3
  | 3 -> 1 lsl 40
  | 4 -> max_int
  | 5 -> old + (1 lsl 60)
  | _ -> Rng.int rng 100

(* one mutation of a text instance: a byte flip, a truncation, an
   overwritten dims count, or a line spliced in elsewhere *)
let mutate_text rng text =
  let n = String.length text in
  if n = 0 then text
  else
    match Rng.int rng 4 with
    | 0 ->
        let b = Bytes.of_string text and pos = Rng.int rng n in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Rng.int rng 255)));
        Bytes.to_string b
    | 1 -> String.sub text 0 (Rng.int rng n)
    | 2 ->
        let k = 1 + Rng.int rng 4 in
        let corrupt j c =
          if j <> k then c
          else string_of_int (corrupt_count rng (Option.value ~default:0 (int_of_string_opt c)))
        in
        String.split_on_char '\n' text
        |> List.map (fun line ->
               match String.split_on_char ' ' line with
               | "dims" :: _ as fields -> String.concat " " (List.mapi corrupt fields)
               | _ -> line)
        |> String.concat "\n"
    | _ ->
        let lines = String.split_on_char '\n' text in
        let m = List.length lines in
        let src = List.nth lines (Rng.int rng m) and pos = Rng.int rng (m + 1) in
        String.concat "\n"
          (List.filteri (fun k _ -> k < pos) lines @ (src :: List.filteri (fun k _ -> k >= pos) lines))

(* one mutation of a pack: a byte flip, a truncation, an overwritten
   header slot, or a run of words copied over another *)
let mutate_pack rng b =
  let n = Bytes.length b in
  if n < 8 then b
  else
    match Rng.int rng 4 with
    | 0 ->
        let pos = Rng.int rng n in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Rng.int rng 255)));
        b
    | 1 -> Bytes.sub b 0 (Rng.int rng n)
    | 2 ->
        let slot = Rng.int rng (min 12 (n / 8)) in
        set_slot b slot (corrupt_count rng (get_slot b slot));
        b
    | _ ->
        let words = n / 8 in
        let len = 1 + Rng.int rng 4 in
        let src = Rng.int rng (max 1 (words - len)) and dst = Rng.int rng (max 1 (words - len)) in
        Bytes.blit b (8 * src) b (8 * dst) (8 * min len (words - max src dst));
        b

(* Each mutated input ends in [Ok] with a valid instance or in a typed
   [Err]; no exception escapes, and what the decoder allocates stays
   within [words_per_byte] words per input byte plus 1,024 words for its
   fixed tables. (Unmutated inputs of this size allocate at most about 3.2
   words per byte as text and 1.3 as a pack.) *)
let fuzz_decoder ~name ~words_per_byte ~encode ~mutate ~decode =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:400 (QCheck2.Gen.int_range 0 1_000_000) (fun seed ->
         let rng = Rng.create seed in
         let bytes = ref (encode (fuzz_base rng)) in
         for _ = 0 to Rng.int rng 3 do
           bytes := mutate rng !bytes
         done;
         let path = Filename.temp_file "revmax-fuzz" ".bin" in
         Fun.protect
           ~finally:(fun () -> Sys.remove path)
           (fun () ->
             Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc !bytes);
             let r, words =
               Util.allocated_words (fun () -> try Ok (decode path) with e -> Error e)
             in
             let cap = (words_per_byte *. float_of_int (Bytes.length !bytes)) +. 1024.0 in
             if words > cap then
               QCheck2.Test.fail_reportf "%d input bytes allocated %.0f words (cap %.0f)"
                 (Bytes.length !bytes) words cap;
             match r with
             | Ok (Ok inst) ->
                 if not (instance_is_valid inst) then
                   QCheck2.Test.fail_reportf "decoded an instance that breaks its invariants";
                 true
             | Ok (Error (Err.Parse_error _ | Err.Invalid_instance _)) -> true
             | Ok (Error e) -> QCheck2.Test.fail_reportf "unexpected error class: %s" (Err.message e)
             | Error e -> QCheck2.Test.fail_reportf "exception escaped: %s" (Printexc.to_string e))))

let prop_fuzz_text =
  fuzz_decoder ~name:"fuzzed text instances: a valid instance or a typed error"
    ~words_per_byte:8.0
    ~encode:(fun inst ->
      let path = Filename.temp_file "revmax-fuzz" ".inst" in
      Io.save_instance path inst;
      let text = In_channel.with_open_bin path In_channel.input_all in
      Sys.remove path;
      Bytes.of_string text)
    ~mutate:(fun rng b -> Bytes.of_string (mutate_text rng (Bytes.to_string b)))
    ~decode:Io.load_instance_result

let prop_fuzz_pack =
  fuzz_decoder ~name:"fuzzed packs: a valid instance or a typed error" ~words_per_byte:2.0
    ~encode:(fun inst -> with_pack_bytes inst (fun _ b -> b))
    ~mutate:mutate_pack ~decode:Instance.of_mmap_checked

(* A real serving snapshot: a boot plan, some adoptions (so adopted and
   organic records), a capacity event and truncated replans (so stale
   records), on an instance shared by every fuzzed input. *)
let snapshot_base =
  lazy
    (let base = Scalability.with_users Scalability.default_config 12 in
     let inst =
       Scalability.generate
         { base with Scalability.num_items = 24; num_classes = 4; items_per_user = 6 }
         ~seed:3
     in
     let dir = Filename.temp_file "revmax-snap" "" in
     Sys.remove dir;
     let cfg =
       { (Server.default_config ~data_dir:dir) with Server.snapshot_every = 0; replan_evals = Some 2 }
     in
     let st = Server.create cfg inst in
     List.iteri
       (fun k (z : Revmax.Triple.t) ->
         if k mod 5 = 0 then ignore (Server.apply st (Journal.Adopt { u = z.u; i = z.i; t = z.t })))
       (Strategy.to_list (Server.strategy st));
     ignore (Server.apply st (Journal.Cap { i = 0; delta = 1 }));
     Server.close st;
     let path = Filename.concat dir "snapshot.revmax" in
     let text = In_channel.with_open_bin path In_channel.input_all in
     remove_dir dir;
     (inst, text))

(* one mutation of a snapshot: a byte flip, a truncation, a line spliced
   in elsewhere, a line repeated, or a number overwritten by a corrupt
   count *)
let mutate_snapshot rng text =
  let lines = String.split_on_char '\n' text in
  let m = List.length lines in
  let insert_at pos line = List.filteri (fun k _ -> k < pos) lines @ (line :: List.filteri (fun k _ -> k >= pos) lines) in
  match Rng.int rng 5 with
  | 0 -> mutate_text rng text
  | 1 -> String.sub text 0 (Rng.int rng (String.length text + 1))
  | 2 -> String.concat "\n" (insert_at (Rng.int rng (m + 1)) (List.nth lines (Rng.int rng m)))
  | 3 ->
      let k = Rng.int rng m in
      String.concat "\n" (insert_at k (List.nth lines k))
  | _ ->
      let k = Rng.int rng m in
      List.mapi
        (fun j line ->
          if j <> k then line
          else
            String.split_on_char ' ' line
            |> List.map (fun f ->
                   match int_of_string_opt f with
                   | Some v when Rng.bernoulli rng 0.5 -> string_of_int (corrupt_count rng v)
                   | _ -> f)
            |> String.concat " ")
        lines
      |> String.concat "\n"

(* Each mutated snapshot boots a server whose strategy validates and
   whose consumed stock stays within capacity, or fails the boot with a
   [Parse_error]; no other exception escapes. *)
let prop_fuzz_snapshot =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fuzzed snapshots: a valid server or a typed error" ~count:300
       (QCheck2.Gen.int_range 0 1_000_000) (fun seed ->
         let inst, text = Lazy.force snapshot_base in
         let rng = Rng.create seed in
         let text = ref text in
         for _ = 0 to Rng.int rng 3 do
           text := mutate_snapshot rng !text
         done;
         let dir = Filename.temp_file "revmax-snap" "" in
         Sys.remove dir;
         Unix.mkdir dir 0o700;
         Fun.protect
           ~finally:(fun () -> remove_dir dir)
           (fun () ->
             Out_channel.with_open_bin (Filename.concat dir "snapshot.revmax") (fun oc ->
                 Out_channel.output_string oc !text);
             match Server.create (Server.default_config ~data_dir:dir) inst with
             | st ->
                 let strategy = Server.strategy st in
                 let stock_ok =
                   List.for_all
                     (fun i ->
                       let n = Server.organic_consumed st i in
                       n >= 0 && n <= Instance.capacity inst i)
                     (List.init (Instance.num_items inst) Fun.id)
                 in
                 Server.close st;
                 (match Strategy.validate strategy with
                 | Ok () -> ()
                 | Error e -> QCheck2.Test.fail_reportf "booted an invalid strategy: %s" (Err.message e));
                 if not stock_ok then QCheck2.Test.fail_reportf "booted with stock beyond capacity";
                 true
             | exception Err.Error (Err.Parse_error _) -> true
             | exception e -> QCheck2.Test.fail_reportf "exception escaped: %s" (Printexc.to_string e))))

(* A real write-ahead log: the journal of a server that took adoptions,
   clicks, a stock adjustment and a repair, read before the server's
   final snapshot rotates it away, with the events it holds. *)
let journal_base =
  lazy
    (let inst, _ = Lazy.force snapshot_base in
     let dir = Filename.temp_file "revmax-wal" "" in
     Sys.remove dir;
     let cfg = { (Server.default_config ~data_dir:dir) with Server.snapshot_every = 0 } in
     let st = Server.create cfg inst in
     List.iteri
       (fun k (z : Revmax.Triple.t) ->
         if k < 24 then
           ignore
             (Server.apply st
                (if k mod 3 = 0 then Journal.Adopt { u = z.u; i = z.i; t = z.t }
                 else Journal.Click { u = z.u; i = z.i; t = z.t })))
       (Strategy.to_list (Server.strategy st));
     ignore (Server.apply st (Journal.Cap { i = 1; delta = -1 }));
     ignore (Server.apply st Journal.Repair);
     let path = Filename.concat dir "journal.wal" in
     let bytes = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
     let events = Journal.events path in
     Server.close st;
     remove_dir dir;
     if List.length events < 20 then failwith "journal_base: too few journaled events";
     (events, bytes))

(* the offsets a journal image's length prefixes lead to, as far as they
   stay inside the image *)
let record_offsets b =
  let n = Bytes.length b in
  let rec go off acc =
    if off + 8 > n then List.rev acc
    else
      let plen = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF in
      if plen > n - off - 8 then List.rev (off :: acc) else go (off + 8 + plen) (off :: acc)
  in
  Array.of_list (go 0 [])

(* a corrupt u32 record length: near 2^32, negative as an int32, near
   2^31, short, off by a few, or around the payload cap *)
let corrupt_length rng old =
  match Rng.int rng 6 with
  | 0 -> 0xFFFFFFFF - Rng.int rng 16
  | 1 -> 0x80000000 + Rng.int rng 16
  | 2 -> 0x7FFFFFFF - Rng.int rng 16
  | 3 -> Rng.int rng 40
  | 4 -> max 0 (old + Rng.int rng 7 - 3)
  | _ -> (1 lsl 16) + Rng.int rng 3 - 1

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)

(* whether the [len] bytes at [pos] decode as a record once they carry a
   valid CRC: they are read back through [Journal.events] as the payload
   of a one-record image *)
let decodes_as_record b pos len =
  let image = Bytes.create (8 + len) in
  set_u32 image 0 len;
  set_u32 image 4 (Util.crc32_update 0 b pos len);
  Bytes.blit b pos image 8 len;
  let path = Filename.temp_file "revmax-record" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc image);
      Journal.events path <> [])

(* one mutation of a journal image: a byte flip, a truncation, an
   overwritten length or CRC, a length overwritten together with the CRC
   a writer would have stored for that extent, or a record spliced in at
   another record boundary or duplicated in place. The CRC goes with the
   length only when the extent does not decode as a record: a
   well-formed record under a valid chained CRC is an append, which no
   check can refuse, and the oracle would count it as forged. *)
let mutate_journal rng b =
  let n = Bytes.length b and offs = record_offsets b in
  let m = Array.length offs in
  if n = 0 || m = 0 then b
  else
    let k = Rng.int rng m in
    let off = offs.(k) in
    let record_end j = if j + 1 < m then offs.(j + 1) else n in
    match Rng.int rng 7 with
    | 0 ->
        let pos = Rng.int rng n in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Rng.int rng 255)));
        b
    | 1 -> Bytes.sub b 0 (Rng.int rng n)
    | 2 when off + 8 <= n ->
        set_u32 b off (corrupt_length rng (record_end k - off - 8));
        b
    | 3 when off + 8 <= n ->
        set_u32 b (off + 4) (Rng.int rng 0x40000000 lor (Rng.int rng 4 lsl 30));
        b
    | 4 when off + 8 <= n ->
        let len = corrupt_length rng (record_end k - off - 8) in
        set_u32 b off len;
        (* each record's CRC runs on from its predecessor's *)
        let prev =
          if k = 0 then 0 else Int32.to_int (Bytes.get_int32_le b (offs.(k - 1) + 4)) land 0xFFFFFFFF
        in
        if off + 8 + len <= n && not (decodes_as_record b (off + 8) len) then
          set_u32 b (off + 4) (Util.crc32_update prev b (off + 8) len);
        b
    | 5 ->
        let src = Bytes.sub b off (record_end k - off) in
        let at = if Rng.bernoulli rng 0.2 then n else offs.(Rng.int rng m) in
        Bytes.concat Bytes.empty [ Bytes.sub b 0 at; src; Bytes.sub b at (n - at) ]
    | _ ->
        let e = record_end k in
        Bytes.concat Bytes.empty
          [ Bytes.sub b 0 e; Bytes.sub b off (e - off); Bytes.sub b e (n - e) ]

let is_prefix l ~of_ = List.filteri (fun k _ -> k < List.length l) of_ = l

(* Each mutated journal reads, through [Journal.events] and through
   [Journal.openw], as a prefix of the events that were appended: never
   an exception, never a record out of place, and at most 8 words
   allocated per input byte plus 1,024. [openw] leaves exactly the
   records it returned on disk. *)
let check_fuzzed_journal seed =
  let appended, clean = Lazy.force journal_base in
  let rng = Rng.create seed in
  let bytes = ref (Bytes.copy clean) in
  for _ = 0 to Rng.int rng 3 do
    bytes := mutate_journal rng !bytes
  done;
  let path = Filename.temp_file "revmax-fuzz" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc !bytes);
      let cap = (8.0 *. float_of_int (Bytes.length !bytes)) +. 1024.0 in
      let decode what f =
        match Util.allocated_words (fun () -> try Ok (f path) with e -> Error e) with
        | Error e, _ -> QCheck2.Test.fail_reportf "%s raised %s" what (Printexc.to_string e)
        | Ok records, words ->
            if words > cap then
              QCheck2.Test.fail_reportf "%s: %d input bytes allocated %.0f words (cap %.0f)" what
                (Bytes.length !bytes) words cap;
            if not (is_prefix records ~of_:appended) then
              QCheck2.Test.fail_reportf "%s returned %d records, not a prefix of the %d appended"
                what (List.length records) (List.length appended);
            records
      in
      let read = decode "Journal.events" Journal.events in
      let opened =
        decode "Journal.openw" (fun path ->
            let j, records = Journal.openw path in
            Journal.close j;
            records)
      in
      if opened <> read then QCheck2.Test.fail_reportf "openw and events disagree";
      if Journal.events path <> opened then
        QCheck2.Test.fail_reportf "the healed journal does not hold what openw returned";
      true)

let prop_fuzz_journal =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fuzzed journals: a prefix of the appended events" ~count:400
       (QCheck2.Gen.int_range 0 1_000_000) check_fuzzed_journal)

(* Inputs on which the mutator once forged a record: a spliced or
   duplicated record re-checksummed at its new place read back as seqs
   1-7 and then 7 again, or as a lone first record with seq 4. They are
   what QCHECK_SEED 407593186, 946566254, 451685933 and 439833129 draw. *)
let test_fuzz_journal_pinned () =
  List.iter
    (fun input ->
      match check_fuzzed_journal input with
      | _ -> ()
      | exception e -> Alcotest.failf "input %d: %s" input (Printexc.to_string e))
    [ 751146; 373349; 419374; 428233 ]

(* Serve frames, the last decoder of untrusted bytes: a length prefix
   read by [Server.Wire.read_frame], then [decode_request]. *)

(* one framed encoding of a request of any of the six kinds (and any of
   the four event kinds), its fields drawn at random, negative ones
   included *)
let frame_base rng =
  let field () = Rng.int rng 2000 - 1000 in
  let req =
    match Rng.int rng 9 with
    | 0 -> Server.Wire.Topk { u = field (); time = field (); k = field () }
    | 1 -> Server.Wire.Event (Journal.Adopt { u = field (); i = field (); t = field () })
    | 2 -> Server.Wire.Event (Journal.Click { u = field (); i = field (); t = field () })
    | 3 -> Server.Wire.Event (Journal.Cap { i = field (); delta = field () })
    | 4 -> Server.Wire.Event Journal.Repair
    | 5 -> Server.Wire.Stats
    | 6 -> Server.Wire.Snapshot
    | 7 -> Server.Wire.Dump
    | _ -> Server.Wire.Shutdown
  in
  let payload = Server.Wire.encode_request req in
  let n = Bytes.length payload in
  let b = Bytes.create (4 + n) in
  set_u32 b 0 n;
  Bytes.blit payload 0 b 4 n;
  b

(* one mutation of a serve frame: a byte flip, a truncation, a slice of
   another frame spliced in, or a length overwritten near 0, around the
   16 MiB cap (2^24 ± 1), around 2^31 or with a small negative int32 *)
let mutate_frame rng b =
  let n = Bytes.length b in
  match Rng.int rng 4 with
  | 0 when n > 0 ->
      let pos = Rng.int rng n in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + Rng.int rng 255)));
      b
  | 1 -> Bytes.sub b 0 (Rng.int rng (n + 1))
  | 2 ->
      let src = frame_base rng in
      let off = Rng.int rng (Bytes.length src) in
      let len = Rng.int rng (Bytes.length src - off + 1) and at = Rng.int rng (n + 1) in
      Bytes.concat Bytes.empty [ Bytes.sub b 0 at; Bytes.sub src off len; Bytes.sub b at (n - at) ]
  | _ when n >= 4 ->
      set_u32 b 0
        (match Rng.int rng 5 with
        | 0 -> Rng.int rng 3
        | 1 -> (1 lsl 24) - 1 + Rng.int rng 3
        | 2 -> 0x7FFFFFFF - Rng.int rng 4
        | 3 -> 0x80000000 + Rng.int rng 4
        | _ -> 0xFFFFFFFF - Rng.int rng 16);
      b
  | _ -> b

(* Each input, unmutated or after up to three mutations, is read from a
   file through [read_frame] and [decode_request]. It ends in no frame,
   in [Error _], or in a request whose encoding is the payload; no
   exception escapes, and the two calls allocate at most 8 words per
   input byte plus 1,024. *)
let prop_fuzz_frames =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fuzzed serve frames: no frame, an error or a request that re-encodes"
       ~count:400 (QCheck2.Gen.int_range 0 1_000_000) (fun seed ->
         let rng = Rng.create seed in
         let bytes = ref (frame_base rng) in
         for _ = 1 to Rng.int rng 4 do
           bytes := mutate_frame rng !bytes
         done;
         let path = Filename.temp_file "revmax-fuzz" ".frame" in
         Fun.protect
           ~finally:(fun () -> Sys.remove path)
           (fun () ->
             Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc !bytes);
             let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
             let r, words =
               Fun.protect
                 ~finally:(fun () -> Unix.close fd)
                 (fun () ->
                   Util.allocated_words (fun () ->
                       try
                         Ok
                           (Option.map
                              (fun p -> (p, Server.Wire.decode_request p))
                              (Server.Wire.read_frame fd))
                       with e -> Error e))
             in
             let cap = (8.0 *. float_of_int (Bytes.length !bytes)) +. 1024.0 in
             if words > cap then
               QCheck2.Test.fail_reportf "%d input bytes allocated %.0f words (cap %.0f)"
                 (Bytes.length !bytes) words cap;
             match r with
             | Ok (None | Some (_, Error _)) -> true
             | Ok (Some (p, Ok req)) ->
                 if not (Bytes.equal (Server.Wire.encode_request req) p) then
                   QCheck2.Test.fail_reportf "decoded a request whose encoding is not its payload";
                 true
             | Error e -> QCheck2.Test.fail_reportf "exception escaped: %s" (Printexc.to_string e))))

(* ------------------------------------------------------------------ *)
(* Harness faults: Runner.guarded                                      *)
(* ------------------------------------------------------------------ *)

(* Two users, two singleton classes, k = 1, capacity.(0) = 1: small enough to
   build constraint violations by hand with Strategy.add (which only checks
   range and duplicates, not Problem 1's packing constraints). *)
let two_item_instance () =
  Instance.create ~num_users:2 ~num_items:2 ~horizon:1 ~display_limit:1 ~class_of:[| 0; 1 |]
    ~capacity:[| 1; 2 |] ~saturation:[| 1.0; 1.0 |]
    ~price:[| [| 1.0 |]; [| 2.0 |] |]
    ~adoption:[ (0, 0, [| 0.5 |]); (1, 0, [| 0.5 |]); (0, 1, [| 0.5 |]) ]
    ()

let test_guarded_converts_raise () =
  match Runner.guarded ~algo:Algorithms.G_greedy (fun () -> failwith "boom") with
  | Runner.Failed { error = Err.Unexpected { msg; _ }; algo; _ } ->
      Alcotest.(check string) "algo recorded" "GG" (Algorithms.name algo);
      Alcotest.(check bool) "message preserved" true (Util.contains_substring msg "boom")
  | Runner.Failed { error; _ } ->
      Alcotest.failf "expected Unexpected, got %s" (Err.message error)
  | Runner.Completed _ -> Alcotest.fail "expected a Failed outcome"

let test_guarded_rejects_display_violation () =
  let inst = two_item_instance () in
  let s = Strategy.create inst in
  Strategy.add s (triple 0 0 1);
  Strategy.add s (triple 0 1 1);
  match Runner.guarded ~algo:Algorithms.Top_revenue (fun () -> (s, false)) with
  | Runner.Failed
      { error = Err.Invalid_strategy [ Err.Display_limit { u; time; count; limit } ]; _ } ->
      Alcotest.(check int) "witness user" 0 u;
      Alcotest.(check int) "witness time" 1 time;
      Alcotest.(check int) "witness count" 2 count;
      Alcotest.(check int) "witness limit" 1 limit
  | Runner.Failed { error; _ } ->
      Alcotest.failf "expected Display_limit, got %s" (Err.message error)
  | Runner.Completed _ -> Alcotest.fail "display violation not caught"

let test_guarded_rejects_capacity_violation () =
  let inst = two_item_instance () in
  let s = Strategy.create inst in
  Strategy.add s (triple 0 0 1);
  Strategy.add s (triple 1 0 1);
  match Runner.guarded ~algo:Algorithms.Top_revenue (fun () -> (s, false)) with
  | Runner.Failed
      { error = Err.Invalid_strategy [ Err.Capacity { item; distinct_users; capacity } ]; _ } ->
      Alcotest.(check int) "witness item" 0 item;
      Alcotest.(check int) "witness users" 2 distinct_users;
      Alcotest.(check int) "witness capacity" 1 capacity
  | Runner.Failed { error; _ } ->
      Alcotest.failf "expected Capacity, got %s" (Err.message error)
  | Runner.Completed _ -> Alcotest.fail "capacity violation not caught"

(* ------------------------------------------------------------------ *)
(* Checkpoint faults                                                   *)
(* ------------------------------------------------------------------ *)

let with_temp_dir f =
  let dir = Filename.temp_file "revmax-ckpt" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter (fun name -> Sys.remove (Filename.concat dir name)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* Run [f] with fd 1 redirected to a file; return f's value and the bytes it
   (or a checkpoint replay) wrote to stdout. *)
let with_stdout_captured f =
  let path = Filename.temp_file "revmax-stdout" ".txt" in
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  let result = try Ok (Fun.protect ~finally:restore f) with e -> Error e in
  let contents = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  match result with Ok v -> (v, contents) | Error e -> raise e

(* Durability regression for [Io.save_atomic]: a writer SIGKILLed at any
   point before the rename must leave the previous contents of the target
   byte-identical — the temp-file-plus-fsync-plus-rename sequence never
   exposes a torn or empty target. The child is killed (a) mid-[f], before
   any flush, and (b) after [f] returned but while still inside the
   callback chain (simulated by killing from within [f] after writing
   everything) — in both cases only the invisible temp file dies. *)
let test_save_atomic_kill_leaves_target_intact () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o700;
      let target = Filename.concat dir "state.txt" in
      let original = "generation-1 contents\n" in
      Out_channel.with_open_bin target (fun oc -> Out_channel.output_string oc original);
      List.iter
        (fun kill_point ->
          (match Unix.fork () with
          | 0 ->
              (* child: die by SIGKILL inside the atomic save *)
              (try
                 Revmax.Io.save_atomic target (fun oc ->
                     output_string oc "generation-2 half";
                     if kill_point = `Mid_write then Unix.kill (Unix.getpid ()) Sys.sigkill;
                     output_string oc "generation-2 rest\n";
                     flush oc;
                     if kill_point = `After_write then Unix.kill (Unix.getpid ()) Sys.sigkill)
               with _ -> ());
              Stdlib.exit 0
          | pid ->
              let _, status = Unix.waitpid [] pid in
              Alcotest.(check bool) "child died of SIGKILL" true
                (status = Unix.WSIGNALED Sys.sigkill));
          let now = In_channel.with_open_bin target In_channel.input_all in
          Alcotest.(check string) "previous contents intact" original now)
        [ `Mid_write; `After_write ];
      (* stray temp files from the killed writers must not confuse loaders:
         they live under dotted names, never under the target's name *)
      Array.iter
        (fun name ->
          if name <> "state.txt" then
            Alcotest.(check bool)
              (Printf.sprintf "leftover %s is a dotted temp file" name)
              true
              (String.length name > 0 && name.[0] = '.'))
        (Sys.readdir dir);
      (* and a completed save replaces the contents atomically *)
      Revmax.Io.save_atomic target (fun oc -> output_string oc "generation-3\n");
      let now = In_channel.with_open_bin target In_channel.input_all in
      Alcotest.(check string) "completed save visible" "generation-3\n" now)

let meta = [ ("scale", "unit"); ("seed", "42") ]

let test_checkpoint_record_roundtrip () =
  with_temp_dir (fun dir ->
      let cp = Checkpoint.create ~dir ~resume:false in
      (* newlines, quotes, backslashes, control bytes, non-ASCII: everything
         the JSON escaping must survive *)
      let weird = "line one\n\ttab \"quotes\" back\\slash\ncontrol:\x00\x01 latin1:\xc3\xa9\n" in
      let id = "weird cell/with:odd chars" in
      let status, _ =
        with_stdout_captured (fun () ->
            Checkpoint.run_cell (Some cp) ~id ~meta (fun () -> print_string weird))
      in
      Alcotest.(check bool) "ran" true (status = `Ran);
      match Checkpoint.load_record cp ~id with
      | Some (Ok (meta', output)) ->
          Alcotest.(check (list (pair string string)))
            "meta roundtrips" (List.sort compare meta) (List.sort compare meta');
          Alcotest.(check string) "output roundtrips byte-for-byte" weird output
      | Some (Error e) -> Alcotest.failf "record unreadable: %s" (Err.message e)
      | None -> Alcotest.fail "record missing")

let test_checkpoint_replay_skips_rerun () =
  with_temp_dir (fun dir ->
      let cp = Checkpoint.create ~dir ~resume:false in
      let _, _ =
        with_stdout_captured (fun () ->
            Checkpoint.run_cell (Some cp) ~id:"cell" ~meta (fun () -> print_string "once\n"))
      in
      let cp' = Checkpoint.create ~dir ~resume:true in
      let ran = ref false in
      let status, out =
        with_stdout_captured (fun () ->
            Checkpoint.run_cell (Some cp') ~id:"cell" ~meta (fun () ->
                ran := true;
                print_string "twice\n"))
      in
      Alcotest.(check bool) "replayed" true (status = `Replayed);
      Alcotest.(check bool) "cell not recomputed" false !ran;
      Alcotest.(check string) "recorded bytes replayed" "once\n" out)

let test_checkpoint_corrupt_record_self_heals () =
  with_temp_dir (fun dir ->
      let cp = Checkpoint.create ~dir ~resume:false in
      let _, _ =
        with_stdout_captured (fun () ->
            Checkpoint.run_cell (Some cp) ~id:"cell" ~meta (fun () -> print_string "v1\n"))
      in
      (* simulate a crash that corrupted the record on disk *)
      Out_channel.with_open_bin
        (Checkpoint.record_path cp "cell")
        (fun oc -> Out_channel.output_string oc "{\"id\": \"cell\", trunca");
      let cp' = Checkpoint.create ~dir ~resume:true in
      let ran = ref false in
      let status, out =
        with_stdout_captured (fun () ->
            Checkpoint.run_cell (Some cp') ~id:"cell" ~meta (fun () ->
                ran := true;
                print_string "v2\n"))
      in
      Alcotest.(check bool) "cell rerun" true (status = `Ran && !ran);
      Alcotest.(check string) "fresh output" "v2\n" out;
      match Checkpoint.load_record cp' ~id:"cell" with
      | Some (Ok (_, output)) -> Alcotest.(check string) "record healed" "v2\n" output
      | _ -> Alcotest.fail "record not rewritten")

let test_checkpoint_meta_mismatch_raises () =
  with_temp_dir (fun dir ->
      let cp = Checkpoint.create ~dir ~resume:false in
      let _, _ =
        with_stdout_captured (fun () ->
            Checkpoint.run_cell (Some cp) ~id:"cell" ~meta:[ ("seed", "1") ] (fun () ->
                print_string "x\n"))
      in
      let cp' = Checkpoint.create ~dir ~resume:true in
      match
        with_stdout_captured (fun () ->
            Checkpoint.run_cell (Some cp') ~id:"cell" ~meta:[ ("seed", "2") ] (fun () ->
                print_string "y\n"))
      with
      | exception Err.Error (Err.Unexpected { msg; _ }) ->
          Alcotest.(check bool) "mismatch explained" true
            (Util.contains_substring msg "metadata mismatch")
      | exception e -> Alcotest.failf "expected Err.Error, got %s" (Printexc.to_string e)
      | _ -> Alcotest.fail "stale metadata silently accepted")

(* The headline robustness scenario: a run killed with SIGKILL mid-cell, then
   resumed over the same directory, produces byte-identical output — completed
   cells replay, the interrupted cell reruns. *)
let test_checkpoint_kill_and_resume () =
  with_temp_dir (fun dir ->
      let cells = [ ("a", "alpha 1.25\n"); ("b", "beta 2.5\n"); ("c", "gamma 3.75\n") ] in
      let expected = String.concat "" (List.map snd cells) in
      (match Unix.fork () with
      | 0 ->
          (* child: complete cells a and b, die without warning inside c *)
          (try
             let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
             Unix.dup2 devnull Unix.stdout;
             Unix.close devnull;
             let cp = Checkpoint.create ~dir ~resume:false in
             List.iter
               (fun (id, out) ->
                 ignore
                   (Checkpoint.run_cell (Some cp) ~id ~meta (fun () ->
                        if id = "c" then begin
                          print_string "partial output never committed";
                          flush stdout;
                          Unix.kill (Unix.getpid ()) Sys.sigkill
                        end;
                        print_string out)))
               cells
           with _ -> ());
          (* only reachable if the kill failed *)
          Unix._exit 125
      | pid ->
          let _, status = Unix.waitpid [] pid in
          Alcotest.(check bool) "child died of SIGKILL" true
            (status = Unix.WSIGNALED Sys.sigkill));
      let cp = Checkpoint.create ~dir ~resume:true in
      (match Checkpoint.load_record cp ~id:"c" with
      | None -> ()
      | Some _ -> Alcotest.fail "interrupted cell must not leave a record");
      let replayed = ref [] and reran = ref [] in
      let (), out =
        with_stdout_captured (fun () ->
            List.iter
              (fun (id, cell_out) ->
                match
                  Checkpoint.run_cell (Some cp) ~id ~meta (fun () ->
                      reran := id :: !reran;
                      print_string cell_out)
                with
                | `Replayed -> replayed := id :: !replayed
                | `Ran -> ())
              cells)
      in
      Alcotest.(check (list string)) "completed cells replayed" [ "a"; "b" ] (List.rev !replayed);
      Alcotest.(check (list string)) "interrupted cell rerun" [ "c" ] (List.rev !reran);
      Alcotest.(check string) "resumed output is bit-identical" expected out)

(* Same scenario against the parallel grid executor, driven through the
   REVMAX_JOBS environment knob end-to-end: the driver is SIGKILLed while
   running the grid at REVMAX_JOBS=3 (after two cells were emitted and
   recorded), then resumed at REVMAX_JOBS=2. The resumed stdout must be
   byte-identical to an uninterrupted run — records are only ever a prefix
   of the emitted cells, whatever the jobs value. *)
let test_parallel_bench_kill_and_resume () =
  with_temp_dir (fun dir ->
      let cells =
        List.map
          (fun id ->
            ( id,
              meta,
              fun () ->
                Printf.printf "== %s ==\n" id;
                Printf.printf "%s revenue %.3f\n" id (float_of_int (String.length id) /. 3.0) ))
          [ "t1-gg"; "t1-lsg"; "fig2"; "fig3"; "tab2" ]
      in
      let expected =
        String.concat ""
          (List.map
             (fun (id, _, _) ->
               Printf.sprintf "== %s ==\n%s revenue %.3f\n" id id
                 (float_of_int (String.length id) /. 3.0))
             cells)
      in
      (match Unix.fork () with
      | 0 ->
          (try
             let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
             Unix.dup2 devnull Unix.stdout;
             Unix.close devnull;
             (* first default_jobs call in this fresh child reads the env *)
             Unix.putenv "REVMAX_JOBS" "3";
             let cp = Checkpoint.create ~dir ~resume:false in
             let on_done ~id ~status:_ ~seconds:_ =
               if id = "t1-lsg" then Unix.kill (Unix.getpid ()) Sys.sigkill
             in
             ignore (Checkpoint.run_cells (Some cp) ~on_done cells)
           with _ -> ());
          (* only reachable if the kill failed *)
          Unix._exit 125
      | pid ->
          let _, status = Unix.waitpid [] pid in
          Alcotest.(check bool) "driver died of SIGKILL" true
            (status = Unix.WSIGNALED Sys.sigkill));
      (* give orphaned cell processes time to finish writing and exit *)
      Unix.sleepf 0.3;
      (* resume under a different jobs value than the killed run *)
      Revmax_prelude.Pool.set_default_jobs 2;
      let finally () = Revmax_prelude.Pool.set_default_jobs 1 in
      Fun.protect ~finally (fun () ->
          let cp = Checkpoint.create ~dir ~resume:true in
          List.iteri
            (fun i (id, _, _) ->
              let present = Checkpoint.load_record cp ~id <> None in
              Alcotest.(check bool)
                (Printf.sprintf "record %s %s" id (if i < 2 then "kept" else "absent"))
                (i < 2) present)
            cells;
          let statuses, out =
            with_stdout_captured (fun () -> Checkpoint.run_cells (Some cp) cells)
          in
          Alcotest.(check string) "resumed output is bit-identical" expected out;
          Alcotest.(check (list string))
            "prefix replayed, rest rerun"
            [ "replayed"; "replayed"; "ran"; "ran"; "ran" ]
            (List.map (function `Ran -> "ran" | `Replayed -> "replayed") statuses)))

let () =
  Alcotest.run "fault"
    [
      ( "corruptor",
        [
          Alcotest.test_case "metamorphic: identity ok, corruptions rejected" `Quick
            test_corruptor_metamorphic;
          prop_corruptions_rejected;
          prop_first_fault_in_list_order;
        ] );
      ( "io",
        [
          Alcotest.test_case "garbled files are Parse_error" `Quick test_garbled_files;
          Alcotest.test_case "semantic corruption is Invalid_instance" `Quick
            test_semantic_corruption_is_invalid_instance;
          Alcotest.test_case "truncated files rejected" `Quick test_truncated_files_rejected;
          Alcotest.test_case "byte flips never raise" `Quick test_byte_flips_never_raise;
          Alcotest.test_case "save_atomic: SIGKILL mid-save leaves target intact" `Quick
            test_save_atomic_kill_leaves_target_intact;
        ] );
      ( "decoders",
        [
          Alcotest.test_case "class id 2^40 is a typed error" `Quick test_class_id_2_pow_40;
          Alcotest.test_case "class id max_int - 1 is a typed error" `Quick test_class_id_max_int;
          Alcotest.test_case "a pack's class id beyond its items is a typed error" `Quick
            test_pack_class_id_beyond_items;
          Alcotest.test_case "pack header counts cannot overflow the size check" `Quick
            test_pack_header_counts_cannot_overflow;
          Alcotest.test_case "text dims with 10^14 items is a Parse_error" `Quick
            test_text_huge_item_count;
          Alcotest.test_case "text dims with a 10^14 horizon is a Parse_error" `Quick
            test_text_huge_horizon;
          Alcotest.test_case "text dims beyond the user cap is a Parse_error" `Quick
            test_text_huge_user_count;
          prop_fuzz_text;
          prop_fuzz_pack;
          prop_fuzz_snapshot;
          prop_fuzz_journal;
          Alcotest.test_case "fuzzed journals: inputs that once forged a record" `Quick
            test_fuzz_journal_pinned;
          prop_fuzz_frames;
        ] );
      ( "runner",
        [
          Alcotest.test_case "guarded converts raise" `Quick test_guarded_converts_raise;
          Alcotest.test_case "display violation caught" `Quick
            test_guarded_rejects_display_violation;
          Alcotest.test_case "capacity violation caught" `Quick
            test_guarded_rejects_capacity_violation;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "record roundtrip with hostile bytes" `Quick
            test_checkpoint_record_roundtrip;
          Alcotest.test_case "replay skips recomputation" `Quick test_checkpoint_replay_skips_rerun;
          Alcotest.test_case "corrupt record self-heals" `Quick
            test_checkpoint_corrupt_record_self_heals;
          Alcotest.test_case "metadata mismatch raises" `Quick test_checkpoint_meta_mismatch_raises;
          Alcotest.test_case "SIGKILL mid-run then resume" `Quick test_checkpoint_kill_and_resume;
          Alcotest.test_case "SIGKILL mid-parallel bench, resume with other REVMAX_JOBS" `Quick
            test_parallel_bench_kill_and_resume;
        ] );
    ]
