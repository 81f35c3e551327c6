module Bh = Revmax_pqueue.Binary_heap
module Tl = Revmax_pqueue.Two_level_heap

(* [Tl.insert] takes its key through a cell *)
let tl_insert h ~key e = Tl.insert h [| key |] e

(* ----- Binary_heap unit tests ----- *)

let test_heap_basic () =
  let h = Bh.create () in
  Alcotest.(check bool) "empty" true (Bh.is_empty h);
  Bh.insert h ~key:1.0 "a";
  Bh.insert h ~key:3.0 "b";
  Bh.insert h ~key:2.0 "c";
  (match Bh.delete_max h with
  | Some ("b", 3.0) -> ()
  | _ -> Alcotest.fail "wrong delete_max");
  (match Bh.delete_max h with
  | Some ("c", 2.0) -> ()
  | _ -> Alcotest.fail "wrong second delete_max");
  Alcotest.(check bool) "not empty" false (Bh.is_empty h)

(* Model-based property test: under a random interleaving of inserts and
   pops, with keys from a 5-value set so duplicate priorities are the
   common case, every pop returns a model maximum that the model then
   drops, and the final drain returns the model's keys in descending
   order. Elements carry unique ids: a popped element must be in the model
   at the popped key. *)
let prop_heap_model =
  QCheck2.Test.make ~name:"heap matches sorted-list model" ~count:300
    QCheck2.Gen.(list (pair (int_bound 9) (int_bound 4)))
    (fun ops ->
      let h = Bh.create () in
      let model = ref [] in
      let pop () =
        match Bh.delete_max h with
        | None -> failwith "heap empty but model non-empty"
        | Some (uid, k) ->
            let best = List.fold_left (fun acc (_, k') -> Float.max acc k') neg_infinity !model in
            if k <> best then failwith "popped key is not the model max";
            if List.assoc_opt uid !model <> Some k then failwith "popped element not in model";
            model := List.remove_assoc uid !model;
            k
      in
      List.iteri
        (fun uid (op, key_idx) ->
          if !model = [] || op <= 5 then begin
            Bh.insert h ~key:(float_of_int key_idx) uid;
            model := (uid, float_of_int key_idx) :: !model
          end
          else ignore (pop ()))
        ops;
      let expected = List.sort (fun a b -> compare b a) (List.map snd !model) in
      let drained = List.map (fun _ -> pop ()) expected in
      drained = expected && Bh.is_empty h)

(* ----- Two_level_heap tests ----- *)

(* the root as (entry, key), read through the cell ABI *)
let tl_root h =
  let cell = [| nan |] in
  Tl.max_key_into h cell;
  (Tl.max_elt h, cell.(0))

let check_root msg h (e, k) =
  let e', k' = tl_root h in
  if e' <> e || k' <> k then Alcotest.failf "%s: root (%d, %g), expected (%d, %g)" msg e' k' e k

let test_tl_global_max () =
  (* width 4: entries 0..3 form group 0, 4..7 group 1 *)
  let h = Tl.create ~groups:2 ~width:4 in
  tl_insert h ~key:1.0 0;
  tl_insert h ~key:4.0 1;
  tl_insert h ~key:3.0 4;
  Alcotest.(check int) "size" 3 (Tl.size h);
  check_root "global max" h (1, 4.0);
  Tl.drop_max h;
  check_root "upper level resynced" h (4, 3.0);
  Tl.drop_max h;
  check_root "last group" h (0, 1.0)

let test_tl_drain_pair () =
  let h = Tl.create ~groups:8 ~width:2 in
  tl_insert h ~key:2.0 14;
  Tl.drop_max h;
  Alcotest.(check bool) "empty" true (Tl.is_empty h);
  Alcotest.check_raises "root of an empty heap" (Invalid_argument "Two_level_heap: empty heap")
    (fun () -> ignore (Tl.max_elt h));
  (* a drained group takes entries again *)
  tl_insert h ~key:1.0 15;
  check_root "refilled group" h (15, 1.0)

let test_tl_refresh () =
  let h = Tl.create ~groups:2 ~width:2 in
  let cell = [| 0.0 |] in
  tl_insert h ~key:10.0 0;
  tl_insert h ~key:9.0 1;
  tl_insert h ~key:5.0 2;
  (* demote group 0 below group 1 *)
  Tl.refresh_pair_into h 0 cell ~f:(fun e -> cell.(0) <- (if e = 0 then 1.0 else 0.5));
  Alcotest.(check int) "size after refresh" 3 (Tl.size h);
  check_root "upper level follows the refresh" h (2, 5.0);
  (* an [f] that leaves the cell alone keeps every key *)
  Tl.refresh_pair_into h 1 cell ~f:ignore;
  check_root "identity refresh" h (2, 5.0);
  Tl.drop_max h;
  check_root "refreshed group's new root" h (0, 1.0);
  (* promote group 0's runner-up past its root *)
  Tl.refresh_pair_into h 0 cell ~f:(fun e -> cell.(0) <- (if e = 1 then 7.0 else cell.(0)));
  check_root "re-heapified" h (1, 7.0)

let test_tl_missing_pair_noops () =
  let h = Tl.create ~groups:100 ~width:1 in
  let cell = [| 0.0 |] in
  tl_insert h ~key:1.0 1;
  Tl.refresh_pair_into h 99 cell ~f:(fun _ -> Alcotest.fail "f called on an empty group");
  Alcotest.(check int) "untouched" 1 (Tl.size h);
  check_root "no-op refresh disturbed the heap" h (1, 1.0);
  Alcotest.check_raises "group overflow" (Invalid_argument "Two_level_heap.insert: group full")
    (fun () -> tl_insert h ~key:2.0 1)

(* The flat model: a list of (entry, key); the heap must agree with its
   strict maximum — higher key first, equal keys smaller entry first. *)
let model_order (e1, k1) (e2, k2) = if k1 <> k2 then compare k2 k1 else compare e1 e2

let model_max model = List.hd (List.sort model_order model)

(* Model-based test of the whole API. Ops: insert (op ≤ 4), refresh_pair_into
   with a deterministic rekey mirrored in the model, the greedy's
   fresh-root step (only when [sign]: read the root key with
   max_key_into and drop the root when it is positive), remove of an
   entry that may or may not be stored (op = 10), and drop_max.
   Keys come from a 5-value set so ties are common, and may be ≤ 0 so the
   sign test keeps the root. After every op the heap's root and size must
   match the model; at the end the drain order must be the model's sorted
   order. *)
let tl_model_prop ~name ~sign =
  let open QCheck2 in
  let groups = 4 and width = 5 in
  Test.make ~name ~count:300
    Gen.(list (triple (int_bound 10) (int_bound (groups * width - 1)) (int_bound 1000)))
    (fun ops ->
      let h = Tl.create ~groups ~width in
      let cell = [| 0.0 |] in
      let model = ref [] in
      let key_of x = float_of_int ((x mod 5) - 1) in
      let check_against_model what =
        if Tl.size h <> List.length !model then failwith (what ^ ": size mismatch");
        match !model with
        | [] -> if not (Tl.is_empty h) then failwith (what ^ ": heap not empty")
        | m -> if tl_root h <> model_max m then failwith (what ^ ": root is not the model max")
      in
      List.iter
        (fun (op, pick, salt) ->
          if !model = [] || op <= 4 then begin
            (* the first free entry at or after [pick] *)
            let n = groups * width in
            match List.find_opt (fun d -> not (List.mem_assoc ((pick + d) mod n) !model))
                    (List.init n Fun.id) with
            | None -> ()
            | Some d ->
                let e = (pick + d) mod n in
                tl_insert h ~key:(key_of salt) e;
                model := (e, key_of salt) :: !model;
                check_against_model "insert"
          end
          else if op <= 6 then begin
            let g = pick mod groups in
            let rekey e = key_of (e + salt) in
            Tl.refresh_pair_into h g cell ~f:(fun e -> cell.(0) <- rekey e);
            model := List.map (fun (e, k) -> if e / width = g then (e, rekey e) else (e, k)) !model;
            check_against_model "refresh_pair_into"
          end
          else if op = 7 && sign then begin
            let root = model_max !model in
            Tl.max_key_into h cell;
            if cell.(0) <> snd root then failwith "max_key_into: not the model max key";
            if cell.(0) > 0.0 then begin
              Tl.drop_max h;
              model := List.filter (fun e -> e <> root) !model
            end;
            check_against_model "sign test"
          end
          else if op = 10 then begin
            Tl.remove h pick;
            model := List.filter (fun (e, _) -> e <> pick) !model;
            check_against_model "remove"
          end
          else begin
            model := List.filter (fun e -> e <> model_max !model) !model;
            Tl.drop_max h;
            check_against_model "drop_max"
          end)
        ops;
      let rec drain acc =
        if Tl.is_empty h then List.rev acc
        else begin
          let r = tl_root h in
          Tl.drop_max h;
          drain (r :: acc)
        end
      in
      drain [] = List.sort model_order !model)

let prop_tl_model_refresh =
  tl_model_prop ~name:"two-level heap matches model under refresh_pair (dup keys)" ~sign:false

let prop_tl_model_sign =
  tl_model_prop ~name:"max_key_into sign test matches flat model (dup keys)" ~sign:true

(* Property: the two-level drain is the flat heap order — the strict
   (key, entry) order a single heap with the entry as tie rank pops in —
   over the same inserts, at a width where groups hold many entries. *)
let prop_tl_matches_flat =
  QCheck2.Test.make ~name:"two-level pops = flat heap pops" ~count:200
    QCheck2.Gen.(list_size (int_bound 60) (pair (int_bound 5) (float_range 0.0 100.0)))
    (fun inserts ->
      let width = 64 in
      let tl = Tl.create ~groups:6 ~width in
      let fill = Array.make 6 0 in
      let flat =
        List.map
          (fun (g, key) ->
            let e = (g * width) + fill.(g) in
            fill.(g) <- fill.(g) + 1;
            tl_insert tl ~key e;
            (e, key))
          inserts
      in
      let rec drain acc =
        if Tl.is_empty tl then List.rev acc
        else begin
          let r = tl_root tl in
          Tl.drop_max tl;
          drain (r :: acc)
        end
      in
      drain [] = List.sort model_order flat)

(* A slot holds its entry as a 16-bit offset inside its group: the widest
   group, 65,536 entries, fills completely, keeps every offset apart and
   drains in the flat order; one entry wider is refused up front. *)
let test_tl_widest_group () =
  let width = 65_536 in
  let h = Tl.create ~groups:2 ~width in
  let key e = float_of_int ((e * 7919) mod 13) in
  for off = width - 1 downto 0 do
    tl_insert h ~key:(key (width + off)) (width + off)
  done;
  Alcotest.(check int) "a full group" width (Tl.size h);
  Alcotest.check_raises "group overflow" (Invalid_argument "Two_level_heap.insert: group full")
    (fun () -> tl_insert h ~key:0.0 width);
  Tl.remove h (width + 65_535);
  let expected =
    List.init (width - 1) (fun off -> (width + off, key (width + off))) |> List.sort model_order
  in
  let rec drain acc =
    if Tl.is_empty h then List.rev acc
    else begin
      let r = tl_root h in
      Tl.drop_max h;
      drain (r :: acc)
    end
  in
  if drain [] <> expected then Alcotest.fail "the widest group drains out of order";
  Alcotest.check_raises "width 65,537"
    (Invalid_argument "Two_level_heap.create: width above 65536") (fun () ->
      ignore (Tl.create ~groups:1 ~width:(width + 1)))

(* Group ids and upper positions take 32 bits: 100,000 one-entry groups
   (ids well past 16 bits) drain in the flat order, and more groups than
   a 32-bit id addresses are refused before anything is allocated. *)
let test_tl_group_ids () =
  let groups = 100_000 in
  let h = Tl.create ~groups ~width:1 in
  let key g = float_of_int ((g * 7919) mod 1009) in
  List.iter (fun g -> tl_insert h ~key:(key g) g) [ 99_999; 65_536; 70_001; 3; 65_535; 99_998 ];
  let expected = List.sort model_order (List.map (fun g -> (g, key g)) [ 99_999; 65_536; 70_001; 3; 65_535; 99_998 ]) in
  let rec drain acc =
    if Tl.is_empty h then List.rev acc
    else begin
      let r = tl_root h in
      Tl.drop_max h;
      drain (r :: acc)
    end
  in
  if drain [] <> expected then Alcotest.fail "groups past 16 bits drain out of order";
  Alcotest.check_raises "2^31 groups"
    (Invalid_argument "Two_level_heap.create: more than 2^31 - 1 groups") (fun () ->
      ignore (Tl.create ~groups:0x8000_0000 ~width:1))

(* Once created the arena allocates nothing: a cycle of insert, remove,
   refresh, the greedy's max_key_into sign test and drop_max moves the minor-heap
   counter by exactly what an empty measurement does. Native only —
   bytecode boxes every float. Keys are literals or travel through the
   cell, so no float is boxed at a call. *)
let test_tl_no_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let h = Tl.create ~groups:16 ~width:8 in
    let cell = [| 0.0 |] in
    let f e = cell.(0) <- float_of_int ((e * 7) mod 5) in
    let demote _ = cell.(0) <- cell.(0) -. 1.0 in
    let cycle () =
      for g = 0 to 15 do
        for j = 0 to 7 do
          cell.(0) <- (if j land 1 = 0 then 0.5 else 2.0);
          Tl.insert h cell ((g * 8) + j)
        done
      done;
      for g = 0 to 15 do
        Tl.remove h ((g * 8) + 3)
      done;
      for g = 0 to 15 do
        Tl.refresh_pair_into h g cell ~f
      done;
      while not (Tl.is_empty h) do
        Tl.max_key_into h cell;
        if cell.(0) > 1.0 then Tl.drop_max h
        else begin
          (* re-key the root's group, as a stale root's refresh does *)
          Tl.refresh_pair_into h (Tl.max_elt h / 8) cell ~f:demote;
          Tl.max_key_into h cell;
          if cell.(0) <= 0.0 then Tl.drop_max h
        end
      done
    in
    let words_of g =
      let w0 = Gc.minor_words () in
      g ();
      Gc.minor_words () -. w0
    in
    cycle ();
    let empty = words_of ignore in
    let used = words_of cycle in
    Alcotest.(check (float 0.0)) "minor words of a heap cycle" empty used
  end

let () =
  Alcotest.run "pqueue"
    [
      ( "binary_heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          QCheck_alcotest.to_alcotest prop_heap_model;
        ] );
      ( "two_level_heap",
        [
          Alcotest.test_case "global max" `Quick test_tl_global_max;
          Alcotest.test_case "drain pair" `Quick test_tl_drain_pair;
          Alcotest.test_case "refresh" `Quick test_tl_refresh;
          Alcotest.test_case "missing pair no-ops" `Quick test_tl_missing_pair_noops;
          Alcotest.test_case "no allocation after create" `Quick test_tl_no_allocation;
          Alcotest.test_case "widest group: 65,536 entries" `Quick test_tl_widest_group;
          QCheck_alcotest.to_alcotest prop_tl_model_sign;
          QCheck_alcotest.to_alcotest prop_tl_matches_flat;
          QCheck_alcotest.to_alcotest prop_tl_model_refresh;
          Alcotest.test_case "32-bit group ids: 100,000 groups, at most 2^31 - 1" `Quick
            test_tl_group_ids;
        ] );
    ]
