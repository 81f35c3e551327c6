module Bh = Revmax_pqueue.Binary_heap
module Tl = Revmax_pqueue.Two_level_heap

(* ----- Binary_heap unit tests ----- *)

let test_heap_basic () =
  let h = Bh.create () in
  Alcotest.(check bool) "empty" true (Bh.is_empty h);
  ignore (Bh.insert h ~key:1.0 "a");
  ignore (Bh.insert h ~key:3.0 "b");
  ignore (Bh.insert h ~key:2.0 "c");
  Alcotest.(check int) "size" 3 (Bh.size h);
  (match Bh.find_max h with
  | Some ("b", 3.0) -> ()
  | _ -> Alcotest.fail "wrong max");
  (match Bh.delete_max h with
  | Some ("b", 3.0) -> ()
  | _ -> Alcotest.fail "wrong delete_max");
  Alcotest.(check int) "size after delete" 2 (Bh.size h)

let test_heap_update_key () =
  let h = Bh.create () in
  let ha = Bh.insert h ~key:1.0 "a" in
  let _hb = Bh.insert h ~key:2.0 "b" in
  Bh.update_key h ha 5.0;
  (match Bh.find_max h with
  | Some ("a", 5.0) -> ()
  | _ -> Alcotest.fail "increase-key did not percolate");
  Bh.update_key h ha 0.5;
  match Bh.find_max h with
  | Some ("b", 2.0) -> ()
  | _ -> Alcotest.fail "decrease-key did not percolate"

let test_heap_remove () =
  let h = Bh.create () in
  let ha = Bh.insert h ~key:10.0 "a" in
  let _ = Bh.insert h ~key:5.0 "b" in
  Bh.remove h ha;
  Alcotest.(check bool) "handle gone" false (Bh.contains h ha);
  (match Bh.find_max h with
  | Some ("b", 5.0) -> ()
  | _ -> Alcotest.fail "wrong max after remove");
  Alcotest.check_raises "stale handle" (Invalid_argument "Binary_heap: stale or foreign handle")
    (fun () -> Bh.remove h ha)

let test_heap_of_list_sorted () =
  let items = List.init 100 (fun i -> (float_of_int ((i * 37) mod 100), i)) in
  let h = Bh.of_list items in
  let sorted = Bh.to_sorted_list h in
  let keys = List.map snd sorted in
  let expected = List.sort (fun a b -> compare b a) (List.map fst items) in
  Alcotest.(check (list (float 1e-9))) "descending keys" expected keys

(* Model-based property test: the heap behaves like a sorted reference
   list under a random operation sequence. *)
let prop_heap_model =
  QCheck2.Test.make ~name:"heap matches sorted-list model" ~count:200
    QCheck2.Gen.(list (pair (float_range (-100.0) 100.0) small_int))
    (fun ops ->
      let h = Bh.create () in
      let model = ref [] in
      List.iter
        (fun (k, v) ->
          if v mod 3 = 0 && !model <> [] then begin
            (* delete max in both *)
            (match Bh.delete_max h with
            | Some (_, key) ->
                let best = List.fold_left (fun acc (k', _) -> Float.max acc k') neg_infinity !model in
                if not (Helpers.float_eq key best) then failwith "max mismatch";
                (* remove one element with the max key from the model *)
                let removed = ref false in
                model :=
                  List.filter
                    (fun (k', _) ->
                      if (not !removed) && Helpers.float_eq k' best then begin
                        removed := true;
                        false
                      end
                      else true)
                    !model
            | None -> failwith "heap empty but model non-empty")
          end
          else begin
            ignore (Bh.insert h ~key:k v);
            model := (k, v) :: !model
          end)
        ops;
      Bh.size h = List.length !model)

(* Stronger model-based test: random interleavings of insert, update_key
   (increase AND decrease through live handles), remove and delete_max,
   with keys drawn from a 5-value set so duplicate priorities are the
   common case, checked against a sorted association-list reference.
   Elements carry unique ids; on a popped duplicate key any id holding
   that key is acceptable, but it must then leave the model too. *)
let prop_heap_model_handles =
  let open QCheck2 in
  Test.make ~name:"heap matches model under update_key/remove/pop (dup keys)" ~count:300
    Gen.(list (triple (int_bound 9) (int_bound 4) (int_bound 1000)))
    (fun ops ->
      let h = Bh.create () in
      (* model: (uid, key) for every live element; handles: uid -> handle *)
      let model = ref [] in
      let handles = Hashtbl.create 16 in
      let next_uid = ref 0 in
      let pick_live pick = List.nth !model (pick mod List.length !model) in
      let insert key =
        let uid = !next_uid in
        incr next_uid;
        Hashtbl.replace handles uid (Bh.insert h ~key uid);
        model := (uid, key) :: !model
      in
      List.iter
        (fun (op, key_idx, pick) ->
          let key = float_of_int key_idx in
          if !model = [] || op <= 4 then insert key
          else if op <= 6 then begin
            (* update_key: key_idx may be below or above the old key, so this
               exercises decrease-key and increase-key alike *)
            let uid, _ = pick_live pick in
            Bh.update_key h (Hashtbl.find handles uid) key;
            model := List.map (fun (u, k) -> if u = uid then (u, key) else (u, k)) !model
          end
          else if op = 7 then begin
            let uid, _ = pick_live pick in
            Bh.remove h (Hashtbl.find handles uid);
            Hashtbl.remove handles uid;
            model := List.filter (fun (u, _) -> u <> uid) !model
          end
          else begin
            match Bh.delete_max h with
            | None -> failwith "heap empty but model non-empty"
            | Some (uid, k) ->
                let best = List.fold_left (fun acc (_, k') -> Float.max acc k') neg_infinity !model in
                if not (Helpers.float_eq k best) then failwith "popped key is not the model max";
                (match List.assoc_opt uid !model with
                | Some k' when Helpers.float_eq k' k -> ()
                | _ -> failwith "popped element not in model at that key");
                Hashtbl.remove handles uid;
                model := List.filter (fun (u, _) -> u <> uid) !model
          end)
        ops;
      (* invariants after the op sequence *)
      if Bh.size h <> List.length !model then failwith "size mismatch";
      List.iter
        (fun (uid, k) ->
          let hd = Hashtbl.find handles uid in
          if not (Bh.contains h hd) then failwith "live handle reported absent";
          if not (Helpers.float_eq (Bh.key h hd) k) then failwith "handle key drifted from model")
        !model;
      (* drain: the popped key sequence is the model's keys in descending order *)
      let drained = List.map snd (Bh.to_sorted_list h) in
      let expected = List.sort (fun a b -> compare b a) (List.map snd !model) in
      List.length drained = List.length expected && List.for_all2 Helpers.float_eq drained expected)


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
  Tl.insert h ~key:1.0 0;
  Tl.insert h ~key:4.0 1;
  Tl.insert h ~key:3.0 4;
  Alcotest.(check int) "size" 3 (Tl.size h);
  check_root "global max" h (1, 4.0);
  Tl.drop_max h;
  check_root "upper level resynced" h (4, 3.0);
  Tl.drop_max h;
  check_root "last group" h (0, 1.0)

let test_tl_drain_pair () =
  let h = Tl.create ~groups:8 ~width:2 in
  Tl.insert h ~key:2.0 14;
  Tl.drop_max h;
  Alcotest.(check bool) "empty" true (Tl.is_empty h);
  Alcotest.check_raises "root of an empty heap" (Invalid_argument "Two_level_heap: empty heap")
    (fun () -> ignore (Tl.max_elt h));
  (* a drained group takes entries again *)
  Tl.insert h ~key:1.0 15;
  check_root "refilled group" h (15, 1.0)

let test_tl_refresh () =
  let h = Tl.create ~groups:2 ~width:2 in
  let cell = [| 0.0 |] in
  Tl.insert h ~key:10.0 0;
  Tl.insert h ~key:9.0 1;
  Tl.insert h ~key:5.0 2;
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
  Tl.insert h ~key:1.0 1;
  Tl.refresh_pair_into h 99 cell ~f:(fun _ -> Alcotest.fail "f called on an empty group");
  Alcotest.(check int) "untouched" 1 (Tl.size h);
  check_root "no-op refresh disturbed the heap" h (1, 1.0);
  Alcotest.check_raises "group overflow" (Invalid_argument "Two_level_heap.insert: group full")
    (fun () -> Tl.insert h ~key:2.0 1)

(* celf_step decides a fresh root key against the global runner-up, in
   the strict (key, entry) order, across and within groups *)
let test_tl_celf_step () =
  let h = Tl.create ~groups:2 ~width:4 in
  let cell = [| 0.0 |] in
  let step k =
    cell.(0) <- k;
    Tl.celf_step h cell
  in
  let outcome = Alcotest.of_pp (fun ppf o ->
      Format.pp_print_string ppf
        (match o with `Accepted -> "Accepted" | `Finished -> "Finished" | `Rekeyed -> "Rekeyed"))
  in
  Tl.insert h ~key:10.0 0;
  Tl.insert h ~key:8.0 1;
  Tl.insert h ~key:9.0 4;
  (* below the other group's root: re-keyed, that root leads *)
  Alcotest.check outcome "lost to group 1" `Rekeyed (step 1.0);
  check_root "group 1 leads" h (4, 9.0);
  Alcotest.(check int) "rekey keeps every entry" 3 (Tl.size h);
  (* an exact tie with group 0's root (entry 1, key 8): the smaller entry wins *)
  Alcotest.check outcome "tie lost to the smaller entry" `Rekeyed (step 8.0);
  check_root "tie winner surfaces" h (1, 8.0);
  Alcotest.check outcome "tie won by the smaller entry" `Accepted (step 8.0);
  Alcotest.(check int) "accepted entry removed" 2 (Tl.size h);
  check_root "runner-up promoted" h (4, 8.0);
  (* group 1's only entry falls below group 0's root (entry 0 at 1.0) *)
  Alcotest.check outcome "lost across groups" `Rekeyed (step 0.0);
  check_root "group 0 leads" h (0, 1.0);
  Alcotest.check outcome "non-positive loses to 0.0" `Rekeyed (step (-1.0));
  Alcotest.check outcome "leads but non-positive" `Finished (step 0.0);
  Alcotest.(check int) "finish removes nothing" 2 (Tl.size h);
  check_root "finish leaves the root" h (4, 0.0)

(* The flat model: a list of (entry, key); the heap must agree with its
   strict maximum — higher key first, equal keys smaller entry first. *)
let model_order (e1, k1) (e2, k2) = if k1 <> k2 then compare k2 k1 else compare e1 e2

let model_max model = List.hd (List.sort model_order model)

(* Model-based test of the whole API. Ops: insert (op ≤ 4), refresh_pair_into
   with a deterministic rekey mirrored in the model, celf_step with a fresh
   key (only when [celf]), and drop_max. Keys come from a 5-value set so
   ties are common, and may be ≤ 0 so celf_step finishes. After every op
   the heap's root and size must match the model; at the end the drain
   order must be the model's sorted order. *)
let tl_model_prop ~name ~celf =
  let open QCheck2 in
  let groups = 4 and width = 5 in
  Test.make ~name ~count:300
    Gen.(list (triple (int_bound 9) (int_bound (groups * width - 1)) (int_bound 1000)))
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
                Tl.insert h ~key:(key_of salt) e;
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
          else if op = 7 && celf then begin
            let e0, _ = model_max !model in
            let m = key_of (salt / 7) in
            cell.(0) <- m;
            let got = Tl.celf_step h cell in
            let rest = List.filter (fun (e, _) -> e <> e0) !model in
            let beaten = rest <> [] && model_order (model_max rest) (e0, m) < 0 in
            (match got with
            | `Rekeyed when beaten -> model := (e0, m) :: rest
            | `Finished when (not beaten) && m <= 0.0 -> ()
            | `Accepted when (not beaten) && m > 0.0 -> model := rest
            | _ -> failwith "celf_step decided against the model");
            check_against_model "celf_step"
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
  tl_model_prop ~name:"two-level heap matches model under refresh_pair (dup keys)" ~celf:false

let prop_tl_model_celf = tl_model_prop ~name:"celf_step matches flat model (dup keys)" ~celf:true

(* Property: the two-level drain equals a flat Binary_heap's over the same
   (entry, key) inserts, with the entry as the flat heap's tie rank. *)
let prop_tl_matches_flat =
  QCheck2.Test.make ~name:"two-level pops = flat heap pops" ~count:200
    QCheck2.Gen.(list_size (int_bound 60) (pair (int_bound 5) (float_range 0.0 100.0)))
    (fun inserts ->
      let width = 64 in
      let tl = Tl.create ~groups:6 ~width in
      let flat = Bh.create () in
      let fill = Array.make 6 0 in
      List.iter
        (fun (g, key) ->
          let e = (g * width) + fill.(g) in
          fill.(g) <- fill.(g) + 1;
          Tl.insert tl ~key e;
          ignore (Bh.insert flat ~key ~tie:e e))
        inserts;
      let rec drain acc =
        if Tl.is_empty tl then List.rev acc
        else begin
          let r = tl_root tl in
          Tl.drop_max tl;
          drain (r :: acc)
        end
      in
      let rec drain_flat acc =
        match Bh.delete_max flat with None -> List.rev acc | Some r -> drain_flat (r :: acc)
      in
      drain [] = drain_flat [])

(* Once created the arena allocates nothing: a cycle of insert, refresh,
   celf_step and drop_max moves the minor-heap counter by exactly what an
   empty measurement does. Native only — bytecode boxes every float. Keys
   are literals or travel through the cell, so no float is boxed at a
   call. *)
let test_tl_no_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let h = Tl.create ~groups:16 ~width:8 in
    let cell = [| 0.0 |] in
    let f e = cell.(0) <- float_of_int ((e * 7) mod 5) in
    let cycle () =
      for g = 0 to 15 do
        for j = 0 to 7 do
          Tl.insert h ~key:(if j land 1 = 0 then 0.5 else 2.0) ((g * 8) + j)
        done
      done;
      for g = 0 to 15 do
        Tl.refresh_pair_into h g cell ~f
      done;
      let flip = ref false in
      while not (Tl.is_empty h) do
        Tl.max_key_into h cell;
        if !flip then cell.(0) <- cell.(0) -. 1.0;
        flip := not !flip;
        match Tl.celf_step h cell with `Finished -> Tl.drop_max h | `Accepted | `Rekeyed -> ()
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
          Alcotest.test_case "update_key" `Quick test_heap_update_key;
          Alcotest.test_case "remove" `Quick test_heap_remove;
          Alcotest.test_case "of_list sorted" `Quick test_heap_of_list_sorted;
          QCheck_alcotest.to_alcotest prop_heap_model;
          QCheck_alcotest.to_alcotest prop_heap_model_handles;
        ] );
      ( "two_level_heap",
        [
          Alcotest.test_case "global max" `Quick test_tl_global_max;
          Alcotest.test_case "drain pair" `Quick test_tl_drain_pair;
          Alcotest.test_case "refresh" `Quick test_tl_refresh;
          Alcotest.test_case "missing pair no-ops" `Quick test_tl_missing_pair_noops;
          Alcotest.test_case "celf_step against the runner-up" `Quick test_tl_celf_step;
          Alcotest.test_case "no allocation after create" `Quick test_tl_no_allocation;
          QCheck_alcotest.to_alcotest prop_tl_model_celf;
          QCheck_alcotest.to_alcotest prop_tl_matches_flat;
          QCheck_alcotest.to_alcotest prop_tl_model_refresh;
        ] );
    ]
