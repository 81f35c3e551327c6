module Err = Revmax_prelude.Err

let fp = Printf.fprintf

let write_instance oc inst =
  fp oc "revmax-instance 1\n";
  fp oc "# users items horizon display_limit\n";
  fp oc "dims %d %d %d %d\n" (Instance.num_users inst) (Instance.num_items inst)
    (Instance.horizon inst) (Instance.display_limit inst);
  let horizon = Instance.horizon inst in
  for i = 0 to Instance.num_items inst - 1 do
    fp oc "item %d %d %d %.17g" i (Instance.class_of inst i) (Instance.capacity inst i)
      (Instance.saturation inst i);
    for t = 1 to horizon do
      fp oc " %.17g" (Instance.price inst ~i ~time:t)
    done;
    fp oc "\n"
  done;
  for u = 0 to Instance.num_users inst - 1 do
    Array.iter
      (fun (i, qs) ->
        (match Instance.rating inst ~u ~i with
        | Some r -> fp oc "rating %d %d %.17g\n" u i r
        | None -> ());
        fp oc "q %d %d" u i;
        Array.iter (fun q -> fp oc " %.17g" q) qs;
        fp oc "\n")
      (Instance.candidates inst u)
  done;
  fp oc "end\n"

type parse_state = {
  file : string;
  mutable line_no : int;
  mutable line : string; (* raw text of the current line, for column reports *)
  ic : in_channel;
}

let fail ?(col = 0) st msg =
  Err.raise_ (Err.Parse_error { file = st.file; line = st.line_no; col; msg })

(* 1-based column of [token] as a whitespace-delimited field of the current
   raw line; 0 when it cannot be located (e.g. after trimming collapsed it) *)
let column_of st token =
  let line = st.line in
  let n = String.length line and m = String.length token in
  let is_ws c = c = ' ' || c = '\t' in
  let rec scan i =
    if m = 0 || i + m > n then 0
    else if
      (i = 0 || is_ws line.[i - 1])
      && String.sub line i m = token
      && (i + m = n || is_ws line.[i + m])
    then i + 1
    else scan (i + 1)
  in
  scan 0

(* next non-comment, non-blank line split on whitespace; None at EOF *)
let rec next_fields st =
  match In_channel.input_line st.ic with
  | None -> None
  | Some line ->
      st.line_no <- st.line_no + 1;
      st.line <- line;
      let line = String.trim line in
      if line = "" || line.[0] = '#' then next_fields st
      else Some (String.split_on_char ' ' line |> List.filter (fun s -> s <> ""))

let int_field st s =
  match int_of_string_opt s with
  | Some v -> v
  | None -> fail ~col:(column_of st s) st ("bad integer " ^ s)

let float_field st s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail ~col:(column_of st s) st ("bad float " ^ s)

let default_file = "<channel>"

let max_users = 1 lsl 24

let read_instance_exn ?(file = default_file) ic =
  let st = { file; line_no = 0; line = ""; ic } in
  (match next_fields st with
  | Some [ "revmax-instance"; "1" ] -> ()
  | _ -> fail st "expected header: revmax-instance 1");
  let num_users, num_items, horizon, display_limit =
    match next_fields st with
    | Some [ "dims"; a; b; c; d ] ->
        (int_field st a, int_field st b, int_field st c, int_field st d)
    | _ -> fail st "expected: dims <users> <items> <horizon> <k>"
  in
  if num_users < 0 || num_items < 0 || horizon < 1 || display_limit < 1 then
    fail st "bad dimensions";
  (* the user count sizes the instance's row offsets but needs no record,
     so it is capped; every item needs a record and a price row needs its
     prices on the line, so item tables are sized from what was read *)
  if num_users > max_users then
    fail st (Printf.sprintf "%d users exceed the text format's cap of %d" num_users max_users);
  let items = Hashtbl.create 16 in
  let ratings = ref [] and adoption = ref [] in
  let finished = ref false in
  while not !finished do
    match next_fields st with
    | None -> fail st "unexpected end of file (missing `end')"
    | Some [ "end" ] -> finished := true
    | Some ("item" :: idx :: cls :: cap :: sat :: prices) ->
        let i = int_field st idx in
        if i < 0 || i >= num_items then fail ~col:(column_of st idx) st "item id out of range";
        if Hashtbl.mem items i then fail st "duplicate item record";
        let cls = int_field st cls in
        let cap = int_field st cap in
        let sat = float_field st sat in
        if List.length prices <> horizon then fail st "wrong number of prices";
        Hashtbl.replace items i (cls, cap, sat, Array.of_list (List.map (float_field st) prices))
    | Some [ "rating"; u; i; r ] ->
        ratings := (int_field st u, int_field st i, float_field st r) :: !ratings
    | Some ("q" :: u :: i :: qs) ->
        if List.length qs <> horizon then fail st "wrong number of probabilities";
        let arr = Array.of_list (List.map (float_field st) qs) in
        adoption := (int_field st u, int_field st i, arr) :: !adoption
    | Some (tag :: _) -> fail ~col:(column_of st tag) st ("unknown record " ^ tag)
    | Some [] -> ()
  done;
  (* with fewer records than items, the first missing id is at most the
     record count *)
  if Hashtbl.length items < num_items then begin
    let i = ref 0 in
    while Hashtbl.mem items !i do
      incr i
    done;
    fail st (Printf.sprintf "item %d missing" !i)
  end;
  let field f = Array.init num_items (fun i -> f (Hashtbl.find items i)) in
  match
    Instance.create_checked ~num_users ~num_items ~horizon ~display_limit
      ~class_of:(field (fun (c, _, _, _) -> c))
      ~capacity:(field (fun (_, c, _, _) -> c))
      ~saturation:(field (fun (_, _, b, _) -> b))
      ~price:(field (fun (_, _, _, p) -> p))
      ~ratings:!ratings ~adoption:!adoption ()
  with
  | Ok inst -> inst
  | Error e -> Err.raise_ e

let read_instance_result ?file ic =
  match read_instance_exn ?file ic with v -> Ok v | exception Err.Error e -> Error e

let read_instance ?file ic =
  try read_instance_exn ?file ic with Err.Error e -> failwith (Err.message e)

let write_strategy oc s =
  fp oc "revmax-strategy 1\n";
  List.iter (fun (z : Triple.t) -> fp oc "triple %d %d %d\n" z.u z.i z.t) (Strategy.to_list s);
  fp oc "end\n"

let read_strategy_exn ?(file = default_file) inst ic =
  let st = { file; line_no = 0; line = ""; ic } in
  (match next_fields st with
  | Some [ "revmax-strategy"; "1" ] -> ()
  | _ -> fail st "expected header: revmax-strategy 1");
  let s = Strategy.create inst in
  let finished = ref false in
  while not !finished do
    match next_fields st with
    | None -> fail st "unexpected end of file (missing `end')"
    | Some [ "end" ] -> finished := true
    | Some [ "triple"; u; i; t ] -> (
        let z = Triple.make ~u:(int_field st u) ~i:(int_field st i) ~t:(int_field st t) in
        match Strategy.add_result s z with Ok () -> () | Error e -> fail st (Err.message e))
    | Some (tag :: _) -> fail ~col:(column_of st tag) st ("unknown record " ^ tag)
    | Some [] -> ()
  done;
  s

let read_strategy_result ?file inst ic =
  match read_strategy_exn ?file inst ic with v -> Ok v | exception Err.Error e -> Error e

let read_strategy ?file inst ic =
  try read_strategy_exn ?file inst ic with Err.Error e -> failwith (Err.message e)

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let with_in path f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic)

(* Write through [f], then force the bytes to stable storage before the
   channel closes: without the [Unix.fsync] a crash shortly after the
   rename can leave the *renamed* file empty or truncated on journaling
   filesystems (the rename is a metadata operation and may be committed
   before the data blocks), which is exactly the torn-checkpoint state
   [save_atomic] exists to rule out. *)
let with_out_sync path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      let r = f oc in
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc);
      r)

(* Best-effort directory sync so the rename itself survives power loss;
   some platforms refuse fsync on a directory fd, which is fine to
   ignore — the data-file fsync above already rules out torn contents. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let save_atomic path f =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ("." ^ Filename.basename path) ".tmp" in
  match with_out_sync tmp f with
  | () ->
      Sys.rename tmp path;
      fsync_dir dir
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let save_instance path inst = with_out path (fun oc -> write_instance oc inst)
let load_instance path = with_in path (read_instance ~file:path)

let load_instance_result path =
  match with_in path (fun ic -> read_instance_result ~file:path ic) with
  | r -> r
  | exception Sys_error msg -> Error (Err.Io_error { path; msg })

let save_strategy path s = with_out path (fun oc -> write_strategy oc s)
let load_strategy inst path = with_in path (read_strategy ~file:path inst)

let load_strategy_result inst path =
  match with_in path (fun ic -> read_strategy_result ~file:path inst ic) with
  | r -> r
  | exception Sys_error msg -> Error (Err.Io_error { path; msg })
