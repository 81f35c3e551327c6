(* Spans the benchmark records around its own calls into each layer, in
   traced repetitions only: name, start, end, the enclosing span, and the
   id of the serve request it belongs to (0 outside requests). They stay
   in memory until the run writes them out at exit. *)

type t = { id : int; parent : int; req : int; name : string; start : float; stop : float }

let on = ref false
let recorded : t list ref = ref []
let next_id = ref 1
let open_ids : int list ref = ref []

let with_ ?(req = 0) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> 0 in
    open_ids := id :: !open_ids;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        open_ids := List.tl !open_ids;
        recorded := { id; parent; req; name; start; stop = Unix.gettimeofday () } :: !recorded)
      f
  end

(* The spans recorded since the last call, oldest first. *)
let take () =
  let spans = List.rev !recorded in
  recorded := [];
  spans

(* Per span name: (count, total seconds, self seconds). Spans nest
   strictly, so a span's self time is its duration minus its children's. *)
let summary spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let t = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
      Hashtbl.replace child_time s.parent (t +. (s.stop -. s.start)))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let n, tot, slf = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, tot +. dur, slf +. self))
    spans;
  List.sort compare (Hashtbl.fold (fun name (n, tot, slf) acc -> (name, n, tot, slf) :: acc) by_name [])

let write path spans =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n" s.id
            s.parent s.req s.name s.start s.stop)
        spans)
