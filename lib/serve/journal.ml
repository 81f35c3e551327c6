module Metrics = Revmax_prelude.Metrics

type event =
  | Adopt of { u : int; i : int; t : int }
  | Click of { u : int; i : int; t : int }
  | Cap of { i : int; delta : int }
  | Repair

let pp_event ppf = function
  | Adopt { u; i; t } -> Format.fprintf ppf "adopt(u=%d,i=%d,t=%d)" u i t
  | Click { u; i; t } -> Format.fprintf ppf "click(u=%d,i=%d,t=%d)" u i t
  | Cap { i; delta } -> Format.fprintf ppf "cap(i=%d,delta=%d)" i delta
  | Repair -> Format.fprintf ppf "repair"

type t = {
  path : string;
  fd : Unix.file_descr;
  sync_every : int;
  mutable unsynced : int;
  mutable offset : int; (* end-of-file append position *)
  mutable chain : int; (* the last record's CRC, which the next one runs on from; 0 when empty *)
  mutable closed : bool;
}

let c_appends = Metrics.counter "journal.appends"
let c_syncs = Metrics.counter "journal.syncs"
let c_healed_bytes = Metrics.counter "journal.healed_bytes"
let c_healed_records = Metrics.counter "journal.dropped_corrupt_records"

let crc32_update = Revmax_prelude.Util.crc32_update

(* ------------------------------------------------------------------ *)
(* Record codec                                                        *)
(* ------------------------------------------------------------------ *)

(* payloads are tiny; anything larger than this in a length prefix is
   corruption, not a record *)
let max_payload = 1 lsl 16

let tag_of = function Adopt _ -> 1 | Click _ -> 2 | Cap _ -> 3 | Repair -> 4

let encode_payload ~seq ev =
  let ints = match ev with
    | Adopt { u; i; t } | Click { u; i; t } -> [| u; i; t |]
    | Cap { i; delta } -> [| i; delta |]
    | Repair -> [||]
  in
  let b = Bytes.create (9 + (4 * Array.length ints)) in
  Bytes.set_uint8 b 0 (tag_of ev);
  Bytes.set_int64_le b 1 seq;
  Array.iteri (fun k v -> Bytes.set_int32_le b (9 + (4 * k)) (Int32.of_int v)) ints;
  b

let decode_payload b =
  let len = Bytes.length b in
  if len < 9 then None
  else
    let seq = Bytes.get_int64_le b 1 in
    let i32 k = Int32.to_int (Bytes.get_int32_le b (9 + (4 * k))) in
    let need n = len = 9 + (4 * n) in
    match Bytes.get_uint8 b 0 with
    | 1 when need 3 -> Some (seq, Adopt { u = i32 0; i = i32 1; t = i32 2 })
    | 2 when need 3 -> Some (seq, Click { u = i32 0; i = i32 1; t = i32 2 })
    | 3 when need 2 -> Some (seq, Cap { i = i32 0; delta = i32 1 })
    | 4 when need 0 -> Some (seq, Repair)
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Scan + self-heal                                                    *)
(* ------------------------------------------------------------------ *)

(* Walk the raw bytes of a journal; returns the surviving records in file
   order, the offset of the first invalid byte (= file length when the
   whole file is clean) and the CRC of the last surviving record. A
   record's CRC runs on from its predecessor's, so a record that is
   duplicated, or copied to another place, fails its check there. *)
let scan_bytes data =
  let len = Bytes.length data in
  let records = ref [] in
  let rec walk off chain =
    if off + 8 > len then (off, chain)
    else
      let plen = Int32.to_int (Bytes.get_int32_le data off) in
      if plen < 9 || plen > max_payload then (off, chain)
      else if off + 8 + plen > len then (off, chain) (* truncated tail *)
      else
        let crc = Int32.to_int (Bytes.get_int32_le data (off + 4)) land 0xFFFFFFFF in
        if crc32_update chain data (off + 8) plen <> crc then (off, chain)
        else
          match decode_payload (Bytes.sub data (off + 8) plen) with
          | None -> (off, chain)
          | Some r ->
              records := r :: !records;
              walk (off + 8 + plen) crc
  in
  let valid_end, chain = walk 0 0 in
  (List.rev !records, valid_end, chain)

let read_all path =
  if not (Sys.file_exists path) then Bytes.create 0
  else In_channel.with_open_bin path (fun ic -> Bytes.of_string (In_channel.input_all ic))

let events path =
  let records, _, _ = scan_bytes (read_all path) in
  records

let openw ?(sync_every = 1) path =
  let data = read_all path in
  let records, valid_end, chain = scan_bytes data in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  if valid_end < Bytes.length data then begin
    let dropped = Bytes.length data - valid_end in
    Metrics.incr c_healed_bytes ~by:dropped;
    Metrics.incr c_healed_records;
    Metrics.Log.warn "journal %s: dropping %d invalid tail bytes (self-heal at offset %d)\n" path
      dropped valid_end;
    Unix.ftruncate fd valid_end;
    (* the healed tail must be durable before new records land after it *)
    Unix.fsync fd
  end;
  ignore (Unix.lseek fd valid_end Unix.SEEK_SET);
  ({ path; fd; sync_every; unsynced = 0; offset = valid_end; chain; closed = false }, records)

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)
(* ------------------------------------------------------------------ *)

let write_all fd b off len =
  let written = ref off in
  let remaining = ref len in
  while !remaining > 0 do
    let n = Unix.write fd b !written !remaining in
    written := !written + n;
    remaining := !remaining - n
  done

let sync j =
  Chaos.point "journal.sync";
  Unix.fsync j.fd;
  j.unsynced <- 0;
  Metrics.incr c_syncs

let pending j = j.unsynced

let append j ~seq ev =
  if j.closed then invalid_arg "Journal.append: closed journal";
  Chaos.point "journal.append";
  let payload = encode_payload ~seq ev in
  let plen = Bytes.length payload in
  let record = Bytes.create (8 + plen) in
  let crc = crc32_update j.chain payload 0 plen in
  Bytes.set_int32_le record 0 (Int32.of_int plen);
  Bytes.set_int32_le record 4 (Int32.of_int crc);
  Bytes.blit payload 0 record 8 plen;
  let start = j.offset in
  let unsynced_before = j.unsynced and chain_before = j.chain in
  let rollback () =
    (* tear-proofing: a failed (or partial) write — including a failed
       fsync of this record — is rolled back to the record boundary so a
       supervised retry appends cleanly, never duplicating the sequence
       number or leaving mid-garbage *)
    j.offset <- start;
    j.unsynced <- unsynced_before;
    j.chain <- chain_before;
    try
      Unix.ftruncate j.fd start;
      ignore (Unix.lseek j.fd start Unix.SEEK_SET)
    with Unix.Unix_error _ -> ()
  in
  (try
     (* two halves with a chaos crash point in between: a seeded
        crash-on-write kills the process with a torn record on disk,
        which openw's self-heal must recover from *)
     let half = (8 + plen) / 2 in
     write_all j.fd record 0 half;
     Chaos.point "journal.mid_write";
     write_all j.fd record half (8 + plen - half);
     j.offset <- start + 8 + plen;
     j.chain <- crc;
     j.unsynced <- j.unsynced + 1;
     if j.sync_every > 0 && j.unsynced >= j.sync_every then sync j
   with e ->
     rollback ();
     raise e);
  Metrics.incr c_appends

let rotate j =
  Chaos.point "journal.rotate";
  Unix.ftruncate j.fd 0;
  ignore (Unix.lseek j.fd 0 Unix.SEEK_SET);
  j.offset <- 0;
  j.chain <- 0;
  j.unsynced <- 0;
  Unix.fsync j.fd

let size_bytes j = j.offset

let close j =
  if not j.closed then begin
    j.closed <- true;
    (try Unix.fsync j.fd with Unix.Unix_error _ -> ());
    Unix.close j.fd
  end
