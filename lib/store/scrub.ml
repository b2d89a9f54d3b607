(* Incremental on-line scrubbing of a store's on-disk files.

   A server that only re-reads its snapshot at restart discovers bit
   rot exactly when it can least afford to: during crash recovery.  The
   scrubber re-verifies every CRC in the snapshot and journal
   continuously, a bounded number of bytes per select-loop tick, so a
   flipped bit is found while the previous generation is still fresh
   and a repair is cheap.

   It knows neither layout: it runs {!Binio.walk} with the
   {!Snapshot.layout} and then the {!Journal.layout} over bounded
   [pread]s, so what it finds — kind and offset — is what
   {!Snapshot.read} and {!Journal.read} find in the same bytes.

   Live-mutation safety — the files are being written while we read:

   - The snapshot fd is opened once per cycle and kept across ticks.  A
     checkpoint replaces the path by [rename], which leaves our fd on
     the old, immutable, complete image — we finish verifying that
     inode and pick up the new one next cycle.  No false positives.
   - The journal is appended to (and truncated by compaction, which
     keeps the same inode).  Growth past the end we reach is simply
     next cycle's work.  A torn tail is the normal signature of an
     in-flight append or a crash, explicitly NOT damage (recovery
     truncates it).  Any other journal damage is reported only after
     re-checking the file: if the inode changed or shrank beneath the
     bytes read, the walk was invalidated by compaction and is
     abandoned silently.

   Findings are deduplicated per (inode, offset): a fault is reported
   once, not once per cycle.  After a repair the snapshot inode
   changes, which naturally re-arms reporting. *)

type finding = {
  file : string;
  offset : int;
  kind : Binio.damage_kind;
  reason : string;
}

let pp_finding ppf f =
  Format.fprintf ppf "%s: byte %d (%s): %s" f.file f.offset
    (Binio.kind_name f.kind) f.reason

type tick = { bytes : int; findings : finding list }

type cursor = {
  fd : Unix.file_descr;
  ino : int;
  walk : Binio.walk;
}

type t = {
  path : string;
  budget : int;  (* max bytes verified per tick *)
  buf : bytes;
  seen : (int * int, unit) Hashtbl.t;  (* (inode, offset) already reported *)
  mutable file : int;  (* 0 the snapshot, 1 the journal, 2 cycle done *)
  mutable cursor : cursor option;
  mutable cycles : int;
}

let create ?(budget = 65536) ~path () =
  let budget = max 512 budget in
  { path;
    budget;
    buf = Bytes.create budget;
    seen = Hashtbl.create 8;
    file = 0;
    cursor = None;
    cycles = 0 }

let cycles t = t.cycles

let release t =
  Option.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.cursor;
  t.cursor <- None

(* [close] can land mid-walk (the server closes the scrubber after a
   repair rewrites the files under it): the next tick starts a fresh
   cycle. *)
let close t =
  release t;
  t.file <- 0

let next_file t =
  release t;
  t.file <- t.file + 1

let report t out ~ino ~file (d : Binio.damage) =
  if not (Hashtbl.mem t.seen (ino, d.offset)) then begin
    Hashtbl.replace t.seen (ino, d.offset) ();
    out := { file; offset = d.offset; kind = d.kind; reason = d.reason } :: !out
  end

(* The journal walk is valid only while the fd still names the live
   journal and the file has not shrunk beneath [upto] (compaction
   truncates in place).  Journal damage is reported only through this
   guard. *)
let journal_live fd jpath upto =
  match (Unix.fstat fd, Unix.stat jpath) with
  | st, pst -> st.Unix.st_size >= upto && pst.Unix.st_ino = st.Unix.st_ino
  | exception Unix.Unix_error _ -> false

(* One step of the current file's walk; returns the bytes read. *)
let step t out budget =
  let journal = t.file = 1 in
  let file = if journal then Store.journal_path t.path else t.path in
  match t.cursor with
  | None -> (
    match Unix.openfile file [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | fd ->
      let ino = try (Unix.fstat fd).Unix.st_ino with Unix.Unix_error _ -> 0 in
      let layout = if journal then Journal.layout else Snapshot.layout in
      t.cursor <- Some { fd; ino; walk = Binio.walk layout };
      0
    | exception Unix.Unix_error (e, _, _) ->
      (* an absent journal is a freshly compacted store resetting it *)
      if not journal then
        report t out ~ino:0 ~file
          { offset = 0; kind = Unreadable; reason = Unix.error_message e };
      next_file t;
      0)
  | Some c -> (
    let least, most = Binio.want c.walk in
    let off = Binio.offset c.walk in
    let damaged (d : Binio.damage) =
      let upto = Binio.offset c.walk in
      if (not journal) || (d.kind <> Torn_tail && journal_live c.fd file upto)
      then report t out ~ino:c.ino ~file d;
      next_file t
    in
    match Binio.pread c.fd t.buf ~off ~len:(max least (min most budget)) with
    | exception Unix.Unix_error (e, _, _) ->
      damaged
        { offset = off; kind = Unreadable; reason = Unix.error_message e };
      0
    | got ->
      (match Binio.feed c.walk t.buf ~pos:0 ~len:got with
       | More | Verified _ -> ()
       | Damaged d -> damaged d
       | Finished -> next_file t);
      got)

let tick t =
  match Mdqa_obs.Failpoint.hit "store.scrub" with
  | exception Mdqa_obs.Failpoint.Injected msg ->
    (* a scripted fault counts as a detected fault: it exercises the
       trip-and-repair path without real corruption; each injection is
       a distinct fault, so it bypasses the dedup *)
    { bytes = 0;
      findings =
        [ { file = t.path; offset = 0; kind = Crc_mismatch;
            reason = "fault injected: " ^ msg } ] }
  | () ->
    let out = ref [] in
    let bytes = ref 0 in
    (* zero-byte steps (opens, file ends) are bounded by [spin] so a
       tick always terminates *)
    let rec go spin =
      if t.file > 1 then begin
        (* cycle complete: release the fds, start over next tick *)
        close t;
        t.cycles <- t.cycles + 1
      end
      else if !bytes < t.budget && spin < 64 then
        match step t out (t.budget - !bytes) with
        | 0 -> go (spin + 1)
        | n ->
          bytes := !bytes + n;
          go 0
    in
    go 0;
    { bytes = !bytes; findings = List.rev !out }
