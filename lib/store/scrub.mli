(** Incremental online verification of a store's on-disk CRCs.

    A scrubber re-reads the snapshot and journal continuously, a
    bounded number of bytes per {!tick}, so the single-threaded server
    loop can fold integrity checking between requests: bit rot is
    found while the previous generation is still fresh, not at the
    next crash recovery.

    It walks both files with {!Binio.walk} over the formats' own
    layouts ({!Snapshot.layout}, {!Journal.layout}), so a finding has
    the offset and kind that {!Snapshot.read} / {!Journal.read} report
    for the same bytes.  Two things only the offline readers see: a
    torn journal tail (the normal end of an in-flight append — never
    damage here) and a payload that passes its CRC but does not decode
    (the scrubber checks framing and CRCs, not payloads).

    The walk is safe against live mutation: the snapshot is verified
    through a retained fd (a checkpoint's [rename] leaves the fd on the
    old complete image), and journal damage is reported only after
    re-checking that compaction did not truncate or replace the file
    mid-walk.  Each fault is reported once per (inode, offset), so a
    counter of findings counts faults, not scrub passes over them.

    The [store.scrub] failpoint fires on every tick; arming it with
    [err] makes the injection surface as a synthetic [Crc_mismatch]
    finding at offset 0 — the trip-and-repair path can be exercised
    without real corruption. *)

type finding = {
  file : string;
  offset : int;  (** first untrusted byte *)
  kind : Binio.damage_kind;
  reason : string;
}

type t

val create : ?budget:int -> path:string -> unit -> t
(** A scrubber for the store at [path] (and its journal).  [budget]
    (default 64 KiB, floor 512) bounds the bytes verified per tick. *)

type tick = {
  bytes : int;
      (** bytes read and verified this tick: at most [budget] plus one
          file header *)
  findings : finding list;  (** new damage found this tick, usually [] *)
}

val tick : t -> tick
(** Advance one bounded step.  Never raises. *)

val cycles : t -> int
(** Completed full passes over snapshot + journal. *)

val close : t -> unit
(** Release the scrubber's fds.  The next {!tick} reopens and starts a
    fresh cycle. *)

val pp_finding : Format.formatter -> finding -> unit
