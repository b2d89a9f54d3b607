(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.

    Every section of a {!Snapshot} and every record of a {!Journal}
    carries a CRC of its payload so that torn writes, bit rot and
    truncation are detected on read instead of surfacing as garbage
    instances.  Checksums are kept as non-negative OCaml [int]s
    (always < 2{^32}). *)

val digest : ?pos:int -> ?len:int -> string -> int
(** CRC-32 of [len] bytes of [s] starting at [pos] (defaults: the whole
    string).  Result is in [\[0, 0xFFFF_FFFF\]]. *)

(** {1 Streaming} — for incremental walkers ({!Scrub}) that checksum a
    file a bounded number of bytes per tick instead of in one pass.
    [finish (feed start b ~pos ~len)] equals
    [digest ~pos ~len (Bytes.to_string b)]. *)

type running
(** An in-progress CRC register (not yet final-xored). *)

val start : running

val feed : running -> bytes -> pos:int -> len:int -> running

val finish : running -> int
(** The finalized checksum, comparable with {!digest}'s result. *)
