(* CRC-32/ISO-HDLC: polynomial 0xEDB88320 (reflected), init and final
   xor 0xFFFFFFFF — the checksum of zlib, PNG and gzip, so stored files
   can be cross-checked with standard tools. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let mask = 0xFFFFFFFF

(* Streaming form, for walkers that cannot hold the whole file (the
   online scrubber checks a snapshot a few KiB per select-loop tick).
   The running value carries the un-finalized register; feed in chunks,
   finish applies the final xor.  [finish (feed (feed start a) b) =
   digest (a ^ b)]. *)

type running = int

let start = mask

let feed c b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32.feed: out of bounds";
  let t = Lazy.force table in
  let c = ref c in
  for i = pos to pos + len - 1 do
    c := t.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xff)
         lxor (!c lsr 8)
  done;
  !c

let finish c = c lxor mask

let digest ?(pos = 0) ?len s =
  let len = Option.value ~default:(String.length s - pos) len in
  finish (feed start (Bytes.unsafe_of_string s) ~pos ~len)
