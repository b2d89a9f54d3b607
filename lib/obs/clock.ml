(* The system wall clock can step backwards (NTP); deadline checks,
   spans and benchmark timings need a non-decreasing view of it. *)
let last = ref 0.

let now () =
  let t = Unix.gettimeofday () in
  if t > !last then last := t;
  !last
