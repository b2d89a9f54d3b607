(* The benchmark's calibration program: a fixed computation of the same
   kind as mdqa's (string keys in a persistent map, allocation, pointer
   chasing over a few megabytes) that links nothing from the repository,
   so its speed depends on the host alone.  perfbench/run.py runs it next
   to every timed step and scales the step's wall time by how fast this
   ran (see ../README.md).  Of the candidates tried, this one slowed down
   with the host in the same proportion as mdqa's operations. *)

module M = Map.Make (String)

let rounds = 250_000

let () =
  let m = ref M.empty and acc = ref 0 in
  for i = 1 to rounds do
    m := M.add ("k" ^ string_of_int (i land 0xffff)) i !m;
    match M.find_opt ("k" ^ string_of_int ((i * 13) land 0xffff)) !m with
    | Some v -> acc := !acc + (v land 1)
    | None -> ()
  done;
  Printf.printf "%d %d\n" !acc (M.cardinal !m)
