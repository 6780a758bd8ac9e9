(* e2eprobe ROUNDS: a fixed amount of work of the kind bddfc does
   (allocation, hashing, boxed tuples and strings, list sorting), with
   no dependency on the bddfc libraries.  e2ebench/run.py times it
   between the operations it measures and scales the measured times by
   how slow the probe ran (e2ebench/README.md, Steadiness and bounds). *)

let round h r =
  Hashtbl.reset h;
  for i = 0 to 20_000 do
    Hashtbl.replace h (((i * 7919) + r) land 0xffff) (i, string_of_int i)
  done;
  let keep k (v, _) acc = if k land 3 = 0 then (k, v) :: acc else acc in
  List.length (List.sort compare (Hashtbl.fold keep h []))

let () =
  let rounds = int_of_string Sys.argv.(1) in
  let h = Hashtbl.create 16 in
  let total = ref 0 in
  for r = 1 to rounds do
    total := !total + round h r
  done;
  Printf.printf "%d\n" !total
