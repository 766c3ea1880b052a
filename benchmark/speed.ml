(* Host speed. On a shared host the same pass of the same input runs up
   to twice as slow for minutes at a time (README.md, "End-to-end
   metrics"): other tenants slow the cores down, and the process's CPU
   time grows with its wall time, so neither longer runs nor CPU time
   remove it. A run therefore times a fixed kernel before and after each
   pass, in the parent process whose heap stays small, on as many
   domains as the workload uses, and scales the pass's times by
   [factor]. The kernel uses only the standard library, so no change to
   the simulator moves it. *)

module IM = Map.Make (Int)

(* About 50 ms on the reference host: map inserts and lookups, hashing
   and a sort, allocating and collecting like the simulator does. *)
let kernel () =
  let m = ref IM.empty in
  for i = 0 to 40_000 do
    m := IM.add (i * 7919 land 0xffff) [ i ] !m
  done;
  let h = Hashtbl.create 1024 in
  for i = 0 to 40_000 do
    Hashtbl.replace h (i * 31) (IM.find_opt (i land 0xffff) !m)
  done;
  let l = List.sort compare (List.init 40_000 (fun i -> i * 7919 mod 40_009)) in
  ignore (Sys.opaque_identity (Hashtbl.length h + List.length l))

(* About the median kernel wall on a 2-core x86-64 host (Xeon, 2 GHz)
   with no other load. *)
let reference_s = 0.05

(* How pass times follow the kernel's: over 80 runs of the four
   workloads on a shared host, log pass time against log kernel time had
   slopes from 0.57 to 1.0, median 0.75. *)
let elasticity = 0.75

(* Kernel wall with [domains] copies running at once. *)
let measure ~domains =
  let t0 = Unix.gettimeofday () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel) in
  kernel ();
  List.iter Domain.join others;
  Unix.gettimeofday () -. t0

(* What a pass's times are multiplied by, from the kernel timings taken
   around it: 1 at reference speed, below 1 on a slowed host. *)
let factor timings = (reference_s /. Metrics.Summary.median timings) ** elasticity
