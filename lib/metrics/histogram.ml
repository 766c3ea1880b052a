type t = { lo : float; hi : float; counts : int array; mutable total : int }

let create ~lo ~hi ~bins =
  if hi <= lo then invalid_arg "Histogram.create: hi <= lo";
  if bins < 1 then invalid_arg "Histogram.create: bins < 1";
  { lo; hi; counts = Array.make bins 0; total = 0 }

let add t x =
  let bins = Array.length t.counts in
  let idx =
    int_of_float (float_of_int bins *. (x -. t.lo) /. (t.hi -. t.lo))
  in
  let idx = max 0 (min (bins - 1) idx) in
  t.counts.(idx) <- t.counts.(idx) + 1;
  t.total <- t.total + 1

let count t = t.total
let bin_counts t = Array.copy t.counts

let bin_bounds t i =
  let bins = float_of_int (Array.length t.counts) in
  let w = (t.hi -. t.lo) /. bins in
  (t.lo +. (float_of_int i *. w), t.lo +. (float_of_int (i + 1) *. w))

let pp ?(width = 40) fmt t =
  let peak = Array.fold_left max 1 t.counts in
  Array.iteri
    (fun i c ->
      let lo, hi = bin_bounds t i in
      let bar = String.make (c * width / peak) '#' in
      Format.fprintf fmt "[%10.1f, %10.1f) %6d %s@." lo hi c bar)
    t.counts
