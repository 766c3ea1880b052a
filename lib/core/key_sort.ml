(* Heapsort over two parallel int arrays, compared as (key, tie) pairs:
   in place, no allocation, O(n log n) whatever the input. The callers'
   batches often arrive sorted already, so that is checked first, in
   one pass. *)

let less keys ties i j =
  let a = keys.(i) and b = keys.(j) in
  a < b || (a = b && ties.(i) < ties.(j))

let swap keys ties i j =
  let k = keys.(i) and t = ties.(i) in
  keys.(i) <- keys.(j);
  ties.(i) <- ties.(j);
  keys.(j) <- k;
  ties.(j) <- t

let rec sift keys ties root n =
  let child = (2 * root) + 1 in
  if child < n then begin
    let child =
      if child + 1 < n && less keys ties child (child + 1) then child + 1 else child
    in
    if less keys ties root child then begin
      swap keys ties root child;
      sift keys ties child n
    end
  end

let rec sorted keys ties i n =
  i + 1 >= n || ((not (less keys ties (i + 1) i)) && sorted keys ties (i + 1) n)

let sort keys ties n =
  if not (sorted keys ties 0 n) then begin
    for root = (n / 2) - 1 downto 0 do
      sift keys ties root n
    done;
    for last = n - 1 downto 1 do
      swap keys ties 0 last;
      sift keys ties 0 last
    done
  end

let extend a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b
