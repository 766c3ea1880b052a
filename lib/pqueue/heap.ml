(* Elements are wrapped with a monotone insertion tick so that cmp ties
   break FIFO: the heap order is (cmp, then tick).  The explorer's
   ready-set enumeration depends on this being stable — two events with
   equal priority must pop in insertion order on every run. *)
type 'a slot = { v : 'a; tick : int }

type 'a t = {
  mutable data : 'a slot array;
  mutable size : int;
  hint : int;  (* requested initial capacity; first push allocates it *)
  cmp : 'a -> 'a -> int;
  mutable next_tick : int;  (* next insertion stamp; reset by [clear] *)
}

let create ?(capacity = 16) ~cmp () =
  (* The backing array is allocated on first push (we have no element to
     fill it with before that), sized to the capacity hint. *)
  { data = [||]; size = 0; hint = max 1 capacity; cmp; next_tick = 0 }

let length h = h.size
let is_empty h = h.size = 0
let capacity h = if Array.length h.data = 0 then h.hint else Array.length h.data

let order h a b =
  let c = h.cmp a.v b.v in
  if c <> 0 then c else compare a.tick b.tick

let grow h x =
  let cap =
    if Array.length h.data = 0 then h.hint else 2 * Array.length h.data
  in
  let data = Array.make cap x in
  Array.blit h.data 0 data 0 h.size;
  h.data <- data

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if order h h.data.(i) h.data.(parent) < 0 then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let push h x =
  let s = { v = x; tick = h.next_tick } in
  h.next_tick <- h.next_tick + 1;
  if h.size >= Array.length h.data then grow h s;
  h.data.(h.size) <- s;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek h = if h.size = 0 then None else Some h.data.(0).v

let top_exn h =
  if h.size = 0 then invalid_arg "Heap.top_exn: empty";
  h.data.(0).v

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && order h h.data.(l) h.data.(!smallest) < 0 then smallest := l;
  if r < h.size && order h h.data.(r) h.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

(* Remove the top slot of a non-empty heap. *)
let take h =
  let top = h.data.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.data.(0) <- h.data.(h.size);
    sift_down h 0
  end;
  top.v

let pop h = if h.size = 0 then None else Some (take h)

let pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty";
  take h

let remove h pred =
  let rec find i =
    if i >= h.size then None
    else if pred h.data.(i).v then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let hit = h.data.(i) in
      h.size <- h.size - 1;
      if i < h.size then begin
        h.data.(i) <- h.data.(h.size);
        (* The replacement came from a leaf: it may belong either deeper
           (other subtree) or shallower than the hole, so restore both
           directions — one of the two is a no-op. *)
        sift_down h i;
        sift_up h i
      end;
      Some hit.v

let clear h =
  h.size <- 0;
  h.next_tick <- 0

let of_list ~cmp l =
  let h = create ~cmp () in
  List.iter (push h) l;
  h

let to_sorted_list h =
  let rec go acc = match pop h with None -> List.rev acc | Some x -> go (x :: acc) in
  go []

let elements h = List.init h.size (fun i -> h.data.(i).v)

let map_inplace h f =
  for i = 0 to h.size - 1 do
    let s = h.data.(i) in
    h.data.(i) <- { s with v = f s.v }
  done
