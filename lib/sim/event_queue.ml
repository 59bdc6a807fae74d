type 'a entry = { time : float; tie : int; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let size q = q.size

let earlier a b =
  a.time < b.time
  || (a.time = b.time && (a.tie < b.tie || (a.tie = b.tie && a.seq < b.seq)))

let grow q =
  let cap = Array.length q.heap in
  if q.size = cap then begin
    let ncap = Int.max 16 (2 * cap) in
    let dummy = q.heap.(0) in
    let nheap = Array.make ncap dummy in
    Array.blit q.heap 0 nheap 0 q.size;
    q.heap <- nheap
  end

let push q ~time ~tie payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.push: time must be finite";
  let e = { time; tie; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  if Array.length q.heap = 0 then q.heap <- Array.make 16 e else grow q;
  (* sift up *)
  let i = ref q.size in
  q.size <- q.size + 1;
  q.heap.(!i) <- e;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if earlier q.heap.(!i) q.heap.(parent) then begin
      let tmp = q.heap.(parent) in
      q.heap.(parent) <- q.heap.(!i);
      q.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.heap.(0) <- q.heap.(q.size);
      (* sift down *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < q.size && earlier q.heap.(l) q.heap.(!smallest) then
          smallest := l;
        if r < q.size && earlier q.heap.(r) q.heap.(!smallest) then
          smallest := r;
        if !smallest <> !i then begin
          let tmp = q.heap.(!smallest) in
          q.heap.(!smallest) <- q.heap.(!i);
          q.heap.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end;
    Some (top.time, top.payload)
  end
