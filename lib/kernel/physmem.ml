module Fault_plan = Wedge_fault.Fault_plan

let page_size = 4096

exception Enomem

(* A frame is live while its reference count is positive.  Its backing
   store is [Bytes.empty] until the first [get] gives it a zeroed 4 KiB
   buffer, and is dropped again when the frame dies, so a reused frame is
   born zero without a scrub and a frame nobody touches costs no buffer. *)
type t = {
  mutable frames : bytes array;
  mutable refs : int array;
  free : int Queue.t;
  mutable used : int;
  mutable next : int;
  max_frames : int option;
  faults : Fault_plan.t option;
}

let create ?faults ?max_frames () =
  {
    frames = Array.make 64 Bytes.empty;
    refs = Array.make 64 0;
    free = Queue.create ();
    used = 0;
    next = 0;
    max_frames;
    faults;
  }

let grow t =
  let n = Array.length t.frames in
  let frames = Array.make (n * 2) Bytes.empty in
  Array.blit t.frames 0 frames 0 n;
  let refs = Array.make (n * 2) 0 in
  Array.blit t.refs 0 refs 0 n;
  t.frames <- frames;
  t.refs <- refs

let alloc t =
  (match t.max_frames with
  | Some m when t.used >= m -> raise Enomem
  | _ -> ());
  (match Fault_plan.roll_opt t.faults ~site:"physmem.alloc" with
  | Some _ -> raise Enomem
  | None -> ());
  let f =
    match Queue.take_opt t.free with
    | Some f -> f
    | None ->
        if t.next >= Array.length t.frames then grow t;
        let f = t.next in
        t.next <- t.next + 1;
        f
  in
  t.refs.(f) <- 1;
  t.used <- t.used + 1;
  f

let get t f =
  if t.refs.(f) <= 0 then invalid_arg (Printf.sprintf "Physmem.get: dead frame %d" f);
  let b = Array.unsafe_get t.frames f in
  if Bytes.length b > 0 then b
  else begin
    let b = Bytes.make page_size '\000' in
    Array.unsafe_set t.frames f b;
    b
  end

let scrub t f =
  if t.refs.(f) <= 0 then invalid_arg (Printf.sprintf "Physmem.scrub: dead frame %d" f);
  let b = Array.unsafe_get t.frames f in
  if Bytes.length b > 0 then Bytes.fill b 0 page_size '\000'

let incref t f =
  if t.refs.(f) <= 0 then invalid_arg "Physmem.incref: dead frame";
  t.refs.(f) <- t.refs.(f) + 1

let decref t f =
  if t.refs.(f) <= 0 then invalid_arg "Physmem.decref: dead frame";
  t.refs.(f) <- t.refs.(f) - 1;
  if t.refs.(f) = 0 then begin
    t.frames.(f) <- Bytes.empty;
    t.used <- t.used - 1;
    Queue.push f t.free
  end

let refcount t f = t.refs.(f)
let frames_in_use t = t.used

let iter_live t f =
  for i = 0 to t.next - 1 do
    if t.refs.(i) > 0 then f i t.refs.(i)
  done
