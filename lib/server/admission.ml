type 'a t = {
  capacity : int;
  queue : 'a Queue.t;
  mutable shed : int;
  mutable accepted : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Admission.create: capacity < 1";
  { capacity; queue = Queue.create (); shed = 0; accepted = 0 }

let offer t x =
  if Queue.length t.queue >= t.capacity then begin
    t.shed <- t.shed + 1;
    false
  end
  else begin
    Queue.add x t.queue;
    t.accepted <- t.accepted + 1;
    true
  end

let take t = Queue.take_opt t.queue

let length t = Queue.length t.queue
let capacity t = t.capacity
let is_empty t = Queue.is_empty t.queue
let shed t = t.shed
let accepted t = t.accepted
