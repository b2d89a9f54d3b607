(** Bounded FIFO admission queue with load shedding.

    The server parks parsed requests here between event-loop
    iterations.  The capacity is the overload contract: an [offer]
    beyond it is refused immediately — the caller replies
    [degraded:overload] (W047) instead of letting latency grow without
    bound — and counted, so health reports expose how much traffic was
    shed.  Not thread-safe; the server loop is single-threaded. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val offer : 'a t -> 'a -> bool
(** Enqueue, or refuse ([false]) when full.  Refusals increment
    {!shed}. *)

val take : 'a t -> 'a option
(** Dequeue in arrival order. *)

val length : 'a t -> int
val capacity : 'a t -> int
val is_empty : 'a t -> bool

val shed : 'a t -> int
(** Offers refused since creation. *)

val accepted : 'a t -> int
(** Offers admitted since creation. *)
