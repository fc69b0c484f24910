(** Calendar event queue for the simulator core.

    Near events (delay < {!window}) append into per-time buckets — no
    sifting, and same-timestamp runs drain in a batch off one bucket.
    Distinct occupied times live in a small heap touched once per
    timestamp, not once per event; events at or beyond the window go to a
    packed-key overflow heap and transfer into the ring as time advances.
    Pop order is exactly global (time, insertion) order — byte-identical
    to a single heap keyed by packed (time, seq).

    Events are either typed — handler id [h >= 0] plus three ints and one
    boxed payload, nothing allocated per event — or closures ([h = -1],
    the closure in [o]).  Dispatch lives in {!Sim}; this module only
    stores and orders. *)

type t

(** Scratch record {!pop_into} fills; allocate one per simulator and
    reuse it. *)
type cell = {
  mutable time : int;
  mutable h : int;  (** handler id; [-1] = closure event *)
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable o : Obj.t;  (** typed payload, or the [(unit -> unit)] closure *)
}

val window : int
(** Ring span in ticks (a power of two).  Delays below this are O(1)
    bucket appends; longer delays take the overflow heap. *)

(** {2 Packed overflow keys} *)

val max_time : int
(** Exclusive upper bound on packable times (2{^31}). *)

val max_seq : int
(** Exclusive upper bound on packable sequence numbers (2{^31}). *)

val pack : time:int -> seq:int -> int
(** [pack ~time ~seq] is the overflow heap's key: integer order on keys
    is lexicographic order on [(time, seq)].  Requires
    [0 <= time < max_time] and [0 <= seq < max_seq] (unchecked here;
    {!Sim} checks once per schedule). *)

val time_of_key : int -> int
(** The [time] component of a packed key. *)

val create : unit -> t
val make_cell : unit -> cell

val length : t -> int
val is_empty : t -> bool

val overflow_seq : t -> int
(** Overflow insertions so far — consumption of the packed (time, seq)
    clock.  Stays near zero in practice; {!Sim} guards it against the
    {!max_seq} budget. *)

val overflow_depth : t -> int
(** Events currently parked in the overflow heap (scheduled beyond the
    ring window).  A telemetry gauge; near zero in healthy runs. *)

val schedule : t -> time:int -> (unit -> unit) -> unit
(** Closure event at absolute [time].  [time] must be >= the last popped
    time and < [max_time - 1]; {!Sim} enforces both. *)

val schedule_typed :
  t -> time:int -> h:int -> a:int -> b:int -> c:int -> o:Obj.t -> unit
(** Typed event at absolute [time]; same bounds as {!schedule}. *)

val next_time : t -> int
(** Time of the earliest pending event, [max_int] if none.  Pure peek. *)

val pop_into : t -> cell -> bool
(** Remove the earliest event (ties: insertion order) into [cell].
    [false] iff empty. *)
