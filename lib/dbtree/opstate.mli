(** Client operation registry.

    Tracks every operation from issue to completion: the per-operation
    latency samples, throughput, and correctness bookkeeping (which keys
    were successfully inserted / removed) that the verifier and every
    experiment read. *)

type kind = Search | Insert | Delete | Scan

type record = {
  id : int;
  kind : kind;
  key : int;
  value : Msg.value option;
  origin : Msg.pid;
  issued_at : int;
  mutable completed_at : int option;
  mutable result : Msg.op_result option;
}

type t

val create : unit -> t

val register :
  t -> kind:kind -> key:int -> value:Msg.value option -> origin:Msg.pid ->
  now:int -> record
(** Allocate an operation id and record the issue. *)

val complete : t -> op:int -> result:Msg.op_result -> now:int -> unit
(** Record the reply.  Invokes the completion hook, if any.  Completing an
    operation twice is a protocol bug and raises — except under
    {!set_tolerant}, which merely counts it (used by the fault-injection
    experiment, where duplicated replies are the injected fault). *)

val set_tolerant : t -> unit
val duplicate_completions : t -> int

val on_complete : t -> (record -> unit) -> unit
(** Install a completion hook (closed-loop drivers use this to issue the
    next operation). *)

val find : t -> int -> record option
val issued : t -> int
val completed : t -> int
val outstanding : t -> int

val oldest_outstanding_age : t -> now:int -> int
(** Ticks since the oldest still-incomplete operation was issued; 0 when
    everything has completed.  The stall-duration telemetry signal.
    Amortized O(1): a monotone cursor skips completed prefixes. *)

val iter : t -> (record -> unit) -> unit

val inserted_keys : t -> (int, Msg.value) Hashtbl.t
(** Keys successfully inserted and not subsequently removed, with the last
    value written — the expected final contents of the tree. *)

val mean_latency : t -> kind -> float
(** Mean completion latency (simulated ticks) over completed operations of
    this kind. *)

val latency_percentile : t -> kind -> float -> float
(** [latency_percentile t kind p] is the p-th percentile (p in [0,1]) of
    completion latency for operations of [kind], computed by the
    nearest-rank method (the sorted sample at 1-based rank [ceil (p * n)]);
    0 if none completed. *)
