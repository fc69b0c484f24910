(** Workload generation for the experiments.

    A workload is a per-processor stream of operations.  Key distributions
    cover the cases the experiments need: unique random keys (bulk loads
    that never overwrite), sequential runs (worst-case split locality),
    uniform lookups over a loaded key set, and Zipf-skewed access (hot
    spots, for data balancing).

    All randomness comes from an explicit {!Dbtree_sim.Rng.t}. *)

open Dbtree_sim

type op = Search of int | Insert of int * string | Delete of int

val key_of : op -> int
val value_for : int -> string
(** Canonical value stored under a key (deterministic, self-describing). *)

(** A finite stream of operations. *)
type stream = unit -> op option

val of_list : op list -> stream
val empty : stream

val take : stream -> int -> op list
(** Drain up to [n] operations (for tests). *)

(** {2 Key distributions} *)

val unique_keys : Rng.t -> key_space:int -> count:int -> int array
(** [count] distinct keys drawn uniformly from [\[1, key_space)] (key 0 is
    avoided so the {!Dbtree_blink.Bound.min_sentinel} convention never gets
    near user data).  Raises if [count >= key_space - 1]. *)

val zipf : Rng.t -> n:int -> theta:float -> unit -> int
(** Zipf(θ) sampler over ranks [0..n-1] (0 hottest).  θ = 0 is uniform;
    θ ≈ 0.99 is the usual skewed benchmark setting. *)

(** {2 Streams} *)

val inserts : keys:int array -> stream
(** Insert each key once, in array order, with {!value_for} values. *)

val searches : Rng.t -> keys:int array -> count:int -> stream
(** [count] uniform point lookups over [keys]. *)

val skewed_searches :
  Rng.t -> keys:int array -> theta:float -> count:int -> stream
(** Zipf-skewed lookups: rank 0 = [keys.(0)] is hottest.  Drives the
    data-balancing experiments. *)

val chunk : 'a array -> parts:int -> 'a array array
(** Split an array into [parts] nearly equal consecutive chunks (some may
    be empty); used to deal a key set across processors. *)
