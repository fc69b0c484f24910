(** Sequential B-link tree (Lehman-Yao / Sagiv style).

    The single-process version of the structure the dB-tree distributes:
    every node has a right-sibling link, inserts restructure bottom-up with
    {!Node.half_split}, and a misnavigated descent recovers by chasing
    right links.  Deletion follows the never-merge / free-at-empty policy
    the paper adopts from [11]: keys are removed, nodes are never merged,
    and an empty leaf simply stays linked (it remains navigable).

    Used as (a) the correctness oracle for the distributed protocols,
    (b) the subject of E1's restructure comparison, and (c) a plain ordered
    dictionary in its own right.

    Per-operation counters expose the quantities E1 reports: node accesses,
    link chases, splits, and the size of each atomic restructuring step
    (always 1 node for a B-link tree — that is the point of Figure 1). *)

type key = int
type 'v t

type stats = {
  mutable accesses : int;  (** node visits *)
  mutable right_moves : int;  (** link chases after misnavigation *)
  mutable splits : int;  (** half-splits performed *)
  mutable max_restructure_span : int;
      (** largest number of nodes modified by one atomic action *)
}

val create : ?capacity:int -> unit -> 'v t
(** [capacity] is the maximum entries per node before it must split
    (default 8). *)

val of_sorted : ?capacity:int -> ?fill:float -> (key * 'v) list -> 'v t
(** Bulk load: build a tree bottom-up from bindings with strictly
    increasing keys, packing each node to [fill] (default 0.9) of
    capacity.  O(n); far cheaper than n inserts and yields near-perfect
    utilization. *)

val compact : 'v t -> 'v t
(** Rebuild via {!of_sorted}: reclaims the space a never-merge tree
    accumulates after heavy deletion (the "offline reorganization" a
    free-at-empty policy assumes happens eventually — [11]). *)

val capacity : 'v t -> int
val stats : 'v t -> stats
val reset_stats : 'v t -> unit

val search : 'v t -> key -> 'v option
val mem : 'v t -> key -> bool
val insert : 'v t -> key -> 'v -> unit

val delete : 'v t -> key -> bool
(** [true] iff the key was present.  Never merges nodes. *)

val size : 'v t -> int
(** Number of keys stored. *)

val height : 'v t -> int
(** Number of levels (1 for a single leaf). *)

val node_count : 'v t -> int
val root_id : 'v t -> Node.id
val node : 'v t -> Node.id -> 'v Node.t option

val to_list : 'v t -> (key * 'v) list
(** All bindings in key order, via the leaf-level link list. *)

val leaf_utilization : 'v t -> float
(** Mean fill fraction of leaves (entries / capacity), the never-merge
    space-utilization measure of experiment E11. *)

val range : 'v t -> lo:key -> hi:key -> (key * 'v) list
(** Bindings with [lo <= key <= hi], via the leaf links. *)

val iter : (key -> 'v -> unit) -> 'v t -> unit
(** Visit all bindings in key order (leaf-chain walk). *)

val fold : (key -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc

val min_binding : 'v t -> (key * 'v) option
val max_binding : 'v t -> (key * 'v) option

val successor : 'v t -> key -> (key * 'v) option
(** Smallest binding with key strictly greater than the argument. *)

val predecessor : 'v t -> key -> (key * 'v) option
(** Greatest binding with key strictly smaller than the argument. *)

val check_invariants : 'v t -> (unit, string) result
(** Structural audit: contiguous sibling ranges per level, entries within
    range, interior floor-entry invariant, every key reachable from the
    root.  Used by the property tests. *)
