(** The protocol-independent half of the dB-tree kernels.

    {!Fixed} (§4.1), {!Mobile} (§4.2) and {!Variable} (§4.3) share one
    B-link machine — navigation with right-link recovery, the leaf-level
    search and scan, root growth, the tree bootstrap and op issue — and
    differ only in how the copies of a node are ordered (the §3 lazy /
    semi-sync / sync taxonomy).  This module owns the shared machine;
    each kernel keeps its copy-ordering policy, its missing-copy
    recovery and its [forward]'s unknown-location fallback.

    Plain functions need only the {!Cluster.t}; the routing half is the
    {!Make} functor over a small {!KERNEL} policy signature, so hop and
    op paths call the kernel's policy directly, with no closure per hop
    or per op. *)

open Dbtree_blink

(** {1 Small helpers} *)

val choose_member : Cluster.t -> Msg.pid list -> Msg.pid
(** A uniformly random member (one [Rng.int] draw unless single). *)

val reply_op : Cluster.t -> src:Msg.pid -> int -> Msg.op_result -> unit
(** Send an op's completion to its origin; [op < 0] (a silenced relay or
    re-issue) owes no reply. *)

val action_kind : int -> Msg.update -> Dbtree_history.Action.kind
val silence : Msg.update -> Msg.update
(** The same update marked as already answered (relays, re-issues). *)

val guide_key : Msg.value Node.t -> int
(** A key inside the node's range, to route node-directed actions by. *)

val apply_data :
  Msg.value Node.t -> int -> Msg.update -> (int * Msg.op_result) option
(** Apply an [Upsert]/[Remove] to a node; returns the reply it owes.
    Raises [Invalid_argument] on child-pointer updates, which are each
    kernel's own. *)

(** {1 Tree shape} *)

val initial_tree :
  Cluster.t -> (Msg.pid * Msg.value Node.t) list * Msg.value Node.t
(** The bootstrap shape: one leaf per partition slice (paired with the
    slice's processor), linked into a chain, and a level-1 root over
    them.  Draws the leaves' node ids, then the root's.  Installing the
    copies is the kernel's. *)

val new_root :
  Cluster.t ->
  Msg.pid ->
  old_root:Msg.value Node.t ->
  sep:int ->
  sib_id:Msg.node_id ->
  Msg.value Node.t
(** Build (and count) a new root over a split root and its sibling;
    installing and announcing it is the kernel's. *)

(** {1 Single-copy migration and balancing} *)

val migration_owner :
  Cluster.t -> node:Msg.node_id -> to_pid:Msg.pid -> Store.t option
(** The store holding [node]'s single copy, or [None] (counted as a
    skipped migration) if the node is gone or already at [to_pid]. *)

val ship :
  Cluster.t ->
  Store.t ->
  Store.rcopy ->
  to_pid:Msg.pid ->
  ancestors:(Msg.node_id * Msg.pid list) list ->
  unit
(** Move a copy off its owner: bump its version, retire it, leave a
    forwarding address (if configured) and a hint, and send the
    [Migrate_install]. *)

val leaf_counts : Cluster.t -> int array

val start_balancer :
  Cluster.t -> ('k -> node:Msg.node_id -> to_pid:Msg.pid -> unit) -> 'k -> unit
(** Arm the periodic leaf balancer when [balance_period > 0]: move the
    fullest leaf of the most loaded processor to the least loaded one
    while the spread exceeds one, re-arming only while other work is
    pending. *)

val schedule_migrate :
  Cluster.t ->
  ('k -> node:Msg.node_id -> to_pid:Msg.pid -> unit) ->
  'k ->
  node:Msg.node_id ->
  to_pid:Msg.pid ->
  unit
(** Validate [to_pid] and run the kernel's migration as a simulation
    event. *)

(** {1 The B-link machine} *)

(** A kernel's copy-ordering policy, as far as the shared machine needs
    it. *)
module type KERNEL = sig
  type t

  val cluster : t -> Cluster.t

  val name : string
  (** Prefix for invariant-violation failures. *)

  val chase_left : bool
  (** Whether a route left of a node's range chases the left link.
      [false] makes it a loud failure (fixed copies: links only grow
      rightwards). *)

  val parent_hints : bool
  (** Whether routes that must climb (stale starts, split completion)
      start at the node's parent hint rather than the root. *)

  val authority : Msg.pid -> Store.rcopy -> Msg.pid
  (** [authority pid copy]: where a route leaving [copy] on processor
      [pid] falls back when its next hop's location is unknown — the
      copy's PC, which learned every node it points to — or [pid] itself
      for none. *)

  val forward :
    t -> Msg.pid -> authority:Msg.pid -> Msg.t -> Msg.node_id -> unit
  (** [forward t pid ~authority msg next] sends a routed action towards
      node [next], falling back on [authority] (see {!authority}) when
      [next]'s location is unknown. *)

  val start_route : t -> origin:Msg.pid -> Msg.t -> unit
  (** Enter the tree at the origin's root. *)

  val grow_root :
    t ->
    Msg.pid ->
    old_root:Msg.value Node.t ->
    sep:int ->
    sib_id:Msg.node_id ->
    unit
end

module Make (K : KERNEL) : sig
  val navigate :
    K.t -> Msg.pid -> Store.rcopy -> key:int -> level:int -> act:Msg.routed -> bool
  (** Route an action arriving at a present copy: descend, chase or
      climb towards its target, or return [true] when the key is in
      range at the target level and the caller must perform it. *)

  val read : K.t -> Msg.pid -> Store.rcopy -> key:int -> act:Msg.routed -> unit
  (** Perform a [Search] or [Scan] at its leaf. *)

  val complete_split :
    K.t ->
    Msg.pid ->
    Msg.value Node.t ->
    sep:int ->
    sib_id:Msg.node_id ->
    child_members:Msg.pid list ->
    unit
  (** The B-link second step of a half-split: grow a new root over a
      splitting root, else route the sibling's [Add_child] to the parent
      level. *)

  val issue_relink :
    K.t ->
    Msg.pid ->
    uid:int ->
    key:int ->
    level:int ->
    start:Msg.node_id ->
    which:[ `Left | `Right | `Child of int ] ->
    target:Msg.node_id ->
    version:int ->
    unit
  (** Route a link-change action, with this processor as the target's
      location. *)

  val migrate_in : K.t -> Msg.pid -> Msg.snapshot -> Msg.value Node.t
  (** Install a migrated single-copy node here and link-change its left
      and right neighbours to it; returns the installed node. *)

  val insert : K.t -> origin:Msg.pid -> int -> Msg.value -> int
  val search : K.t -> origin:Msg.pid -> int -> int
  val remove : K.t -> origin:Msg.pid -> int -> int
  val scan : K.t -> origin:Msg.pid -> lo:int -> hi:int -> int
end
