(** The protocol-independent half of the dB-tree kernels.

    {!Fixed} (§4.1), {!Mobile} (§4.2) and {!Variable} (§4.3) share one
    B-link machine — navigation with right-link recovery, the leaf-level
    search and scan, the half-split and its completion (the PC's split
    head, the remote-split apply at the other copies, the §4.1.2
    re-issue to the right sibling, root growth), the unknown-location
    fallback of [forward], the tree bootstrap and op issue, and the
    bodies of their message handlers (the route step, the update
    applier, initial and relayed updates, root adoption) — and differ
    only in how the copies of a node are ordered (the §3 lazy /
    semi-sync / sync taxonomy).  This module owns the shared machine;
    each kernel keeps its copy-ordering policy, its missing-copy
    recovery and its own [handle] dispatch, whose arms call in here.

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

val guide_key : Msg.value Node.t -> int
(** A key inside the node's range, to route node-directed actions by. *)

val install_snapshot :
  Cluster.t ->
  Msg.pid ->
  Msg.snapshot ->
  pc:Msg.pid ->
  members:Msg.pid list ->
  unit
(** Install a copy from a snapshot, lift any departed mark it left in an
    earlier life, and re-run whatever was parked here for it. *)

val unknown_location :
  Cluster.t -> Msg.pid -> name:string -> authority:Msg.pid -> Msg.t -> unit
(** [forward]'s fallback for a next hop with no known location: hand
    the action to [authority], or (when [authority = pid]) restart a
    routed action at the processor's root; counted under
    [route.lost_hint].  Control traffic cannot be rerouted and fails
    loudly, prefixed with [name]. *)

val has_other : Msg.pid -> Msg.pid list -> bool
(** Whether the member list names a processor other than the given one. *)

val others : Msg.pid -> Msg.pid list -> Msg.pid list
(** The member list without the given processor, in order.  Both walks
    are toplevel and capture nothing: the hop, relay and recovery paths
    call them with no closure per call. *)

val pass_to_member : Cluster.t -> Msg.pid -> Msg.t -> node:Msg.node_id -> bool
(** The [recover.hinted] step for a route whose [node] this processor
    holds no copy of: if the directory names another member, send the
    route to one of them (counted under [recover.hinted]) and return
    [true]; else return [false]. *)

(** {1 Tree shape} *)

val initial_tree :
  Cluster.t -> (Msg.pid * Msg.value Node.t) list * Msg.value Node.t
(** The bootstrap shape: one leaf per partition slice (paired with the
    slice's processor), linked into a chain, and a level-1 root over
    them.  Draws the leaves' node ids, then the root's.  Installing the
    copies is the kernel's. *)

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

(** A half-split as the PC performed it: the split's uid and separator,
    the new sibling, its copies' processors and the snapshot sent to
    them. *)
type split = {
  uid : int;
  sep : int;
  sib : Msg.value Node.t;
  members : Msg.pid list;
  snap : Msg.snapshot;
}

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
      start at the node's parent hint rather than the root; such
      kernels also point a split root and its sibling at a grown root. *)

  val versioned_splits : bool
  (** Whether a half-split's history record carries the node's version
      (the version-ordered kernels); [false] records version 0. *)

  val learn_child : Store.t -> Msg.node_id -> Msg.pid list -> unit
  (** How an applied [Add_child] records the child's location:
      [Store.learn] ([Fixed], whose strong learn journals a WAL [Learn]
      record on every [Add_child]) or [Store.learn_if_absent] (the
      kernels whose nodes move, where a late relayed hint must not
      overwrite a migration's fresher one). *)

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

  val root_members : t -> Msg.pid -> Msg.pid list
  (** [root_members t pid]: where the copies of a root grown by [pid]
      live; the head is its PC. *)

  val sibling_members :
    t -> Msg.pid -> Store.rcopy -> Msg.value Node.t -> Msg.pid list
  (** [sibling_members t pid copy sib]: where the copies of the sibling
      [sib] split off [copy] at its PC [pid] live; the head is the
      sibling's PC. *)
end

module Make (K : KERNEL) : sig
  val handle_route :
    K.t ->
    Msg.pid ->
    key:int ->
    level:int ->
    node:Msg.node_id ->
    act:Msg.routed ->
    perform:(K.t -> Msg.pid -> Store.rcopy -> key:int -> act:Msg.routed -> unit) ->
    miss:
      (K.t ->
      Msg.pid ->
      key:int ->
      level:int ->
      node:Msg.node_id ->
      act:Msg.routed ->
      unit) ->
    unit
  (** A [Route] arriving at a processor: at a present copy, navigate it
      (descend, chase or climb towards its target) and, once the key is
      in range at the target level, answer a [Search]/[Scan] at its leaf
      or [perform] an [Update]/[Relink]/[Absorb]; with no copy here,
      call [miss] (the kernel's missing-copy recovery). *)

  val apply_update :
    K.t ->
    Msg.pid ->
    Store.rcopy ->
    int ->
    Msg.update ->
    (int * Msg.op_result) option
  (** Apply an update to a copy and journal it ([Store.wrote]); returns
      the client reply an initial execution owes.  An [Add_child] learns
      the child's location through {!KERNEL.learn_child}; a [Drop_child]
      (leaf reclamation) retires the entry, or repoints a first entry to
      the absorber. *)

  val apply_initial :
    K.t -> Msg.pid -> Store.rcopy -> key:int -> uid:int -> u:Msg.update -> unit
  (** Apply an initial update, record it ([Initial]) and answer the
      client. *)

  val relay_initial :
    K.t ->
    Msg.pid ->
    Store.rcopy ->
    key:int ->
    uid:int ->
    u:Msg.update ->
    relay:(K.t -> src:Msg.pid -> dst:Msg.pid -> Msg.t -> unit) ->
    unit
  (** Send one silenced [Relay_update] of an applied initial update to
      each other member of the copy through [relay]; nothing is built
      when there is no other member. *)

  val apply_relayed :
    K.t -> Msg.pid -> Store.rcopy -> key:int -> uid:int -> u:Msg.update -> bool
  (** A relayed update whose key is in the copy's range: apply it, record
      it ([Relayed]), count it under [relay.applied] and return [true].
      Out of range, do nothing and return [false]. *)

  val adopt_root :
    K.t -> Msg.pid -> Msg.t -> snap:Msg.snapshot -> members:Msg.pid list -> unit
  (** The [New_root] rule: learn the root's location, install a copy if
      this processor is a member, and make it the local root only if it
      is higher than the local root copy or no root copy is held here.
      An empty member list parks the message ([route.no_members]). *)

  val half_split :
    K.t ->
    Msg.pid ->
    Store.rcopy ->
    tell:(K.t -> Msg.pid -> Store.rcopy -> split -> unit) ->
    unit
  (** The PC's half-split of a copy: shrink it, count ([split.count])
      and trace ([Split_start]) the split, record it, register every
      sibling copy and install the sibling here (or learn where it
      lives); then [tell] the other copies the kernel's way (called
      with the same processor and copy), and complete the split one
      level up — grow a new root over a splitting root (copies at
      {!KERNEL.root_members}, announced to every other processor), else
      route the sibling's [Add_child] to the parent level — and trace
      [Split_end]. *)

  val relay_split : K.t -> Msg.pid -> Store.rcopy -> split -> sync:bool -> unit
  (** Send the split's [Split_done] to the copy's other members. *)

  val apply_remote_split :
    K.t ->
    Msg.pid ->
    Store.rcopy ->
    uid:int ->
    sep:int ->
    sibling:Msg.snapshot ->
    sibling_members:Msg.pid list ->
    unit
  (** Apply a split at a copy other than the PC: shrink the copy (the
      entries it drops are counted under [split.dropped_entries]), bump
      its version, record the split, learn the sibling's location and
      install the sibling if this processor is a member. *)

  val reissue_right :
    K.t -> Msg.pid -> Store.rcopy -> key:int -> uid:int -> u:Msg.update -> unit
  (** §4.1.2 history rewriting: route an update that a split moved out
      of the copy's range to its right sibling as an initial update. *)

  val relink_left : K.t -> Msg.pid -> split -> unit
  (** Point the split sibling's right neighbour's left link at the
      sibling. *)

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
