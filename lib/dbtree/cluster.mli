(** Shared cluster state: simulator, network, stores, registries.

    Every protocol variant drives one of these.  The cluster owns the
    deterministic id/uid allocators, the history instrumentation (a thin
    layer over {!Dbtree_history.Registry} that is a no-op when history
    recording is off), and the replication-policy computation. *)

open Dbtree_sim
open Dbtree_blink
module Network : module type of Net.Make (Msg)

(** Interned stat-counter handles shared by all protocol kernels, resolved
    once at cluster creation so hot loops bump an [int ref] instead of
    hashing a string key.  Handles a protocol never bumps stay at 0 and are
    invisible in {!Stats.counters} output. *)
type counters = {
  route_hops : Stats.counter;
  route_chase : Stats.counter;
  route_up : Stats.counter;
  route_parked : Stats.counter;
  route_lost_hint : Stats.counter;
  split_count : Stats.counter;
  split_blocked_updates : Stats.counter;
  split_dropped_entries : Stats.counter;
  root_grow : Stats.counter;
  eager_requeued : Stats.counter;
  relay_applied : Stats.counter;
  relay_discarded : Stats.counter;
  relay_catchup : Stats.counter;
  relay_to_departed : Stats.counter;
  naive_lost : Stats.counter;
  semi_forwarded : Stats.counter;
  link_change_absorbed : Stats.counter;
  link_change_self_absorbed : Stats.counter;
  migrate_count : Stats.counter;
  migrate_skipped : Stats.counter;
  join_count : Stats.counter;
  join_requested : Stats.counter;
  join_duplicate : Stats.counter;
  join_already_member : Stats.counter;
  unjoin_count : Stats.counter;
  unjoin_duplicate : Stats.counter;
  recover_count : Stats.counter;
  recover_departed : Stats.counter;
  recover_forwarded : Stats.counter;
  recover_hinted : Stats.counter;
  recover_rerouted : Stats.counter;
  recover_restart : Stats.counter;
  recover_via_root : Stats.counter;
  reclaim_count : Stats.counter;
  reclaim_absorbed : Stats.counter;
  reclaim_absorb_stale : Stats.counter;
  reclaim_dropped : Stats.counter;
  reclaim_drop_stale : Stats.counter;
  route_no_members : Stats.counter;
  recovery_replayed : Stats.counter;
  recovery_rejoined : Stats.counter;
  aas_time : Stats.hist;
      (** AAS hold durations (E05's mean, E17's p99, perfbench); the only
          histogram here.  Op latencies live exactly in {!Opstate} and,
          windowed, in the {!Telemetry} sketches. *)
}

type t = {
  config : Config.t;
  sim : Sim.t;
  net : Network.t;
  stores : Store.t array;
  wals : Wal.t array;
      (** per-processor durable journals ([Config.durability.wal]);
          length 0 when durability is off *)
  ops : Opstate.t;
  hist : Dbtree_history.Registry.t;
  obs : Dbtree_obs.Obs.t;
  telem : Telemetry.t;
      (** live telemetry plane ([Config.telemetry] or the [Series] force
          switch); {!Telemetry.disabled} otherwise *)
  partition : Partition.t;
  ctr : counters;
  mutable next_node_id : int;
  mutable next_uid : int;
}

val create : Config.t -> t
(** Build the cluster skeleton (no tree yet; protocols bootstrap their own
    initial structure and install their handler). *)

val store : t -> Msg.pid -> Store.t
val stats : t -> Stats.t
val now : t -> int

val fresh_node_id : t -> Msg.node_id
val fresh_uid : t -> int
(** Allocate an update uid and, when recording, declare it issued. *)

val members_for_range : t -> low:Bound.t -> high:Bound.t -> Msg.pid list
(** The replication policy: where the copies of a node covering
    [\[low, high)] live. *)

(** An empty member set — reachable once the last copy-holder of a node
    can crash — is a typed error, surfaced through the park path
    ({!park} with [~no_members:true]) rather than an exception. *)
type pc_error = Empty_members

val pc_of_members : Msg.pid list -> (Msg.pid, pc_error) result
(** The primary copy's processor: the first member. *)

val pc_of_members_exn : Msg.pid list -> Msg.pid
(** For construction/bootstrap sites whose member lists come from the
    partition and are structurally nonempty; raises [Invalid_argument]
    if that invariant is ever broken. *)

val park :
  ?no_members:bool -> t -> pid:Msg.pid -> node:Msg.node_id -> Msg.t -> unit
(** Buffer a message at a node processor [pid] holds no copy of yet,
    count it under [route.parked] and trace an [Event.Park].  With
    [~no_members:true] it surfaces {!pc_error} instead: the message
    waits for a copy that can name a primary, counted under
    [route.no_members]. *)

val unpark : t -> pid:Msg.pid -> node:Msg.node_id -> unit
(** Re-send locally, in arrival order, every message parked at [node] on
    processor [pid], tracing one [Event.Unpark] that closes the parks;
    a no-op when nothing is parked there. *)

val send : t -> src:Msg.pid -> dst:Msg.pid -> Msg.t -> unit

(** {2 Telemetry hooks} — one branch each when the plane is off.

    The standard series and SLO rules ([p99_search], [stall_oldest_op],
    [retx_storm], [recovery_slow], [hot_imbalance]) are wired at
    creation; kernels feed the plane through the hooks below. *)

val telemetry : t -> Telemetry.t

val touch : t -> node:int -> unit
(** Count one access to a node's local copy, for the heat gauges. *)

val aas_begin : t -> unit
val aas_end : t -> unit
(** Bracket a synchronous-split AAS hold ([aas.open] series). *)

(** {2 Typed trace events} — one branch when tracing is off. *)

val event :
  t -> pid:Msg.pid -> Dbtree_obs.Event.kind -> a:int -> b:int -> unit
(** Record a protocol event under the ambient causal context (set by the
    network around each delivery). *)

val op_kind_code : Opstate.kind -> int
(** The {!Dbtree_obs.Event} operation-kind code for an [Opstate.kind]. *)

val op_issue : t -> Opstate.record -> unit
(** Record [Op_issue] for a freshly registered operation and make it the
    ambient causal context, so the route the protocol sends next chains
    into the op's span.  Protocols call this right after
    [Opstate.register]. *)

val op_complete : t -> op:int -> result:Msg.op_result -> unit
(** The completion funnel every protocol uses instead of calling
    [Opstate.complete] directly: feeds the latency to the telemetry
    sketches and records [Op_complete] (first completion only), then
    updates the op registry, which keeps every latency exactly. *)

(** {2 History instrumentation} — all no-ops when
    [config.record_history = false]. *)

val recording : t -> bool

val hist_new_copy : t -> node:int -> pid:int -> base:int list -> unit

val hist_record :
  t ->
  node:int ->
  pid:int ->
  ?effective:bool ->
  mode:Dbtree_history.Action.mode ->
  ?version:int ->
  uid:int ->
  Dbtree_history.Action.kind ->
  unit

val hist_snapshot : t -> node:int -> pid:int -> int list
(** Uids covered by a copy's current value (for snapshot bases); [[]] when
    not recording. *)

val hist_retire : t -> node:int -> pid:int -> unit

(** {2 Durability and crash recovery} *)

val wal : t -> Msg.pid -> Wal.t
(** The processor's journal; only valid when [config.durability.wal]. *)

val replay_wal : t -> Msg.pid -> int * int
(** Rebuild the processor's store from its journal (snapshot + tail log,
    in order); returns (records, bytes) read.  Journaling is suspended
    for the duration. *)

val install_recovery : t -> rejoin:(Msg.pid -> unit) -> unit
(** Wire the crash/restart machinery into the network: on crash the
    store's volatile state is dropped; on restart the journal is
    replayed, the durable channel state restored
    ({!Network.restore_proc}), and then [rejoin] runs — the kernel's
    re-enrollment step.  Kernels with crash support call this once at
    creation; kernels without it reject [faults.crash_at] instead. *)

val rejoin_copies : t -> Msg.pid -> unit
(** The §4.3 rejoin step for kernels with a join protocol: send one
    [Join_request] to the primary of every recovered copy held by
    [pid] whose primary is elsewhere.  The PC's version-stamped
    [Join_copy] reply delivers everything the processor missed. *)

val run : ?max_events:int -> t -> unit
(** Drain the simulation to quiescence. *)
