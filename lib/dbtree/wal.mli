(** Per-processor durability: a deterministic, simulated single-writer
    store (write-ahead log + periodic snapshots).

    Every state change a processor must survive a crash with is appended
    as one typed {!record}; every [snapshot_every] records the log is
    compacted into a canonical snapshot (one record per live fact, in
    key order) and truncated.  Recovery replays snapshot + tail log in
    order through closure-free record dispatch — records are plain data
    over ints and {!Msg} payloads, tagged with dense interned ids like
    [Msg.kind_id].  Alongside the log the store keeps a live replay
    state, updated by every {!append}, that always equals "snapshot +
    tail replayed"; compaction and {!net_state} read it instead of
    replaying the journal.

    The log doubles as the durable half of the reliable transport
    (see {!Net.Make.persist}): sends are journaled until the cumulative
    ack retires them, and per-source delivered counts are journaled so a
    restarted processor recognises (and drops) redeliveries of messages
    it already processed. *)

(** One durable fact.  [Write] carries the full image of a local node
    copy plus its replication-control state (pc, member set, §4.3 join
    versions, split-in-progress flag); the un-records ([Remove],
    [Unlearn], ...) retract earlier facts so compaction can drop both. *)
type record =
  | Write of {
      snap : Msg.snapshot;
      pc : int;
      members : int list;
      join_versions : (int * int) list;
      splitting : bool;
    }  (** full image of a local node copy after a mutation *)
  | Remove of { node : int }
  | Learn of { node : int; members : int list }  (** location directory *)
  | Unlearn of { node : int }
  | Root of { node : int }
  | Depart of { node : int }
  | Undepart of { node : int }
  | Forward of { node : int; dst : int }
  | Unforward of { node : int }
  | Park of { node : int; msg : Msg.t }
  | Unpark of { node : int }
  | Op_done of { op : int }  (** an acknowledged client operation *)
  | Send of { dst : int; abs : int; msg : Msg.t }
      (** durable outbound: unretired reliable (or loopback) send *)
  | Retire of { dst : int; abs : int }  (** acked/delivered through [abs] *)
  | Deliver of { src : int; abs : int }  (** inbound delivered count *)

type t

val create : pid:int -> snapshot_every:int -> t
(** [snapshot_every] is the log length that triggers compaction;
    [0] disables compaction (the log only grows). *)

val pid : t -> int

val append : t -> record -> unit
(** Journal one record, apply it to the live state, and compact if the
    threshold is reached.  Ignored while {!replaying} — a recovery must
    never re-journal the facts it is reading.  Transport records follow
    the reliable sublayer's contract: per destination, [Send] indices
    rise strictly and a [Retire] covers only indices already sent;
    [Retire] and [Deliver] indices are [>= 0]. *)

val compact : t -> unit
(** Force a snapshot now: sweep the live state into its canonical
    snapshot and truncate the log.  The snapshot lists Writes, Learns,
    Unlearns, Root, Departs, Forwards, Parks, Sends, drained-channel
    Retires and Delivers, each section in ascending key order; its
    cost is one pass over the live facts, with no replay and no sort. *)

val replay : t -> (record -> unit) -> int
(** Feed the snapshot then the tail log, oldest first, to the callback;
    returns the number of records replayed.  Bracket with
    {!set_replaying} so state rebuilt through normal mutators does not
    journal itself. *)

val set_replaying : t -> bool -> unit
val replaying : t -> bool

val net_state :
  t -> (int * (int * Msg.t) list) list * (int * int) list * (int * int) list
(** [(outbound, sent, delivered)] for {!Net.Make.restore_proc}, read off
    the live state: unretired sends per destination (oldest first, with
    their abs indices), per-destination send high-waters, per-source
    delivered counts.  All lists sorted by processor id. *)

(** {2 Accounting} (monotone over the store's whole life) *)

val log_length : t -> int
(** Records in the tail log since the last snapshot. *)

val records_total : t -> int
val bytes_total : t -> int
val snapshots : t -> int

val snapshot_bytes : t -> int
(** Size of the most recent snapshot. *)

(** {2 Record tags} — dense interned ids, [Msg.kind_id]-style *)

val tag : record -> int
val num_tags : int
val tag_name : int -> string
val record_size : record -> int
(** Simulated bytes for one record: small header + payload priced by the
    {!Msg} cost model. *)
