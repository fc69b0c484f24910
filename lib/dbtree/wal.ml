(* Per-processor durability: a deterministic, simulated single-writer
   store.  Every state change a processor must survive a crash with is
   appended as one typed record; every [snapshot_every] records the log
   is compacted into a canonical snapshot (one record per live fact, in
   key order) and truncated.  Recovery replays snapshot + tail log, in
   order, through closure-free record dispatch — records are plain data
   over ints and {!Msg} payloads, tagged with dense interned ids like
   [Msg.kind_id], so replay allocates nothing per record beyond the
   rebuilt state itself.

   Each append also applies its record once to a live replay state, so
   [live = replay (snapshot, tail)] holds at every step.  Compaction
   sweeps that state (node-keyed facts sit in arenas indexed by node
   id) instead of re-materializing the journal and sorting it, and its
   cost is one pass over the live facts.

   The log doubles as the durable half of the reliable transport: sends
   are journaled until the cumulative ack retires them, and per-source
   delivered counts are journaled so a restarted processor can recognise
   (and drop) redeliveries of messages it already processed — the
   exactly-once guarantee survives the crash. *)

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
      (** durable outbound: unretired reliable (or local) send *)
  | Retire of { dst : int; abs : int }  (** acked/delivered through [abs] *)
  | Deliver of { src : int; abs : int }  (** inbound delivered count *)

(* Dense tags, [Msg.kind_id]-style: replay and accounting dispatch on an
   array index, never a string. *)
let tag = function
  | Write _ -> 0
  | Remove _ -> 1
  | Learn _ -> 2
  | Unlearn _ -> 3
  | Root _ -> 4
  | Depart _ -> 5
  | Undepart _ -> 6
  | Forward _ -> 7
  | Unforward _ -> 8
  | Park _ -> 9
  | Unpark _ -> 10
  | Op_done _ -> 11
  | Send _ -> 12
  | Retire _ -> 13
  | Deliver _ -> 14

let tag_names =
  [|
    "write"; "remove"; "learn"; "unlearn"; "root"; "depart"; "undepart";
    "forward"; "unforward"; "park"; "unpark"; "op_done"; "send"; "retire";
    "deliver";
  |]

let num_tags = Array.length tag_names
let tag_name i = tag_names.(i)

(* Simulated bytes written for one record: a small header plus the
   payload priced by the message cost model. *)
let record_size = function
  | Write { snap; members; join_versions; _ } ->
    12 + Msg.snapshot_size snap
    + (4 * List.length members)
    + (8 * List.length join_versions)
  | Remove _ | Unlearn _ | Root _ | Depart _ | Undepart _ | Unforward _
  | Unpark _ | Op_done _ ->
    8
  | Learn { members; _ } -> 8 + (4 * List.length members)
  | Forward _ -> 12
  | Park { msg; _ } -> 8 + Msg.size msg
  | Send { msg; _ } -> 16 + Msg.size msg
  | Retire _ | Deliver _ -> 16

(* One outbound channel's durable state.  The transport hands out send
   indices in strictly rising order per destination and retires a prefix
   of what it sent, so the unretired sends form a FIFO queue and a
   [Retire] pops its front — the same set a filter over all of them
   would keep. *)
type chan = {
  unretired : record Queue.t;  (** [Send] records, oldest first *)
  mutable sent : int;  (** abs high-water: one past the highest abs seen *)
}

(* Live replay state.  [append] applies every record here once, so at
   all times [live = replay (snap, log)]: compaction and [net_state] read
   it directly and never re-materialize the journal.

   The node-keyed facts (the newest [Write] image and the location hint)
   live in dense arenas indexed by node id, as [Store] keeps its copies
   (node ids are the cluster's dense sequence of small ints), so the
   canonical snapshot is one ascending-id sweep with no sort.  A hint is
   held as the [Learn] record the snapshot emits for it.  The channel
   tables are indexed by pid; the remaining side tables stay small. *)
type t = {
  pid : int;
  snapshot_every : int;  (** log records between compactions; 0 = never *)
  mutable snap : record list;  (** last snapshot, canonical order *)
  mutable log : record list;  (** tail since the snapshot, newest first *)
  mutable log_len : int;
  (* live state *)
  mutable nodes : record option array;  (** node -> newest [Write] *)
  mutable where : record option array;  (** node -> hint, as a [Learn] *)
  mutable arena_bytes : int;  (** [record_size] total over both arenas *)
  mutable root : int;
  departed : (int, unit) Hashtbl.t;
  forwarding : (int, int) Hashtbl.t;
  parked : (int, Msg.t list) Hashtbl.t;  (** newest first *)
  mutable outbound : chan option array;  (** dst -> outbound channel *)
  mutable delivered : int array;  (** src -> delivered count *)
  (* monotone accounting, over the whole life of the store *)
  mutable records_total : int;
  mutable bytes_total : int;
  mutable snapshots : int;
  mutable snap_bytes : int;  (** bytes of the most recent snapshot *)
  mutable replaying : bool;
      (** replay in progress: appends are refused (a recovery must never
          re-journal the facts it is reading) *)
}

let create ~pid ~snapshot_every =
  {
    pid;
    snapshot_every;
    snap = [];
    log = [];
    log_len = 0;
    nodes = Array.make 64 None;
    where = Array.make 64 None;
    arena_bytes = 0;
    root = -1;
    departed = Hashtbl.create 8;
    forwarding = Hashtbl.create 8;
    parked = Hashtbl.create 8;
    outbound = Array.make 8 None;
    delivered = Array.make 8 0;
    records_total = 0;
    bytes_total = 0;
    snapshots = 0;
    snap_bytes = 0;
    replaying = false;
  }

let pid t = t.pid
let log_length t = t.log_len
let records_total t = t.records_total
let bytes_total t = t.bytes_total
let snapshots t = t.snapshots
let snapshot_bytes t = t.snap_bytes
let replaying t = t.replaying
let set_replaying t b = t.replaying <- b

(* [a] grown by doubling until index [i] is in bounds. *)
let grow a i fill =
  let n = Array.length a in
  if i < n then a
  else begin
    let rec cap c = if i < c then c else cap (c * 2) in
    let a' = Array.make (cap (n * 2)) fill in
    Array.blit a 0 a' 0 n;
    a'
  end

(* Arena stores keep [arena_bytes] current, so a snapshot's size costs
   nothing per node. *)
let slot_bytes = function Some r -> record_size r | None -> 0

(* The two arenas grow together, so one bound covers both. *)
let ensure t node =
  if node >= Array.length t.nodes then begin
    t.nodes <- grow t.nodes node None;
    t.where <- grow t.where node None
  end

let set_node t node v =
  ensure t node;
  t.arena_bytes <- t.arena_bytes - slot_bytes t.nodes.(node) + slot_bytes v;
  t.nodes.(node) <- v

let set_where t node v =
  ensure t node;
  t.arena_bytes <- t.arena_bytes - slot_bytes t.where.(node) + slot_bytes v;
  t.where.(node) <- v

let chan t dst =
  t.outbound <- grow t.outbound dst None;
  match t.outbound.(dst) with
  | Some c -> c
  | None ->
    let c = { unretired = Queue.create (); sent = 0 } in
    t.outbound.(dst) <- Some c;
    c

let apply t r =
  match r with
  | Write { snap; members; _ } ->
    (* [Store.install]/[Store.wrote] refresh the location hint from the
       member list, so a [Write] carries a [where] update too; folding it
       here keeps the snapshot faithful to the interleaved live order
       (a snapshot emits Writes before Learns, so [where] must hold the
       final hint, not just the last explicit [Learn]). *)
    let node = snap.Msg.s_id in
    set_node t node (Some r);
    set_where t node (Some (Learn { node; members }))
  | Remove { node } -> set_node t node None
  | Learn { node; _ } -> set_where t node (Some r)
  | Unlearn { node } -> set_where t node None
  | Root { node } -> t.root <- node
  | Depart { node } -> Hashtbl.replace t.departed node ()
  | Undepart { node } -> Hashtbl.remove t.departed node
  | Forward { node; dst } -> Hashtbl.replace t.forwarding node dst
  | Unforward { node } -> Hashtbl.remove t.forwarding node
  | Park { node; msg } ->
    let prev = Option.value (Hashtbl.find_opt t.parked node) ~default:[] in
    Hashtbl.replace t.parked node (msg :: prev)
  | Unpark { node } -> Hashtbl.remove t.parked node
  | Op_done _ -> ()
  | Send { dst; abs; _ } ->
    let c = chan t dst in
    Queue.push r c.unretired;
    c.sent <- max c.sent (abs + 1)
  | Retire { dst; abs } ->
    let c = chan t dst in
    while
      match Queue.peek_opt c.unretired with
      | Some (Send { abs = a; _ }) -> a <= abs
      | Some _ | None -> false
    do
      ignore (Queue.pop c.unretired)
    done;
    (* retiring through [abs] implies at least [abs + 1] sends happened;
       this is what lets a snapshot of a fully-drained channel carry the
       abs high-water as a single Retire record *)
    c.sent <- max c.sent (abs + 1)
  | Deliver { src; abs } ->
    t.delivered <- grow t.delivered src 0;
    t.delivered.(src) <- max t.delivered.(src) (abs + 1)

(* The canonical snapshot of the live state: one record per live fact,
   sections in a fixed order, each in ascending key order — Writes,
   Learns, Unlearns, Root, Departs, Forwards, Parks (oldest first per
   node), Sends (oldest first per channel), the high-water Retire of each
   drained channel, Delivers.  The list is built back to front (sections
   in reverse, each swept downward), so it comes out in order with no
   reversal and no sort; returns it with its size in bytes. *)
let canonical t =
  let recs = ref [] and bytes = ref t.arena_bytes in
  let push r = recs := r :: !recs in
  (* a record not held in an arena: its size is not in [arena_bytes] *)
  let emit r =
    push r;
    bytes := !bytes + record_size r
  in
  for src = Array.length t.delivered - 1 downto 0 do
    let n = t.delivered.(src) in
    if n > 0 then emit (Deliver { src; abs = n - 1 })
  done;
  (* preserve the abs high-water for channels whose queue drained *)
  for dst = Array.length t.outbound - 1 downto 0 do
    match t.outbound.(dst) with
    | Some c when c.sent > 0 && Queue.is_empty c.unretired ->
      emit (Retire { dst; abs = c.sent - 1 })
    | Some _ | None -> ()
  done;
  for dst = Array.length t.outbound - 1 downto 0 do
    match t.outbound.(dst) with
    | Some c ->
      List.iter emit (Queue.fold (fun acc r -> r :: acc) [] c.unretired)
    | None -> ()
  done;
  List.iter
    (fun (node, msgs) -> List.iter (fun msg -> emit (Park { node; msg })) msgs)
    (List.rev (Dbtree_sim.Stats.sorted_bindings t.parked));
  List.iter (fun (node, dst) -> emit (Forward { node; dst }))
    (List.rev (Dbtree_sim.Stats.sorted_bindings t.forwarding));
  List.iter (fun (node, ()) -> emit (Depart { node }))
    (List.rev (Dbtree_sim.Stats.sorted_bindings t.departed));
  if t.root >= 0 then emit (Root { node = t.root });
  (* replaying a Write re-installs the hint; if it was since unlearned,
     say so explicitly or the snapshot resurrects it *)
  for node = Array.length t.nodes - 1 downto 0 do
    match (t.nodes.(node), t.where.(node)) with
    | Some _, None -> emit (Unlearn { node })
    | _ -> ()
  done;
  for node = Array.length t.where - 1 downto 0 do
    match t.where.(node) with Some r -> push r | None -> ()
  done;
  for node = Array.length t.nodes - 1 downto 0 do
    match t.nodes.(node) with Some r -> push r | None -> ()
  done;
  (!recs, !bytes)

let compact t =
  let snap, bytes = canonical t in
  t.snap <- snap;
  t.log <- [];
  t.log_len <- 0;
  t.snapshots <- t.snapshots + 1;
  t.snap_bytes <- bytes

let append t r =
  if not t.replaying then begin
    apply t r;
    t.log <- r :: t.log;
    t.log_len <- t.log_len + 1;
    t.records_total <- t.records_total + 1;
    t.bytes_total <- t.bytes_total + record_size r;
    if t.snapshot_every > 0 && t.log_len >= t.snapshot_every then compact t
  end

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

(* Replay order: snapshot first, then the tail log oldest-first. *)
let replay t f =
  let n = ref 0 in
  let feed r =
    incr n;
    f r
  in
  List.iter feed t.snap;
  List.iter feed (List.rev t.log);
  !n

(* Durable network state for [Net.restore_proc], read off the live
   state: unretired outbound sends per destination (oldest first, with
   abs indices), the abs high-water per destination, and the per-source
   delivered counts. *)
let net_state t =
  let outbound = ref [] and sent = ref [] and delivered = ref [] in
  for dst = Array.length t.outbound - 1 downto 0 do
    match t.outbound.(dst) with
    | Some c ->
      let items =
        Queue.fold
          (fun acc r ->
            match r with Send { abs; msg; _ } -> (abs, msg) :: acc | _ -> acc)
          [] c.unretired
      in
      outbound := (dst, List.rev items) :: !outbound;
      sent := (dst, c.sent) :: !sent
    | None -> ()
  done;
  for src = Array.length t.delivered - 1 downto 0 do
    let n = t.delivered.(src) in
    if n > 0 then delivered := (src, n) :: !delivered
  done;
  (!outbound, !sent, !delivered)
