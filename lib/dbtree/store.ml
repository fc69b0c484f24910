open Dbtree_blink

type pid = int
type node_id = int

type eager_job =
  | Eager_apply of {
      uid : int;
      key : int;
      u : Msg.update;
      mutable reply : (int * Msg.op_result) option;
    }
  | Eager_split

type rcopy = {
  node : Msg.value Node.t;
  mutable pc : pid;
  mutable members : pid list;
  mutable join_versions : (pid * int) list;
  mutable splitting : bool;
  mutable acks_pending : int;
  mutable blocked : Msg.t list;
  mutable eager_busy : bool;
  eager_queue : eager_job Queue.t;
  mutable eager_acks : int;
  mutable eager_current : eager_job option;
}

(* Node ids are allocated as a dense sequence of small ints by the cluster
   ([Cluster.fresh_node_id]), so the three per-node maps are arenas: flat
   arrays indexed by node id, grown by doubling.  Lookups on the message
   hot path (find/mem/members_of, several per hop) become a bounds check
   and a load instead of a hash and a bucket chain, and the per-processor
   footprint is one word per known node per map. *)
type t = {
  pid : pid;
  mutable copies : rcopy option array;  (* node_id -> local copy *)
  mutable where : pid list option array;  (* node_id -> known member set *)
  mutable pending : Msg.t list array;  (* node_id -> parked msgs, newest first *)
  mutable live_copies : int;  (* number of [Some] slots in [copies] *)
  mutable parked_msgs : int;  (* total messages across [pending]; a gauge *)
  forwarding : (node_id, pid) Hashtbl.t;
  departed : (node_id, unit) Hashtbl.t;
  mutable root : node_id;
  mutable wal : Wal.t option;  (* durable journal, when Config.durability.wal *)
}

let initial_cap = 64

let create ~pid ~root =
  {
    pid;
    copies = Array.make initial_cap None;
    where = Array.make initial_cap None;
    pending = Array.make initial_cap [];
    live_copies = 0;
    parked_msgs = 0;
    forwarding = Hashtbl.create 8;
    departed = Hashtbl.create 8;
    root;
    wal = None;
  }

let set_wal t w = t.wal <- Some w
(* Skip journaling (and snapshot building) during replay: recovery must
   never re-journal the facts it is reading. *)
let[@inline] journal t r =
  match t.wal with
  | Some w when not (Wal.replaying w) -> Wal.append w r
  | Some _ | None -> ()

(* Grow all three arenas together so a single in-bounds check ([id <
   Array.length t.copies]) covers every map. *)
let grow t id =
  let cap = Array.length t.copies in
  let cap' =
    let rec go c = if id < c then c else go (c * 2) in
    go (cap * 2)
  in
  let copies' = Array.make cap' None in
  Array.blit t.copies 0 copies' 0 cap;
  t.copies <- copies';
  let where' = Array.make cap' None in
  Array.blit t.where 0 where' 0 cap;
  t.where <- where';
  let pending' = Array.make cap' [] in
  Array.blit t.pending 0 pending' 0 cap;
  t.pending <- pending'

let[@inline] ensure t id = if id >= Array.length t.copies then grow t id

let find t id = if id < Array.length t.copies then t.copies.(id) else None

let get t id =
  match find t id with
  | Some c -> c
  | None ->
    Fmt.failwith "Store: processor %d has no copy of node %d" t.pid id

let mem t id = id < Array.length t.copies && t.copies.(id) <> None

let learn t id members =
  ensure t id;
  t.where.(id) <- Some members;
  journal t (Wal.Learn { node = id; members })

let learn_if_absent t id members =
  ensure t id;
  if t.where.(id) = None then begin
    t.where.(id) <- Some members;
    journal t (Wal.Learn { node = id; members })
  end

let install t ~node ~pc ~members =
  let c =
    {
      node;
      pc;
      members;
      join_versions = [];
      splitting = false;
      acks_pending = 0;
      blocked = [];
      eager_busy = false;
      eager_queue = Queue.create ();
      eager_acks = 0;
      eager_current = None;
    }
  in
  let id = node.Node.id in
  ensure t id;
  if t.copies.(id) = None then t.live_copies <- t.live_copies + 1;
  t.copies.(id) <- Some c;
  t.where.(id) <- Some members;
  (match t.wal with
  | Some w when not (Wal.replaying w) ->
    Wal.append w
      (Wal.Write
         {
           snap = Msg.snapshot_of_node node;
           pc;
           members;
           join_versions = [];
           splitting = false;
         })
  | Some _ | None -> ());
  c

let remove t id =
  if id < Array.length t.copies && t.copies.(id) <> None then begin
    t.copies.(id) <- None;
    t.live_copies <- t.live_copies - 1;
    journal t (Wal.Remove { node = id })
  end

let members_of t id =
  match (if id < Array.length t.where then t.where.(id) else None) with
  | Some m -> m
  | None ->
    Fmt.failwith "Store: processor %d has no location for node %d" t.pid id

let members_opt t id =
  if id < Array.length t.where then t.where.(id) else None

let add_pending t id msg =
  ensure t id;
  t.pending.(id) <- msg :: t.pending.(id);
  t.parked_msgs <- t.parked_msgs + 1;
  journal t (Wal.Park { node = id; msg })

let take_pending t id =
  if id < Array.length t.pending then begin
    let msgs = t.pending.(id) in
    t.pending.(id) <- [];
    if msgs <> [] then begin
      t.parked_msgs <- t.parked_msgs - List.length msgs;
      journal t (Wal.Unpark { node = id })
    end;
    List.rev msgs
  end
  else []

let parked_count t = t.parked_msgs

let iter_pending t f =
  for id = 0 to Array.length t.pending - 1 do
    match t.pending.(id) with [] -> () | msgs -> f id (List.rev msgs)
  done

let copy_count t = t.live_copies

(* Ascending node-id walk.  The order escapes into schedule decisions
   (balance victim choice in Variable/Mobile) and reports, so it must be
   deterministic; the arena makes it the natural creation order of the
   nodes rather than an accident of bucket layout. *)
let iter t f =
  let a = t.copies in
  for id = 0 to Array.length a - 1 do
    match Array.unsafe_get a id with None -> () | Some c -> f c
  done

(* ------------------------------------------------------------------ *)
(* Durability                                                          *)

(* Journal the full image of a copy after an in-place mutation (entry
   writes, link changes, pc/member/version updates).  Kernels call this
   at every point where the copy must survive a crash; recovery rebuilds
   the copy from the newest Write record. *)
let wrote t id =
  match t.wal with
  | None -> ()
  | Some w when Wal.replaying w -> ()
  | Some w -> (
    match find t id with
    | None -> ()
    | Some c ->
      (* Replaying this [Write] re-runs [install], which refreshes the
         location hint from the member list.  Mirror that here so the
         live store and its replay agree on [where] — otherwise a hint
         learned before an in-place write survives live but is clobbered
         during recovery (or the reverse). *)
      t.where.(id) <- Some c.members;
      Wal.append w
        (Wal.Write
           {
             snap = Msg.snapshot_of_node c.node;
             pc = c.pc;
             members = c.members;
             join_versions = c.join_versions;
             splitting = c.splitting;
           }))

(* Journaling setters for the per-store scalars and side tables the
   kernels used to poke directly. *)
let set_root t id =
  t.root <- id;
  journal t (Wal.Root { node = id })

let depart t id =
  Hashtbl.replace t.departed id ();
  journal t (Wal.Depart { node = id })

let undepart t id =
  if Hashtbl.mem t.departed id then begin
    Hashtbl.remove t.departed id;
    journal t (Wal.Undepart { node = id })
  end

let set_forwarding t id dst =
  Hashtbl.replace t.forwarding id dst;
  journal t (Wal.Forward { node = id; dst })

let clear_forwarding t id =
  if Hashtbl.mem t.forwarding id then begin
    Hashtbl.remove t.forwarding id;
    journal t (Wal.Unforward { node = id })
  end

(* A crash: every volatile structure is dropped.  The WAL handle
   survives — it is the disk. *)
let clear t =
  t.copies <- Array.make initial_cap None;
  t.where <- Array.make initial_cap None;
  t.pending <- Array.make initial_cap [];
  t.live_copies <- 0;
  t.parked_msgs <- 0;
  Hashtbl.reset t.forwarding;
  Hashtbl.reset t.departed;
  t.root <- -1

(* Recovery: apply one journal record.  Run under [Wal.set_replaying] so
   the mutations below do not re-journal themselves.  Net-layer records
   (Send/Retire/Deliver) and the Op_done audit stream are not store
   state and are ignored here. *)
let apply_record t = function
  | Wal.Write { snap; pc; members; join_versions; splitting } ->
    let c = install t ~node:(Msg.node_of_snapshot snap) ~pc ~members in
    c.join_versions <- join_versions;
    c.splitting <- splitting
  | Wal.Remove { node } -> remove t node
  | Wal.Learn { node; members } -> learn t node members
  | Wal.Unlearn { node } ->
    if node < Array.length t.where then t.where.(node) <- None
  | Wal.Root { node } -> t.root <- node
  | Wal.Depart { node } -> Hashtbl.replace t.departed node ()
  | Wal.Undepart { node } -> Hashtbl.remove t.departed node
  | Wal.Forward { node; dst } -> Hashtbl.replace t.forwarding node dst
  | Wal.Unforward { node } -> Hashtbl.remove t.forwarding node
  | Wal.Park { node; msg } -> add_pending t node msg
  | Wal.Unpark { node } ->
    if node < Array.length t.pending then begin
      t.parked_msgs <- t.parked_msgs - List.length t.pending.(node);
      t.pending.(node) <- []
    end
  | Wal.Op_done _ | Wal.Send _ | Wal.Retire _ | Wal.Deliver _ -> ()

(* Deterministic digest of the journaled state, for the recovery
   property tests: digest (live store) = digest (store replayed from its
   WAL), and same-seed runs produce identical digests.  Only
   crash-survivable fields participate — AAS/eager scratch state is
   volatile by design.  Every map is emitted in sorted key order; no
   hash-bucket order escapes. *)
let digest t =
  let buf = Buffer.create 1024 in
  for id = 0 to Array.length t.copies - 1 do
    match t.copies.(id) with
    | None -> ()
    | Some c ->
      let snap = Msg.snapshot_of_node c.node in
      Buffer.add_string buf
        (Marshal.to_string
           (snap, c.pc, c.members, c.join_versions, c.splitting)
           [])
  done;
  for id = 0 to Array.length t.where - 1 do
    match t.where.(id) with
    | None -> ()
    | Some m -> Buffer.add_string buf (Marshal.to_string (id, m) [])
  done;
  Buffer.add_string buf (string_of_int t.root);
  List.iter
    (fun kv -> Buffer.add_string buf (Marshal.to_string kv []))
    (Dbtree_sim.Stats.sorted_bindings t.forwarding);
  List.iter
    (fun kv -> Buffer.add_string buf (Marshal.to_string kv []))
    (Dbtree_sim.Stats.sorted_bindings t.departed);
  for id = 0 to Array.length t.pending - 1 do
    match t.pending.(id) with
    | [] -> ()
    | msgs -> Buffer.add_string buf (Marshal.to_string (id, msgs) [])
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))
