open Dbtree_blink
open Dbtree_sim
module Action = Dbtree_history.Action
module Event = Dbtree_obs.Event

type link_tag = [ `Left | `Right | `Child of int ]

type t = {
  cl : Cluster.t;
  (* Per-copy link versions: (pid, node, link) -> last applied version. *)
  link_versions : (int * int * link_tag, int) Hashtbl.t;
}

let cluster t = t.cl
let config t = t.cl.Cluster.config
let ctr t = t.cl.Cluster.ctr
let splits t = Stats.value (ctr t).Cluster.split_count
let migrations t = Stats.value (ctr t).Cluster.migrate_count
let joins t = Stats.value (ctr t).Cluster.join_count
let unjoins t = Stats.value (ctr t).Cluster.unjoin_count
let capacity t = (config t).Config.capacity
let procs t = (config t).Config.procs
let send t ~src ~dst msg = Cluster.send t.cl ~src ~dst msg
let send_local t pid msg = send t ~src:pid ~dst:pid msg

(* Forward a routed action towards node [next]: locally when we hold a
   copy, otherwise to some other member. *)
let forward t pid ~authority msg next =
  let store = Cluster.store t.cl pid in
  Stats.tick (ctr t).Cluster.route_hops;
  if Store.mem store next then send_local t pid msg
  else
    match Store.members_opt store next with
    | Some members when Kernel_core.has_other pid members ->
      send t ~src:pid
        ~dst:(Kernel_core.choose_member t.cl (Kernel_core.others pid members))
        msg
    | Some _ | None ->
      Kernel_core.unknown_location t.cl pid ~name:"Variable" ~authority msg

(* The root is replicated everywhere: every route starts locally. *)
let start_route t ~origin msg = send_local t origin msg

let join_version_of (copy : Store.rcopy) m =
  match List.assoc_opt m copy.Store.join_versions with
  | Some v -> v
  | None -> -1 (* founding member: never needs catch-up *)

(* The §4.3 catch-up rule: when the PC receives a relayed update carrying
   version [v], it re-relays it to every member that joined after [v] —
   the sender could not have known them. *)
let catchup t pid (copy : Store.rcopy) ~uid ~key ~u ~version ~sender =
  if (config t).Config.version_relays then
    List.iter
      (fun m ->
        if m <> pid && m <> sender && join_version_of copy m > version then begin
          Stats.tick (ctr t).Cluster.relay_catchup;
          send t ~src:pid ~dst:m
            (Msg.Relay_update
               { uid; node = copy.Store.node.Node.id; key; u; version; sender = pid })
        end)
      copy.Store.members

(* ------------------------------------------------------------------ *)
(* Splits                                                              *)

(* The sibling's replication follows the path rule: the processors that
   own leaves under its range — approximated by the location hints of
   its children, restricted to the node's members (only they receive
   the split).  Its PC is the splitting processor.  Leaves stay
   single-copy. *)
let sibling_members t pid (copy : Store.rcopy) (sib : Msg.value Node.t) =
  if Node.is_leaf sib then [ pid ]
  else begin
    let store = Cluster.store t.cl pid in
    let owners =
      Entries.fold
        (fun _ p acc ->
          match p with
          | Node.Child c ->
            (match Store.members_opt store c with
            | Some ms -> ms @ acc
            | None -> acc)
          | Node.Data _ -> acc)
        sib.Node.entries []
    in
    pid
    :: (List.sort_uniq compare owners
       |> List.filter (fun m -> m <> pid && List.mem m copy.Store.members))
  end

module Core = Kernel_core.Make (struct
  type nonrec t = t

  let cluster = cluster
  let name = "Variable"
  let chase_left = true
  let parent_hints = false
  let versioned_splits = true

  (* Weak: a relayed Add_child can arrive after the child migrated. *)
  let learn_child = Store.learn_if_absent
  let authority _ (copy : Store.rcopy) = copy.Store.pc
  let forward = forward
  let start_route = start_route

  (* The root is replicated everywhere, with the growing processor as
     its PC. *)
  let root_members t pid =
    pid :: Kernel_core.others pid (List.init (procs t) Fun.id)

  let sibling_members = sibling_members
end)

let tell_split t pid (copy : Store.rcopy) s =
  Core.relay_split t pid copy s ~sync:false;
  (* Leaf splits fix the right neighbor's left link (§4.2 machinery). *)
  if Node.is_leaf copy.Store.node then Core.relink_left t pid s

let rec maybe_split t pid (copy : Store.rcopy) =
  if
    pid = copy.Store.pc
    && Node.too_full ~capacity:(capacity t) copy.Store.node
  then begin
    Core.half_split t pid copy ~tell:tell_split;
    maybe_split t pid copy
  end

(* ------------------------------------------------------------------ *)
(* Link changes (on leaves and on replicated parents' child hints)     *)

let perform_relink t pid (copy : Store.rcopy) ~uid ~which ~target ~target_pid
    ~version ~relayed =
  let n = copy.Store.node in
  let store = Cluster.store t.cl pid in
  if target = n.Node.id then
    Fmt.failwith "Variable: link-change would self-link node %d" target;
  let slot = (pid, n.Node.id, (which : link_tag)) in
  let current =
    Option.value (Hashtbl.find_opt t.link_versions slot) ~default:(-1)
  in
  let effective = version > current in
  if effective then begin
    Hashtbl.replace t.link_versions slot version;
    (match which with
    | `Left -> n.Node.left <- Some target
    | `Right -> n.Node.right <- Some target
    | `Child _ -> ());
    Store.wrote store n.Node.id;
    Store.learn store target [ target_pid ]
  end
  else Stats.tick (ctr t).Cluster.link_change_absorbed;
  (* Child-hint changes on replicated nodes are directory maintenance and
     are relayed to the other copies; they are not recorded as value
     updates (the hint is per-store state, not part of the node value). *)
  (match which with
  | `Child _ -> ()
  | `Left | `Right ->
    Cluster.hist_record t.cl ~node:n.Node.id ~pid ~mode:Action.Initial
      ~effective ~version ~uid
      (Action.Link_change
         { which = (which :> [ `Left | `Right | `Child of int ]); target }));
  if (not relayed) && Kernel_core.has_other pid copy.Store.members then
    List.iter
      (fun m ->
        if m <> pid then
          send t ~src:pid ~dst:m
            (Msg.Route
               {
                 key = Kernel_core.guide_key n;
                 level = n.Node.level;
                 node = n.Node.id;
                 act =
                   Msg.Relink
                     { uid; which; target; target_pid; version; relayed = true };
               }))
      copy.Store.members

(* ------------------------------------------------------------------ *)
(* Performing routed actions                                           *)

let perform t pid (copy : Store.rcopy) ~key ~(act : Msg.routed) =
  match act with
  | Msg.Update { uid; u } ->
    Core.apply_initial t pid copy ~key ~uid ~u;
    Core.relay_initial t pid copy ~key ~uid ~u ~relay:send;
    maybe_split t pid copy
  | Msg.Relink { uid; which; target; target_pid; version; relayed } ->
    perform_relink t pid copy ~uid ~which ~target ~target_pid ~version ~relayed
  | Msg.Absorb _ ->
    Fmt.failwith "Variable: leaf reclamation is a mobile-protocol extension"
  | Msg.Search _ | Msg.Scan _ ->
    invalid_arg "Variable.perform: reads are answered by the core"

(* ------------------------------------------------------------------ *)
(* Migration, join / unjoin                                            *)

(* The leaf's ancestor path as this processor sees it (path-replication
   gives the owner a local copy of every ancestor). *)
let local_ancestors store key =
  let rec go id acc =
    match Store.find store id with
    | Some c when not (Node.is_leaf c.Store.node) -> (
      let acc = (id, c.Store.members) :: acc in
      match Node.step c.Store.node key with
      | Node.Descend child -> go child acc
      | Node.Chase_right r -> go r acc
      | Node.Chase_left l -> go l acc
      | Node.Here | Node.Dead_end -> acc)
    | Some _ | None -> acc
  in
  (* bottom-up order: parent first *)
  go store.Store.root []

let has_local_leaf_in store (acopy : Store.rcopy) =
  let a = acopy.Store.node in
  let overlaps (l : Msg.value Node.t) =
    Node.is_leaf l
    && Bound.compare a.Node.low l.Node.high < 0
    && Bound.compare l.Node.low a.Node.high < 0
  in
  let found = ref false in
  Store.iter store (fun c -> if overlaps c.Store.node then found := true);
  !found

let do_unjoin t pid (acopy : Store.rcopy) =
  let store = Cluster.store t.cl pid in
  let node = acopy.Store.node.Node.id in
  Stats.tick (ctr t).Cluster.unjoin_count;
  Cluster.event t.cl ~pid Event.Unjoin ~a:node ~b:pid;
  Store.remove store node;
  Store.depart store node;
  Cluster.hist_retire t.cl ~node ~pid;
  Store.learn store node (Kernel_core.others pid acopy.Store.members);
  send t ~src:pid ~dst:acopy.Store.pc (Msg.Unjoin_request { node; pid })

let do_migrate t ~node ~to_pid =
  match Kernel_core.migration_owner t.cl ~node ~to_pid with
  | None -> ()
  | Some store ->
    let pid = store.Store.pid in
    let copy = Store.get store node in
    if not (Node.is_leaf copy.Store.node) then Stats.tick (ctr t).Cluster.migrate_skipped
    else begin
      let ancestors = local_ancestors store (Kernel_core.guide_key copy.Store.node) in
      Kernel_core.ship t.cl store copy ~to_pid ~ancestors;
      (* Unjoin the replications this processor no longer needs: ancestors
         with no remaining local leaf in range (the PC and the root never
         unjoin). *)
      List.iter
        (fun (aid, _) ->
          match Store.find store aid with
          | Some acopy
            when acopy.Store.pc <> pid
                 && store.Store.root <> aid
                 && not (has_local_leaf_in store acopy) ->
            do_unjoin t pid acopy
          | Some _ | None -> ())
        ancestors
    end

let handle_migrate_install t pid ~snap ~ancestors =
  let store = Cluster.store t.cl pid in
  let node = Core.migrate_in t pid snap in
  let id = node.Node.id in
  (* Child-hint changes are per-store directory maintenance, not node
     updates: they stay outside the history model (uid -1). *)
  Core.issue_relink t pid ~uid:(-1) ~key:(Kernel_core.guide_key node)
    ~level:(node.Node.level + 1) ~start:store.Store.root ~which:(`Child id)
    ~target:id ~version:node.Node.version;
  (* Path replication: join every ancestor we do not already maintain. *)
  List.iter
    (fun (aid, hints) ->
      if not (Store.mem store aid) then begin
        Store.learn store aid hints;
        match hints with
        | pc :: _ when pc <> pid ->
          Stats.tick (ctr t).Cluster.join_requested;
          send t ~src:pid ~dst:pc (Msg.Join_request { node = aid; requester = pid })
        | _ :: _ | [] -> ()
      end)
    ancestors;
  Cluster.unpark t.cl ~pid ~node:id

(* ------------------------------------------------------------------ *)
(* Message handler                                                     *)

(* A route for a node with no copy here: a departed copy restarts at
   the local root, then a forwarding address, then a known member, and
   otherwise the navigation restarts from the local root (stale hints
   repair themselves via the child link-changes; the PC-authority
   fallback covers the rest). *)
let route_miss t pid ~key ~level ~node ~act =
  let store = Cluster.store t.cl pid in
  let msg = Msg.Route { key; level; node; act } in
  if Hashtbl.mem store.Store.departed node then begin
    Stats.tick (ctr t).Cluster.recover_departed;
    send_local t pid (Msg.Route { key; level; node = store.Store.root; act })
  end
  else
    match Hashtbl.find_opt store.Store.forwarding node with
    | Some fwd ->
      Stats.tick (ctr t).Cluster.recover_forwarded;
      send t ~src:pid ~dst:fwd msg
    | None ->
      if not (Kernel_core.pass_to_member t.cl pid msg ~node) then begin
        Stats.tick (ctr t).Cluster.recover_restart;
        send_local t pid (Msg.Route { key; level; node = store.Store.root; act })
      end

let handle_relay t pid ~uid ~node ~key ~u ~version ~sender =
  let store = Cluster.store t.cl pid in
  match Store.find store node with
  | None ->
    if Hashtbl.mem store.Store.departed node then
      Stats.tick (ctr t).Cluster.relay_to_departed
    else
      Cluster.park t.cl ~pid ~node
        (Msg.Relay_update { uid; node; key; u; version; sender })
  | Some copy ->
    Cluster.touch t.cl ~node;
    if pid = copy.Store.pc then
      catchup t pid copy ~uid ~key ~u ~version ~sender;
    if Core.apply_relayed t pid copy ~key ~uid ~u then maybe_split t pid copy
    else begin
      Cluster.hist_record t.cl ~node ~pid ~mode:Action.Relayed
        ~effective:false ~uid (Kernel_core.action_kind key u);
      Stats.tick (ctr t).Cluster.relay_discarded;
      if pid = copy.Store.pc then begin
        (* §4.1.2 history rewriting: forward to the right sibling. *)
        Stats.tick (ctr t).Cluster.semi_forwarded;
        Core.reissue_right t pid copy ~key ~uid:(Cluster.fresh_uid t.cl) ~u
      end
    end

(* Grant leg of a join (or re-join): ship the requester a snapshot of the
   PC's current image plus location hints for its children and right
   sibling, so the new copy can route without consulting the directory. *)
let send_join_copy t pid store (copy : Store.rcopy) ~node ~requester ~base =
  let n = copy.Store.node in
  let snap = Msg.snapshot_of_node ~base n in
  let hint_ids =
    Entries.fold
      (fun _ p acc ->
        match p with Node.Child c -> c :: acc | Node.Data _ -> acc)
      n.Node.entries []
  in
  let hint_ids =
    match n.Node.right with Some r -> r :: hint_ids | None -> hint_ids
  in
  let hints =
    List.filter_map
      (fun c ->
        Option.map (fun ms -> (c, ms)) (Store.members_opt store c))
      hint_ids
  in
  send t ~src:pid ~dst:requester
    (Msg.Join_copy
       {
         node;
         snap;
         members = copy.Store.members;
         join_version = n.Node.version;
         hints;
       })

let handle_join_request t pid ~node ~requester =
  let store = Cluster.store t.cl pid in
  let copy = Store.get store node in
  if List.mem requester copy.Store.members then begin
    Stats.tick (ctr t).Cluster.join_duplicate;
    (* Re-join after a crash (durable runs only): the requester is still a
       member — its membership, join version and the PC's relay duty all
       survived the crash, and the requester's own WAL replay plus the
       resumed reliable channels restore everything else exactly once.
       Mutating anything here (a version bump, a join-version restamp)
       would duplicate relays the channel layer already guarantees, so
       the grant is a pure confirmation: resend the Join_copy carrying
       the current image and fresh location hints.  No Relay_member
       broadcast — the membership did not change. *)
    if (config t).Config.durability.Config.wal then begin
      let base = Cluster.hist_snapshot t.cl ~node ~pid in
      send_join_copy t pid store copy ~node ~requester ~base
    end
  end
  else begin
    let n = copy.Store.node in
    n.Node.version <- n.Node.version + 1;
    let version = n.Node.version in
    let uid = Cluster.fresh_uid t.cl in
    Stats.tick (ctr t).Cluster.join_count;
    Cluster.event t.cl ~pid Event.Join ~a:node ~b:requester;
    Cluster.hist_record t.cl ~node ~pid ~mode:Action.Initial ~version ~uid
      (Action.Join { pid = requester });
    copy.Store.members <- copy.Store.members @ [ requester ];
    copy.Store.join_versions <-
      (requester, version) :: copy.Store.join_versions;
    Store.wrote store node;
    Store.learn store node copy.Store.members;
    let base = Cluster.hist_snapshot t.cl ~node ~pid in
    Cluster.hist_new_copy t.cl ~node ~pid:requester ~base;
    send_join_copy t pid store copy ~node ~requester ~base;
    List.iter
      (fun m ->
        if m <> pid && m <> requester then
          send t ~src:pid ~dst:m
            (Msg.Relay_member { node; change = `Join requester; version; uid }))
      copy.Store.members
  end

let handle_join_copy t pid ~node ~(snap : Msg.snapshot) ~members ~hints =
  let store = Cluster.store t.cl pid in
  List.iter (fun (c, ms) -> Store.learn_if_absent store c ms) hints;
  let do_install () =
    Kernel_core.install_snapshot t.cl pid snap
      ~pc:(Cluster.pc_of_members_exn members) ~members
  in
  match Store.find store node with
  | None -> do_install ()
  | Some prev ->
    Stats.tick (ctr t).Cluster.join_already_member;
    (* Durable runs: a rejoin confirmation normally carries the same
       version we already hold and is a no-op — the WAL replay and the
       resumed channels are the recovery mechanism, and overwriting a
       live copy would race the relays still in flight to it.  A strictly
       newer image means the PC granted a genuine re-join after our
       membership had lapsed (so no relays were addressed to us in the
       gap): only then is the refresh install the correct §4.3 move. *)
    if
      (config t).Config.durability.Config.wal
      && snap.Msg.s_version > prev.Store.node.Node.version
    then do_install ()

let handle_relay_member t pid ~node ~change ~version ~uid =
  let store = Cluster.store t.cl pid in
  match Store.find store node with
  | None ->
    if Hashtbl.mem store.Store.departed node then
      Stats.tick (ctr t).Cluster.relay_to_departed
    else
      Cluster.park t.cl ~pid ~node
        (Msg.Relay_member { node; change; version; uid })
  | Some copy ->
    let n = copy.Store.node in
    n.Node.version <- max n.Node.version version;
    (match change with
    | `Join p ->
      if not (List.mem p copy.Store.members) then
        copy.Store.members <- copy.Store.members @ [ p ];
      Cluster.hist_record t.cl ~node ~pid ~mode:Action.Relayed ~version ~uid
        (Action.Join { pid = p })
    | `Unjoin p ->
      copy.Store.members <- List.filter (fun m -> m <> p) copy.Store.members;
      Cluster.hist_record t.cl ~node ~pid ~mode:Action.Relayed ~version ~uid
        (Action.Unjoin { pid = p }));
    Store.wrote store node;
    Store.learn store node copy.Store.members

let handle_unjoin_request t pid ~node ~who =
  let store = Cluster.store t.cl pid in
  let copy = Store.get store node in
  if not (List.mem who copy.Store.members) then
    Stats.tick (ctr t).Cluster.unjoin_duplicate
  else begin
    let n = copy.Store.node in
    n.Node.version <- n.Node.version + 1;
    let version = n.Node.version in
    let uid = Cluster.fresh_uid t.cl in
    Cluster.hist_record t.cl ~node ~pid ~mode:Action.Initial ~version ~uid
      (Action.Unjoin { pid = who });
    copy.Store.members <- List.filter (fun m -> m <> who) copy.Store.members;
    copy.Store.join_versions <-
      List.filter (fun (m, _) -> m <> who) copy.Store.join_versions;
    Store.wrote store node;
    Store.learn store node copy.Store.members;
    List.iter
      (fun m ->
        if m <> pid then
          send t ~src:pid ~dst:m
            (Msg.Relay_member { node; change = `Unjoin who; version; uid }))
      copy.Store.members
  end

let handle t pid ~src:_ msg =
  match msg with
  (* dbflow: class semi -- routing may park on the owning copy and updates seek the authority copy (§5) *)
  | Msg.Route { key; level; node; act } ->
    Core.handle_route t pid ~key ~level ~node ~act ~perform ~miss:route_miss
  (* dbflow: class lazy -- completion funnel at the origin, independent of any copy's role *)
  | Msg.Op_done { op; result } -> Cluster.op_complete t.cl ~op ~result
  (* dbflow: class semi -- relayed updates are version-ordered per node against membership changes (§5.1) *)
  | Msg.Relay_update { uid; node; key; u; version; sender } ->
    handle_relay t pid ~uid ~node ~key ~u ~version ~sender
  (* dbflow: class semi -- remote half-split apply, ordered against joins/unjoins by the PC's member set *)
  | Msg.Split_done { uid; node; sep; sibling; sibling_members; sync = _ } -> begin
    let store = Cluster.store t.cl pid in
    match Store.find store node with
    | None ->
      if Hashtbl.mem store.Store.departed node then begin
        Stats.tick (ctr t).Cluster.relay_to_departed;
        (* The split raced our unjoin and implicitly enrolled us in the
           sibling's replication (the PC computed the member set before
           processing the unjoin).  Decline it: mark the sibling departed
           and tell its PC to drop us. *)
        if List.mem pid sibling_members then begin
          Store.depart store sibling.Msg.s_id;
          Cluster.hist_retire t.cl ~node:sibling.Msg.s_id ~pid;
          let sib_pc = Cluster.pc_of_members_exn sibling_members in
          if sib_pc <> pid then
            send t ~src:pid ~dst:sib_pc
              (Msg.Unjoin_request { node = sibling.Msg.s_id; pid })
        end
      end
      else Cluster.park t.cl ~pid ~node msg
    | Some copy ->
      Core.apply_remote_split t pid copy ~uid ~sep ~sibling ~sibling_members
  end
  (* dbflow: class lazy -- root adoption: copies may learn the new root in any order (§4.3) *)
  | Msg.New_root { snap; members } -> Core.adopt_root t pid msg ~snap ~members
  (* dbflow: class semi -- migration install is coordinated by the sending owner (§5.2) *)
  | Msg.Migrate_install { snap; ancestors; from_pid = _ } ->
    handle_migrate_install t pid ~snap ~ancestors
  (* dbflow: class semi -- join is granted by the node's PC, which orders it against relays (§5.1) *)
  | Msg.Join_request { node; requester } -> handle_join_request t pid ~node ~requester
  (* dbflow: class semi -- the granted copy install carries the PC's version, ordering it against relays (§5.1) *)
  | Msg.Join_copy { node; snap; members; join_version = _; hints } ->
    handle_join_copy t pid ~node ~snap ~members ~hints
  (* dbflow: class semi -- membership relays are version-ordered per node like data relays (§5.1) *)
  | Msg.Relay_member { node; change; version; uid } ->
    handle_relay_member t pid ~node ~change ~version ~uid
  (* dbflow: class semi -- unjoin is processed by the PC, which orders the member drop against relays (§5.1) *)
  | Msg.Unjoin_request { node; pid = who } -> handle_unjoin_request t pid ~node ~who
  | Msg.Batch _ | Msg.Split_start _ | Msg.Split_ack _ | Msg.Eager_update _
  | Msg.Eager_split _ | Msg.Eager_ack _ ->
    Fmt.failwith "Variable: unexpected message %s" (Msg.kind msg)

(* ------------------------------------------------------------------ *)
(* Bootstrap and public API                                            *)

let leaf_counts t = Kernel_core.leaf_counts t.cl

(* The initial tree: the root replicated everywhere with its PC at 0,
   each leaf single-copy at its slice's processor. *)
let bootstrap t =
  let cl = t.cl in
  let leaves, root = Kernel_core.initial_tree cl in
  let members = List.init (procs t) Fun.id in
  for pid = 0 to procs t - 1 do
    let store = Cluster.store cl pid in
    Store.set_root store root.Node.id;
    ignore (Store.install store ~node:(Node.clone root) ~pc:0 ~members);
    Cluster.hist_new_copy cl ~node:root.Node.id ~pid ~base:[];
    List.iter (fun (p, (node : Msg.value Node.t)) -> Store.learn store node.Node.id [ p ]) leaves
  done;
  List.iter
    (fun (p, (node : Msg.value Node.t)) ->
      node.Node.parent <- Some root.Node.id;
      ignore (Store.install (Cluster.store cl p) ~node ~pc:p ~members:[ p ]);
      Cluster.hist_new_copy cl ~node:node.Node.id ~pid:p ~base:[])
    leaves

let create cfg =
  let cl = Cluster.create cfg in
  let t = { cl; link_versions = Hashtbl.create 256 } in
  for pid = 0 to cfg.Config.procs - 1 do
    Cluster.Network.set_handler cl.Cluster.net pid (fun ~src msg ->
        handle t pid ~src msg)
  done;
  (* Crash recovery: after the WAL replay, re-request every copy whose PC
     is elsewhere through the §4.3 join path — the PC restamps our join
     version and resends a fresh image, covering relays we slept through. *)
  if cfg.Config.durability.Config.wal then
    Cluster.install_recovery cl ~rejoin:(fun pid -> Cluster.rejoin_copies cl pid);
  bootstrap t;
  Kernel_core.start_balancer cl do_migrate t;
  t

let insert = Core.insert
let search = Core.search
let remove = Core.remove
let scan = Core.scan
let migrate t ~node ~to_pid = Kernel_core.schedule_migrate t.cl do_migrate t ~node ~to_pid
let run ?max_events t = Cluster.run ?max_events t.cl

let api t =
  {
    Driver.insert = (fun ~origin k v -> insert t ~origin k v);
    Driver.search = (fun ~origin k -> search t ~origin k);
    Driver.remove = (fun ~origin k -> remove t ~origin k);
  }
