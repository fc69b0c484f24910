open Dbtree_blink
open Dbtree_sim
module Action = Dbtree_history.Action
module Event = Dbtree_obs.Event

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let choose_member cl members =
  match members with
  | [ m ] -> m
  | ms ->
    (* One [Rng.int] draw over the list length — the same draw [Rng.pick]
       makes, without materialising an intermediate array per hop. *)
    List.nth ms (Rng.int (Sim.rng cl.Cluster.sim) (List.length ms))

let reply_op cl ~src op result =
  if op >= 0 then
    match Opstate.find cl.Cluster.ops op with
    | Some r -> Cluster.send cl ~src ~dst:r.Opstate.origin (Msg.Op_done { op; result })
    | None -> Fmt.failwith "Kernel_core: reply for unknown op %d" op

let action_kind key (u : Msg.update) =
  match u with
  | Msg.Upsert _ | Msg.Add_child _ -> Action.Insert { key }
  | Msg.Remove _ | Msg.Drop_child _ -> Action.Delete { key }

(* Mark an update as already answered, for relays and re-issue after
   history rewriting: the client was answered when the initial action
   ran. *)
let silence (u : Msg.update) =
  match u with
  | Msg.Upsert { value; _ } -> Msg.Upsert { op = -1; origin = 0; value }
  | Msg.Remove _ -> Msg.Remove { op = -1; origin = 0 }
  | Msg.Add_child _ | Msg.Drop_child _ -> u

(* A key guaranteed to lie inside the node's range, used to route actions
   that concern this node (e.g. the parent's hint update) by key. *)
let guide_key (n : Msg.value Node.t) =
  match (n.Node.low, n.Node.high) with
  | Bound.Key k, _ -> k
  | Bound.Neg_inf, Bound.Key h -> h - 1
  | Bound.Neg_inf, (Bound.Pos_inf | Bound.Neg_inf) -> 0
  | Bound.Pos_inf, _ -> invalid_arg "Kernel_core.guide_key: low = +inf"

(* Membership walks for the hop, relay and recovery paths: toplevel and
   taking every argument, so they allocate no closure per call. *)
let rec has_other (pid : Msg.pid) = function
  | [] -> false
  | m :: rest -> m <> pid || has_other pid rest

let rec others (pid : Msg.pid) = function
  | [] -> []
  | m :: rest -> if m = pid then others pid rest else m :: others pid rest

let rec fan_out send t (pid : Msg.pid) msg = function
  | [] -> ()
  | m :: rest ->
    if m <> pid then send t ~src:pid ~dst:m msg;
    fan_out send t pid msg rest

(* Install a copy from a snapshot and re-run whatever was parked here
   for it; a departed mark from an earlier life of the copy is lifted. *)
let install_snapshot cl pid snap ~pc ~members =
  let node = Msg.node_of_snapshot snap in
  let id = node.Node.id in
  ignore (Store.install (Cluster.store cl pid) ~node ~pc ~members);
  Store.undepart (Cluster.store cl pid) id;
  Cluster.unpark cl ~pid ~node:id

(* A routed action whose next hop has no known location.  The hint can
   lag the snapshot that exposed the hop when the two travel on
   different channels (a crash stretches the lagging channel's
   retransmit), or the hop's copy may have moved.  Hand the action to
   [authority] — the PC of the node that referenced the hop, which
   learned every child and sibling it ever pointed to — or, without one
   ([authority = pid]), restart it at this processor's root. *)
let unknown_location cl pid ~name ~authority msg =
  Stats.tick cl.Cluster.ctr.Cluster.route_lost_hint;
  if authority <> pid then Cluster.send cl ~src:pid ~dst:authority msg
  else begin
    let root = (Cluster.store cl pid).Store.root in
    match msg with
    | Msg.Route r ->
      if r.node = root then
        Fmt.failwith "%s: processor %d lost at its own root" name pid
      else Cluster.send cl ~src:pid ~dst:pid (Msg.Route { r with node = root })
    | Msg.Op_done _ | Msg.Relay_update _ | Msg.Split_start _
    | Msg.Split_ack _ | Msg.Split_done _ | Msg.New_root _
    | Msg.Eager_update _ | Msg.Eager_split _ | Msg.Eager_ack _
    | Msg.Batch _ | Msg.Migrate_install _ | Msg.Join_request _
    | Msg.Join_copy _ | Msg.Relay_member _ | Msg.Unjoin_request _ ->
      (* Only routed actions restart at the root; control traffic is
         addressed to a concrete processor and must never be lost. *)
      Fmt.failwith "%s: cannot reroute %s" name (Msg.kind msg)
  end

(* A route for a node this processor holds no copy of, whose location
   it knows: an authority fallback or a stale hint landed it here.  Pass
   it to another member (counted under [recover.hinted]) rather than
   wait for an install that never comes. *)
let pass_to_member cl pid msg ~node =
  match Store.members_opt (Cluster.store cl pid) node with
  | Some members when has_other pid members ->
    Stats.tick cl.Cluster.ctr.Cluster.recover_hinted;
    Cluster.send cl ~src:pid ~dst:(choose_member cl (others pid members)) msg;
    true
  | Some _ | None -> false

(* ------------------------------------------------------------------ *)
(* Tree shape: bootstrap                                               *)

(* One leaf per partition slice, linked into a chain, and a level-1 root
   over them.  Node ids are drawn leaves first, then the root. *)
let initial_tree cl =
  let nprocs = cl.Cluster.config.Config.procs in
  let leaves =
    List.init nprocs (fun p ->
        let lo, hi = Partition.slice cl.Cluster.partition p in
        let low = if p = 0 then Bound.Neg_inf else Bound.Key lo in
        let high = if p = nprocs - 1 then Bound.Pos_inf else Bound.Key hi in
        let id = Cluster.fresh_node_id cl in
        (p, Node.make ~id ~level:0 ~low ~high Entries.empty))
  in
  let rec link = function
    | (_, a) :: ((_, b) :: _ as rest) ->
      a.Node.right <- Some b.Node.id;
      b.Node.left <- Some a.Node.id;
      link rest
    | [ _ ] | [] -> ()
  in
  link leaves;
  let root_id = Cluster.fresh_node_id cl in
  let root_entries =
    Entries.of_sorted_list
      (List.map
         (fun (_, (node : Msg.value Node.t)) ->
           ( (match node.Node.low with
             | Bound.Key lo -> lo
             | Bound.Neg_inf | Bound.Pos_inf -> Bound.min_sentinel),
             Node.Child node.Node.id ))
         leaves)
  in
  ( leaves,
    Node.make ~id:root_id ~level:1 ~low:Bound.Neg_inf ~high:Bound.Pos_inf
      root_entries )

(* ------------------------------------------------------------------ *)
(* Migration and balancing (single-copy Variable leaves, Mobile nodes) *)

(* The store holding [node]'s single copy, unless the node is gone or
   already sits at [to_pid] (counted as a skipped migration). *)
let migration_owner cl ~node ~to_pid =
  let owner =
    Array.fold_left
      (fun acc store -> if Store.mem store node then Some store else acc)
      None cl.Cluster.stores
  in
  match owner with
  | Some store when store.Store.pid <> to_pid -> Some store
  | Some _ | None ->
    Stats.tick cl.Cluster.ctr.Cluster.migrate_skipped;
    None

(* Ship [copy] off its owner [store] to [to_pid]: bump its version,
   retire it here, and leave a forwarding address (if configured) and a
   location hint behind. *)
let ship cl store (copy : Store.rcopy) ~to_pid ~ancestors =
  let pid = store.Store.pid in
  let n = copy.Store.node in
  let node = n.Node.id in
  n.Node.version <- n.Node.version + 1;
  let base = Cluster.hist_snapshot cl ~node ~pid in
  let snap = Msg.snapshot_of_node ~base n in
  Store.remove store node;
  Cluster.hist_retire cl ~node ~pid;
  if cl.Cluster.config.Config.forwarding then Store.set_forwarding store node to_pid;
  Store.learn store node [ to_pid ];
  Stats.tick cl.Cluster.ctr.Cluster.migrate_count;
  Cluster.event cl ~pid Event.Migrate ~a:node ~b:to_pid;
  Cluster.send cl ~src:pid ~dst:to_pid
    (Msg.Migrate_install { snap; ancestors; from_pid = pid })

let leaf_counts cl =
  Array.map
    (fun store ->
      let count = ref 0 in
      Store.iter store (fun c -> if Node.is_leaf c.Store.node then incr count);
      !count)
    cl.Cluster.stores

(* Periodic leaf balancer: move the fullest leaf of the most loaded
   processor to the least loaded one whenever the spread exceeds one. *)
let balance_step cl migrate k =
  let counts = leaf_counts cl in
  let hi = ref 0 and lo = ref 0 in
  Array.iteri
    (fun i c ->
      if c > counts.(!hi) then hi := i;
      if c < counts.(!lo) then lo := i)
    counts;
  if counts.(!hi) - counts.(!lo) >= 2 then begin
    let victim = ref None in
    Store.iter (Cluster.store cl !hi) (fun c ->
        if Node.is_leaf c.Store.node then
          match !victim with
          | Some (size, _) when size >= Node.size c.Store.node -> ()
          | Some _ | None ->
            victim := Some (Node.size c.Store.node, c.Store.node.Node.id));
    match !victim with
    | Some (_, id) -> migrate k ~node:id ~to_pid:!lo
    | None -> ()
  end

(* The balancer re-arms only while other work is pending, so a drained
   simulation still quiesces. *)
let start_balancer cl migrate k =
  let period = cl.Cluster.config.Config.balance_period in
  if period > 0 then begin
    let rec tick () =
      if Sim.pending cl.Cluster.sim > 0 then begin
        balance_step cl migrate k;
        Sim.schedule cl.Cluster.sim ~delay:period tick
      end
    in
    Sim.schedule cl.Cluster.sim ~delay:period tick
  end

let schedule_migrate cl migrate k ~node ~to_pid =
  if to_pid < 0 || to_pid >= cl.Cluster.config.Config.procs then
    invalid_arg "migrate: bad pid";
  Sim.schedule cl.Cluster.sim ~delay:0 (fun () -> migrate k ~node ~to_pid)

(* ------------------------------------------------------------------ *)
(* The B-link machine over a kernel's copy-ordering policy             *)

type split = {
  uid : int;
  sep : int;
  sib : Msg.value Node.t;
  members : Msg.pid list;
  snap : Msg.snapshot;
}

module type KERNEL = sig
  type t

  val cluster : t -> Cluster.t
  val name : string
  val chase_left : bool
  val parent_hints : bool
  val versioned_splits : bool
  val learn_child : Store.t -> Msg.node_id -> Msg.pid list -> unit
  val authority : Msg.pid -> Store.rcopy -> Msg.pid

  val forward :
    t -> Msg.pid -> authority:Msg.pid -> Msg.t -> Msg.node_id -> unit

  val start_route : t -> origin:Msg.pid -> Msg.t -> unit
  val root_members : t -> Msg.pid -> Msg.pid list

  val sibling_members :
    t -> Msg.pid -> Store.rcopy -> Msg.value Node.t -> Msg.pid list
end

module Make (K : KERNEL) = struct
  (* Where a route that must climb re-enters the tree: the parent hint
     when the kernel keeps one, else the processor's root. *)
  let up_start (store : Store.t) (n : Msg.value Node.t) =
    if K.parent_hints then Option.value n.Node.parent ~default:store.Store.root
    else store.Store.root

  (* The present-copy half of routing: chase, descend or climb towards
     the target, and return [true] when [key] is in range at the target
     level, i.e. the caller performs the action here. *)
  let navigate t pid (copy : Store.rcopy) ~key ~level ~act =
    let cl = K.cluster t in
    let n = copy.Store.node in
    let node = n.Node.id in
    let authority = K.authority pid copy in
    Cluster.touch cl ~node;
    if n.Node.level > level then begin
      (match Node.step n key with
      | Node.Chase_right r ->
        Stats.tick cl.Cluster.ctr.Cluster.route_chase;
        K.forward t pid ~authority (Msg.Route { key; level; node = r; act }) r
      | Node.Descend c ->
        K.forward t pid ~authority (Msg.Route { key; level; node = c; act }) c
      | Node.Chase_left l when K.chase_left ->
        Stats.tick cl.Cluster.ctr.Cluster.route_chase;
        K.forward t pid ~authority (Msg.Route { key; level; node = l; act }) l
      | Node.Here | Node.Chase_left _ | Node.Dead_end ->
        Fmt.failwith "%s: bad navigation at node %d for key %d" K.name node key);
      false
    end
    else if n.Node.level < level then begin
      (* A stale start: a split finished at this node's level while the
         news that raises our root (or parent hint) above [level] is
         still in flight.  Re-enter higher up — each bounce costs at
         least a tick, so the pending update lands after finitely many
         retries. *)
      let start = up_start (Cluster.store cl pid) n in
      Stats.tick cl.Cluster.ctr.Cluster.route_up;
      K.forward t pid ~authority:pid (Msg.Route { key; level; node = start; act }) start;
      false
    end
    else if Bound.compare_key n.Node.high key <= 0 then begin
      (* out of range at the target level: chase the right link *)
      Stats.tick cl.Cluster.ctr.Cluster.route_chase;
      (match n.Node.right with
      | Some r -> K.forward t pid ~authority (Msg.Route { key; level; node = r; act }) r
      | None -> Fmt.failwith "%s: dead end right at node %d key %d" K.name node key);
      false
    end
    else if Bound.compare_key n.Node.low key > 0 then begin
      (* Left of the range: a broken invariant where links only grow
         rightwards, a left-link chase where nodes move. *)
      if not K.chase_left then
        Fmt.failwith "%s: key %d below node %d's range" K.name key node;
      Stats.tick cl.Cluster.ctr.Cluster.route_chase;
      (match n.Node.left with
      | Some l -> K.forward t pid ~authority (Msg.Route { key; level; node = l; act }) l
      | None -> Fmt.failwith "%s: dead end left at node %d key %d" K.name node key);
      false
    end
    else true

  (* The one update applier: a data update (returning the client reply
     its initial execution owes), a child entry added (its location
     learned the kernel's way) or a reclaimed leaf's entry dropped; then
     the copy is journaled. *)
  let apply_update t pid (copy : Store.rcopy) key (u : Msg.update) =
    let cl = K.cluster t in
    let n = copy.Store.node in
    let store = Cluster.store cl pid in
    let reply =
      match u with
      | Msg.Upsert { op; value; _ } ->
        Node.add_entry n key (Node.Data value);
        Some (op, Msg.Inserted)
      | Msg.Remove { op; _ } ->
        let present = Entries.mem n.Node.entries key in
        Node.remove_entry n key;
        Some (op, Msg.Removed present)
      | Msg.Add_child { child; child_members } ->
        Node.add_entry n key (Node.Child child);
        K.learn_child store child child_members;
        None
      | Msg.Drop_child { child; fallback; fallback_pid } ->
        (* dE-tree: retire a freed leaf's parent entry.  The entry is
           found by value (its key can be the bootstrap sentinel); a first
           entry is the node's floor and is repointed to the absorber
           instead. *)
        let entry =
          Entries.fold
            (fun k p acc ->
              match p with
              | Node.Child c when c = child -> Some k
              | Node.Child _ | Node.Data _ -> acc)
            n.Node.entries None
        in
        (match entry with
        | Some k ->
          let is_first =
            match Entries.min_binding n.Node.entries with
            | Some (k0, _) -> k0 = k
            | None -> false
          in
          if is_first then Node.add_entry n k (Node.Child fallback)
          else Node.remove_entry n k;
          Store.learn_if_absent store fallback [ fallback_pid ];
          Stats.tick cl.Cluster.ctr.Cluster.reclaim_dropped
        | None -> Stats.tick cl.Cluster.ctr.Cluster.reclaim_drop_stale);
        None
    in
    Store.wrote store n.Node.id;
    reply

  (* An initial update at a copy of its target: apply it, record it and
     answer the client. *)
  let apply_initial t pid (copy : Store.rcopy) ~key ~uid ~u =
    let cl = K.cluster t in
    let reply = apply_update t pid copy key u in
    Cluster.hist_record cl ~node:copy.Store.node.Node.id ~pid ~mode:Action.Initial
      ~uid (action_kind key u);
    match reply with
    | Some (op, result) -> reply_op cl ~src:pid op result
    | None -> ()

  (* Relay an applied initial update, silenced, to the copy's other
     members through the kernel's [relay] send; a lone copy builds no
     message. *)
  let relay_initial t pid (copy : Store.rcopy) ~key ~uid ~u ~relay =
    let members = copy.Store.members in
    if has_other pid members then begin
      let n = copy.Store.node in
      fan_out relay t pid
        (Msg.Relay_update
           {
             uid;
             node = n.Node.id;
             key;
             u = silence u;
             version = n.Node.version;
             sender = pid;
           })
        members
    end

  (* The in-range half of a relayed update: apply and record it, count it
     under [relay.applied] and return [true]; return [false], having done
     nothing, when the copy has already split past [key]. *)
  let apply_relayed t pid (copy : Store.rcopy) ~key ~uid ~u =
    Node.in_range copy.Store.node key
    && begin
      let cl = K.cluster t in
      ignore (apply_update t pid copy key u);
      Cluster.hist_record cl ~node:copy.Store.node.Node.id ~pid
        ~mode:Action.Relayed ~uid (action_kind key u);
      Stats.tick cl.Cluster.ctr.Cluster.relay_applied;
      true
    end

  (* [New_root]: learn where the new root lives, install a copy if this
     processor is a member, and make it the local root only when it is
     higher than the local root copy (or no root copy is held here), so a
     late, lower announcement never demotes a root held here.  With no
     member to name a primary, the message waits on the park path. *)
  let adopt_root t pid msg ~(snap : Msg.snapshot) ~members =
    let cl = K.cluster t in
    let store = Cluster.store cl pid in
    match Cluster.pc_of_members members with
    | Error Cluster.Empty_members ->
      Cluster.park ~no_members:true cl ~pid ~node:snap.Msg.s_id msg
    | Ok pc ->
      let higher =
        match Store.find store store.Store.root with
        | Some current -> snap.Msg.s_level > current.Store.node.Node.level
        | None -> true
      in
      Store.learn store snap.Msg.s_id members;
      if List.mem pid members then install_snapshot cl pid snap ~pc ~members;
      if higher then Store.set_root store snap.Msg.s_id

  (* The leaf-level reads: answer a search, or collect this leaf's
     bindings in [route key, hi] and continue along the leaf chain while
     it still overlaps the range. *)
  let read t pid (copy : Store.rcopy) ~key ~(act : Msg.routed) =
    let cl = K.cluster t in
    let n = copy.Store.node in
    match act with
    | Msg.Search { op; origin } ->
      let result =
        match Node.find_leaf_value n key with
        | Some v -> Msg.Found v
        | None -> Msg.Absent
      in
      Cluster.send cl ~src:pid ~dst:origin (Msg.Op_done { op; result })
    | Msg.Scan { op; origin; hi; acc } -> begin
      let acc =
        Entries.fold
          (fun k p acc ->
            match p with
            | Node.Data v when k >= key && k <= hi -> (k, v) :: acc
            | Node.Data _ | Node.Child _ -> acc)
          n.Node.entries acc
      in
      match (n.Node.right, n.Node.high) with
      | Some r, Bound.Key h when h <= hi ->
        K.forward t pid ~authority:pid
          (Msg.Route
             { key = h; level = 0; node = r; act = Msg.Scan { op; origin; hi; acc } })
          r
      | (Some _ | None), _ ->
        Cluster.send cl ~src:pid ~dst:origin
          (Msg.Op_done { op; result = Msg.Bindings (List.rev acc) })
    end
    | Msg.Update _ | Msg.Relink _ | Msg.Absorb _ ->
      invalid_arg "Kernel_core.read: not a read action"

  (* A routed action arriving at processor [pid]: at a present copy,
     navigate it, then answer a read or let the kernel [perform] the
     action; with no copy here, hand it to the kernel's recovery [miss].
     Both are the kernel's toplevel functions, not per-message
     closures. *)
  let handle_route t pid ~key ~level ~node ~act ~perform ~miss =
    match Store.find (Cluster.store (K.cluster t) pid) node with
    | None -> miss t pid ~key ~level ~node ~act
    | Some copy ->
      if navigate t pid copy ~key ~level ~act then begin
        match act with
        | Msg.Search _ | Msg.Scan _ -> read t pid copy ~key ~act
        | Msg.Update _ | Msg.Relink _ | Msg.Absorb _ ->
          perform t pid copy ~key ~act
      end

  (* The half-split's history record; only the version-ordered kernels
     stamp it with the node's version. *)
  let record_split cl pid (n : Msg.value Node.t) ~mode ~uid ~sep ~sib_id =
    Cluster.hist_record cl ~node:n.Node.id ~pid ~mode ~uid
      ?version:(if K.versioned_splits then Some n.Node.version else None)
      (Action.Half_split { sep; sibling = sib_id })

  (* Tell the split node's other copies about the split (lazily, or as
     the close of a synchronous split's AAS). *)
  let relay_split t pid (copy : Store.rcopy) (s : split) ~sync =
    let msg =
      Msg.Split_done
        {
          uid = s.uid;
          node = copy.Store.node.Node.id;
          sep = s.sep;
          sibling = s.snap;
          sibling_members = s.members;
          sync;
        }
    in
    fan_out Cluster.send (K.cluster t) pid msg copy.Store.members

  (* A split arriving at a copy other than the PC: shrink the copy the
     same way and install the sibling if this processor hosts one. *)
  let apply_remote_split t pid (copy : Store.rcopy) ~uid ~sep
      ~(sibling : Msg.snapshot) ~sibling_members =
    let cl = K.cluster t in
    let store = Cluster.store cl pid in
    let n = copy.Store.node in
    let keep, dropped = Entries.partition_lt n.Node.entries sep in
    n.Node.entries <- keep;
    n.Node.high <- Bound.Key sep;
    n.Node.right <- Some sibling.Msg.s_id;
    n.Node.version <- n.Node.version + 1;
    Store.wrote store n.Node.id;
    if not (Entries.is_empty dropped) then
      Stats.add cl.Cluster.ctr.Cluster.split_dropped_entries (Entries.length dropped);
    record_split cl pid n ~mode:Action.Relayed ~uid ~sep ~sib_id:sibling.Msg.s_id;
    Store.learn store sibling.Msg.s_id sibling_members;
    if List.mem pid sibling_members then
      install_snapshot cl pid sibling
        ~pc:(Cluster.pc_of_members_exn sibling_members)
        ~members:sibling_members

  (* Grow a new root over a splitting root [old_root] and its sibling,
     with copies at the kernel's root members (the PC is the list's
     head), and announce it to every other processor. *)
  let grow_root t pid ~(old_root : Msg.value Node.t) ~sep ~sib_id =
    let cl = K.cluster t in
    let store = Cluster.store cl pid in
    let members = K.root_members t pid in
    let id = Cluster.fresh_node_id cl in
    let root =
      Node.make ~id ~level:(old_root.Node.level + 1) ~low:Bound.Neg_inf
        ~high:Bound.Pos_inf
        (Entries.of_sorted_list
           [
             (Bound.min_sentinel, Node.Child old_root.Node.id);
             (sep, Node.Child sib_id);
           ])
    in
    Stats.tick cl.Cluster.ctr.Cluster.root_grow;
    Cluster.event cl ~pid Event.Root_grow ~a:id ~b:root.Node.level;
    List.iter (fun m -> Cluster.hist_new_copy cl ~node:id ~pid:m ~base:[]) members;
    if List.mem pid members then
      ignore
        (Store.install store ~node:root ~pc:(Cluster.pc_of_members_exn members)
           ~members)
    else Store.learn store id members;
    Store.set_root store id;
    if K.parent_hints then begin
      old_root.Node.parent <- Some id;
      match Store.find store sib_id with
      | Some c -> c.Store.node.Node.parent <- Some id
      | None -> ()
    end;
    let snap = Msg.snapshot_of_node root in
    for m = 0 to cl.Cluster.config.Config.procs - 1 do
      if m <> pid then Cluster.send cl ~src:pid ~dst:m (Msg.New_root { snap; members })
    done

  (* Complete a half-split one level up (the B-link "second step"): grow
     a new root over a splitting root, else route the sibling's entry to
     the parent level. *)
  let complete_split t pid (n : Msg.value Node.t) (s : split) =
    let cl = K.cluster t in
    let store = Cluster.store cl pid in
    let sib_id = s.sib.Node.id in
    if store.Store.root = n.Node.id then grow_root t pid ~old_root:n ~sep:s.sep ~sib_id
    else begin
      let uid = Cluster.fresh_uid cl in
      let start = up_start store n in
      K.forward t pid ~authority:pid
        (Msg.Route
           {
             key = s.sep;
             level = n.Node.level + 1;
             node = start;
             act =
               Msg.Update
                 { uid; u = Msg.Add_child { child = sib_id; child_members = s.members } };
           })
        start
    end;
    Cluster.event cl ~pid Event.Split_end ~a:n.Node.id ~b:sib_id

  (* The PC's half-split: shrink the copy, count and trace the split,
     register every sibling copy and install (or locate) the sibling
     here, let the kernel [tell] the other copies its way, then complete
     the split upward. *)
  let half_split t pid (copy : Store.rcopy) ~tell =
    let cl = K.cluster t in
    let n = copy.Store.node in
    let store = Cluster.store cl pid in
    let uid = Cluster.fresh_uid cl in
    let sib_id = Cluster.fresh_node_id cl in
    let base = Cluster.hist_snapshot cl ~node:n.Node.id ~pid in
    let sib = Node.half_split n ~sibling_id:sib_id in
    let sep = Node.separator_of_sibling sib in
    Store.wrote store n.Node.id;
    Stats.tick cl.Cluster.ctr.Cluster.split_count;
    Cluster.event cl ~pid Event.Split_start ~a:n.Node.id ~b:sib_id;
    record_split cl pid n ~mode:Action.Initial ~uid ~sep ~sib_id;
    let members = K.sibling_members t pid copy sib in
    (* Every sibling copy shares one original value: a backwards
       extension of n's history at the split. *)
    List.iter (fun m -> Cluster.hist_new_copy cl ~node:sib_id ~pid:m ~base) members;
    let snap = Msg.snapshot_of_node ~base sib in
    if List.mem pid members then
      ignore
        (Store.install store ~node:sib ~pc:(Cluster.pc_of_members_exn members)
           ~members)
    else Store.learn store sib_id members;
    let s = { uid; sep; sib; members; snap } in
    tell t pid copy s;
    complete_split t pid n s

  (* §4.1.2 history rewriting at the PC: an update a split moved out of
     [copy]'s range is re-issued as an initial update routed to the
     right sibling. *)
  let reissue_right t pid (copy : Store.rcopy) ~key ~uid ~u =
    let n = copy.Store.node in
    match n.Node.right with
    | Some r ->
      K.forward t pid ~authority:pid
        (Msg.Route { key; level = n.Node.level; node = r; act = Msg.Update { uid; u } })
        r
    | None ->
      Fmt.failwith "%s: out-of-range update at rightmost node %d" K.name n.Node.id

  let issue_relink t pid ~uid ~key ~level ~start ~which ~target ~version =
    K.forward t pid ~authority:pid
      (Msg.Route
         {
           key;
           level;
           node = start;
           act =
             Msg.Relink
               { uid; which; target; target_pid = pid; version; relayed = false };
         })
      start

  (* Point the split sibling's right neighbour's left link at the
     sibling (a link change routed by the neighbour's low key). *)
  let relink_left t pid (s : split) =
    match (s.sib.Node.right, s.sib.Node.high) with
    | Some r, Bound.Key h ->
      issue_relink t pid ~uid:(Cluster.fresh_uid (K.cluster t)) ~key:h
        ~level:s.sib.Node.level ~start:r ~which:`Left ~target:s.sib.Node.id
        ~version:s.sib.Node.version
    | (Some _ | None), _ -> ()

  (* Install a migrated node at its new owner and link-change its left
     and right neighbours to it; the parent's hint is the kernel's. *)
  let migrate_in t pid (snap : Msg.snapshot) =
    let cl = K.cluster t in
    let store = Cluster.store cl pid in
    let node = Msg.node_of_snapshot snap in
    let id = node.Node.id in
    ignore (Store.install store ~node ~pc:pid ~members:[ pid ]);
    Store.clear_forwarding store id;
    Store.undepart store id;
    Cluster.hist_new_copy cl ~node:id ~pid ~base:snap.Msg.s_base;
    Cluster.hist_record cl ~node:id ~pid ~mode:Action.Initial
      ~version:node.Node.version ~uid:(Cluster.fresh_uid cl)
      (Action.Migrate { to_pid = pid });
    let v = node.Node.version in
    (match (node.Node.left, node.Node.low) with
    | Some l, Bound.Key low ->
      issue_relink t pid ~uid:(Cluster.fresh_uid cl) ~key:(low - 1)
        ~level:node.Node.level ~start:l ~which:`Right ~target:id ~version:v
    | (Some _ | None), _ -> ());
    (match (node.Node.right, node.Node.high) with
    | Some r, Bound.Key high ->
      issue_relink t pid ~uid:(Cluster.fresh_uid cl) ~key:high
        ~level:node.Node.level ~start:r ~which:`Left ~target:id ~version:v
    | (Some _ | None), _ -> ());
    node

  (* Op issue: register the op and route its action from the origin's
     root, entering the tree the kernel's way. *)
  let issue t ~origin ~kind ~key ~value =
    let cl = K.cluster t in
    let r =
      Opstate.register cl.Cluster.ops ~kind ~key ~value ~origin
        ~now:(Cluster.now cl)
    in
    Cluster.op_issue cl r;
    r

  let route t ~origin ~key act =
    let cl = K.cluster t in
    K.start_route t ~origin
      (Msg.Route { key; level = 0; node = (Cluster.store cl origin).Store.root; act })

  let insert t ~origin key value =
    let r = issue t ~origin ~kind:Opstate.Insert ~key ~value:(Some value) in
    let uid = Cluster.fresh_uid (K.cluster t) in
    route t ~origin ~key
      (Msg.Update { uid; u = Msg.Upsert { op = r.Opstate.id; origin; value } });
    r.Opstate.id

  let search t ~origin key =
    let r = issue t ~origin ~kind:Opstate.Search ~key ~value:None in
    route t ~origin ~key (Msg.Search { op = r.Opstate.id; origin });
    r.Opstate.id

  let remove t ~origin key =
    let r = issue t ~origin ~kind:Opstate.Delete ~key ~value:None in
    let uid = Cluster.fresh_uid (K.cluster t) in
    route t ~origin ~key
      (Msg.Update { uid; u = Msg.Remove { op = r.Opstate.id; origin } });
    r.Opstate.id

  let scan t ~origin ~lo ~hi =
    let r = issue t ~origin ~kind:Opstate.Scan ~key:lo ~value:None in
    route t ~origin ~key:lo (Msg.Scan { op = r.Opstate.id; origin; hi; acc = [] });
    r.Opstate.id
end
