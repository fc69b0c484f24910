open Dbtree_blink
open Dbtree_sim
module Action = Dbtree_history.Action
module Event = Dbtree_obs.Event

type link_tag = [ `Left | `Right | `Child of int ]

type t = {
  cl : Cluster.t;
  (* Version last applied per (node, link) — orders link-change actions. *)
  link_versions : (int * link_tag, int) Hashtbl.t;
}

let cluster t = t.cl
let config t = t.cl.Cluster.config
let ctr t = t.cl.Cluster.ctr
let splits t = Stats.value (ctr t).Cluster.split_count
let migrations t = Stats.value (ctr t).Cluster.migrate_count
let capacity t = (config t).Config.capacity
let procs t = (config t).Config.procs
let send t ~src ~dst msg = Cluster.send t.cl ~src ~dst msg
let send_local t pid msg = send t ~src:pid ~dst:pid msg

(* ------------------------------------------------------------------ *)
(* Routing with hints, forwarding addresses and missing-node recovery  *)

let hint_of t pid node =
  match Store.members_opt (Cluster.store t.cl pid) node with
  | Some (m :: _) when m <> pid -> Some m
  | Some _ | None -> None

(* Single copies have no authority to fall back on: [authority] is
   unused, and an unknown location recovers via the root. *)
let forward t pid ~authority:_ msg next =
  let store = Cluster.store t.cl pid in
  Stats.tick (ctr t).Cluster.route_hops;
  if Store.mem store next then send_local t pid msg
  else
    match hint_of t pid next with
    | Some m -> send t ~src:pid ~dst:m msg
    | None ->
      (* No idea where [next] lives: recover via the root. *)
      Stats.tick (ctr t).Cluster.route_lost_hint;
      let root = store.Store.root in
      if Store.mem store root then send_local t pid msg
      else
        match hint_of t pid root with
        | Some m -> send t ~src:pid ~dst:m msg
        | None -> Fmt.failwith "Mobile: processor %d cannot reach the root" pid

(* Recovery when a route arrives for a node this processor does not
   store (§4.2 "missing node"): forwarding address if we kept one,
   else our own location hint (we always update it when a node leaves
   us), else re-route the action from a local node that is at or above
   the action's level, else bounce via the root. *)
let recover t pid ~key ~level ~node ~act =
  let store = Cluster.store t.cl pid in
  let msg = Msg.Route { key; level; node; act } in
  Stats.tick (ctr t).Cluster.recover_count;
  match Hashtbl.find_opt store.Store.forwarding node with
  | Some fwd ->
    Stats.tick (ctr t).Cluster.recover_forwarded;
    send t ~src:pid ~dst:fwd msg
  | None ->
    if not (Kernel_core.pass_to_member t.cl pid msg ~node) then begin
      (* Restart the navigation root-ward: the highest local node sees
         the repaired parent entries, while an arbitrary sibling would
         chase stale links through reclaimed territory. *)
      let best = ref None in
      Store.iter store (fun c ->
          let l = c.Store.node.Node.level in
          if l > level then
            match !best with
            | Some (bl, _) when bl >= l -> ()
            | Some _ | None -> best := Some (l, c.Store.node.Node.id));
      let restart_at =
        match !best with
        | Some (_, id) -> Some id
        | None -> if Store.mem store store.Store.root then Some store.Store.root else None
      in
      match restart_at with
      | Some id ->
        Stats.tick (ctr t).Cluster.recover_rerouted;
        send_local t pid (Msg.Route { key; level; node = id; act })
      | None ->
        (* Not locally navigable: bounce the route via the root's owner. *)
        Stats.tick (ctr t).Cluster.recover_via_root;
        let dst =
          match hint_of t pid store.Store.root with Some m -> m | None -> 0
        in
        send t ~src:pid ~dst
          (Msg.Route { key; level; node = store.Store.root; act })
    end

let start_route t ~origin msg =
  let store = Cluster.store t.cl origin in
  forward t origin ~authority:origin msg store.Store.root

module Core = Kernel_core.Make (struct
  type nonrec t = t

  let cluster = cluster
  let name = "Mobile"
  let chase_left = true
  let parent_hints = true
  let versioned_splits = true

  (* Weak: the Add_child can arrive after the child migrated. *)
  let learn_child = Store.learn_if_absent
  let authority pid (_ : Store.rcopy) = pid
  let forward = forward
  let start_route = start_route

  (* Every node is single-copy: a grown root and a split sibling stay on
     the splitting processor (§4.2). *)
  let root_members _ pid = [ pid ]
  let sibling_members _ pid _ _ = [ pid ]
end)

(* Splits fix the old right neighbor's left link (link-change, §4.2).
   The guide key is the sibling's high bound — the neighbor's low key —
   so the action lands on whoever covers that range now. *)
let rec maybe_split t pid (copy : Store.rcopy) =
  if Node.too_full ~capacity:(capacity t) copy.Store.node then begin
    Core.half_split t pid copy ~tell:(fun t pid _ s -> Core.relink_left t pid s);
    maybe_split t pid copy
  end

(* ------------------------------------------------------------------ *)
(* Performing actions                                                  *)

let which_to_action : link_tag -> _ = function
  | `Left -> `Left
  | `Right -> `Right
  | `Child c -> `Child c

let perform_relink t pid (copy : Store.rcopy) ~uid ~which ~target ~target_pid
    ~version =
  let n = copy.Store.node in
  let slot = (n.Node.id, (which : link_tag)) in
  let current = Option.value (Hashtbl.find_opt t.link_versions slot) ~default:(-1) in
  if target = n.Node.id then begin
    (* reclamation can collapse a chain of leaves into one node, routing a
       neighbor relink back to the absorber: vacuously satisfied *)
    Stats.tick (ctr t).Cluster.link_change_self_absorbed;
    Cluster.hist_record t.cl ~node:n.Node.id ~pid ~mode:Action.Initial
      ~effective:false ~version ~uid
      (Action.Link_change { which = which_to_action which; target })
  end
  else begin
  (* The ordered-history rule; the E12 ablation applies blindly. *)
  let effective = version > current || not (config t).Config.ordered_links in
  if effective then begin
    Hashtbl.replace t.link_versions slot version;
    let store = Cluster.store t.cl pid in
    (match which with
    | `Left -> n.Node.left <- Some target
    | `Right -> n.Node.right <- Some target
    | `Child _ -> ());
    Store.learn store target [ target_pid ]
  end
  else Stats.tick (ctr t).Cluster.link_change_absorbed;
  Cluster.hist_record t.cl ~node:n.Node.id ~pid ~mode:Action.Initial ~effective
    ~version ~uid
    (Action.Link_change { which = which_to_action which; target })
  end

(* dE-tree reclamation (§5 future work, single-copy case): an emptied
   leaf hands its range to its left neighbor and disappears.  The
   absorber fixes the right neighbor's left link and retires the parent
   entry; in-flight messages to the dead leaf recover via the departed
   mark and root restart. *)
let maybe_reclaim t pid (copy : Store.rcopy) =
  let n = copy.Store.node in
  let store = Cluster.store t.cl pid in
  if
    (config t).Config.reclaim_empty_leaves
    && Node.is_leaf n && Node.size n = 0
    && store.Store.root <> n.Node.id
  then
    match (n.Node.left, n.Node.low) with
    | Some lf, Bound.Key low ->
      let uid = Cluster.fresh_uid t.cl in
      Stats.tick (ctr t).Cluster.reclaim_count;
      Cluster.event t.cl ~pid Event.Reclaim ~a:n.Node.id ~b:lf;
      Store.remove store n.Node.id;
      Hashtbl.replace store.Store.departed n.Node.id ();
      Cluster.hist_retire t.cl ~node:n.Node.id ~pid;
      let dead_high_key =
        match n.Node.high with
        | Bound.Key h -> Some h
        | Bound.Pos_inf -> None
        | Bound.Neg_inf -> assert false
      in
      forward t pid ~authority:pid
        (Msg.Route
           {
             key = low - 1;
             level = 0;
             node = lf;
             act =
               Msg.Absorb
                 {
                   uid;
                   dead = n.Node.id;
                   dead_high_key;
                   dead_right = n.Node.right;
                   dead_version = n.Node.version;
                 };
           })
        lf
    | (Some _ | None), _ -> ()

let perform t pid (copy : Store.rcopy) ~key ~(act : Msg.routed) =
  match act with
  | Msg.Search _ | Msg.Scan _ ->
    invalid_arg "Mobile.perform: reads are answered by the core"
  | Msg.Update { uid; u } ->
    Core.apply_initial t pid copy ~key ~uid ~u;
    maybe_split t pid copy;
    (match u with
    | Msg.Remove _ -> maybe_reclaim t pid copy
    | Msg.Upsert _ | Msg.Add_child _ | Msg.Drop_child _ -> ())
  | Msg.Relink { uid; which; target; target_pid; version; relayed = _ } ->
    perform_relink t pid copy ~uid ~which ~target ~target_pid ~version
  | Msg.Absorb { uid; dead; dead_high_key; dead_right; dead_version } -> begin
    let n = copy.Store.node in
    let dead_low = key + 1 in
    (* only the node whose range ends exactly at the dead leaf's low bound
       may absorb; anything else means the chain already changed *)
    if not (Bound.equal n.Node.high (Bound.Key dead_low)) then
      Stats.tick (ctr t).Cluster.reclaim_absorb_stale
    else begin
      let dead_high =
        match dead_high_key with
        | Some h -> Bound.Key h
        | None -> Bound.Pos_inf
      in
      n.Node.high <- dead_high;
      n.Node.right <- dead_right;
      n.Node.version <- max n.Node.version dead_version + 1;
      Hashtbl.replace t.link_versions (n.Node.id, `Right) n.Node.version;
      Cluster.hist_record t.cl ~node:n.Node.id ~pid ~mode:Action.Initial
        ~version:n.Node.version ~uid
        (Action.Link_change
           { which = `Right; target = Option.value dead_right ~default:(-1) });
      Stats.tick (ctr t).Cluster.reclaim_absorbed;
      (* fix the right neighbor's left link *)
      (match (dead_right, dead_high_key) with
      | Some r, Some h ->
        Core.issue_relink t pid ~uid:(Cluster.fresh_uid t.cl) ~key:h ~level:0
          ~start:r ~which:`Left ~target:n.Node.id ~version:n.Node.version
      | (Some _ | None), _ -> ());
      (* retire the dead leaf's parent entry *)
      let uid' = Cluster.fresh_uid t.cl in
      let store = Cluster.store t.cl pid in
      forward t pid ~authority:pid
        (Msg.Route
           {
             key = dead_low;
             level = 1;
             node = store.Store.root;
             act =
               Msg.Update
                 {
                   uid = uid';
                   u =
                     Msg.Drop_child
                       { child = dead; fallback = n.Node.id; fallback_pid = pid };
                 };
           })
        store.Store.root
    end
  end

(* ------------------------------------------------------------------ *)
(* Migration (§4.2) and data balancing ([14])                          *)

(* Executed as a simulation event at the owner; any node but the root
   (which is pinned) may move. *)
let do_migrate t ~node ~to_pid =
  match Kernel_core.migration_owner t.cl ~node ~to_pid with
  | None -> ()
  | Some store when store.Store.root = node ->
    Stats.tick (ctr t).Cluster.migrate_skipped
  | Some store ->
    Kernel_core.ship t.cl store (Store.get store node) ~to_pid ~ancestors:[]

(* Install the moved node, link-change its neighbours and its parent to
   the new location, and re-run anything parked here for it. *)
let handle_migrate_install t pid ~snap =
  let node = Core.migrate_in t pid snap in
  let id = node.Node.id in
  (match node.Node.parent with
  | Some p ->
    Core.issue_relink t pid ~uid:(Cluster.fresh_uid t.cl)
      ~key:(Kernel_core.guide_key node) ~level:(node.Node.level + 1) ~start:p
      ~which:(`Child id) ~target:id ~version:node.Node.version
  | None -> ());
  Cluster.unpark t.cl ~pid ~node:id

let leaf_counts t = Kernel_core.leaf_counts t.cl

(* ------------------------------------------------------------------ *)
(* Message handler                                                     *)

let handle t pid ~src:_ msg =
  match msg with
  (* dbflow: class lazy -- single-copy nodes: routing needs no copy coordination, only forwarding (§4.2) *)
  | Msg.Route { key; level; node; act } ->
    Core.handle_route t pid ~key ~level ~node ~act ~perform ~miss:recover
  (* dbflow: class lazy -- completion funnel at the origin, independent of any copy's role *)
  | Msg.Op_done { op; result } -> Cluster.op_complete t.cl ~op ~result
  (* dbflow: class lazy -- a moved node installs wholesale; forwarding addresses cover the race (§4.2) *)
  | Msg.Migrate_install { snap; _ } -> handle_migrate_install t pid ~snap
  (* dbflow: class lazy -- root adoption: processors may learn the new root in any order (§4.3) *)
  | Msg.New_root { snap; members } -> Core.adopt_root t pid msg ~snap ~members
  | Msg.Batch _ | Msg.Relay_update _ | Msg.Split_start _ | Msg.Split_ack _
  | Msg.Split_done _ | Msg.Eager_update _ | Msg.Eager_split _ | Msg.Eager_ack _
  | Msg.Join_request _ | Msg.Join_copy _ | Msg.Relay_member _
  | Msg.Unjoin_request _ ->
    Fmt.failwith "Mobile: unexpected message %s" (Msg.kind msg)

(* ------------------------------------------------------------------ *)
(* Bootstrap and public API                                            *)

(* The initial tree: every node single-copy, the root pinned at
   processor 0 and each leaf at its slice's processor. *)
let bootstrap t =
  let cl = t.cl in
  let leaves, root = Kernel_core.initial_tree cl in
  let root_id = root.Node.id in
  List.iter (fun (_, (n : Msg.value Node.t)) -> n.Node.parent <- Some root_id) leaves;
  for pid = 0 to procs t - 1 do
    let store = Cluster.store cl pid in
    store.Store.root <- root_id;
    Store.learn store root_id [ 0 ];
    List.iter
      (fun (p, (node : Msg.value Node.t)) -> Store.learn store node.Node.id [ p ])
      leaves
  done;
  ignore
    (Store.install (Cluster.store cl 0) ~node:root ~pc:0 ~members:[ 0 ]);
  Cluster.hist_new_copy cl ~node:root_id ~pid:0 ~base:[];
  List.iter
    (fun (p, (node : Msg.value Node.t)) ->
      ignore (Store.install (Cluster.store cl p) ~node ~pc:p ~members:[ p ]);
      Cluster.hist_new_copy cl ~node:node.Node.id ~pid:p ~base:[])
    leaves

let create cfg =
  (* Migration clears the whole forwarding table in one swoop and moves
     copies between processors mid-flight; neither is journaled, so the
     mobile protocol cannot recover from a crash.  Reject the config
     rather than silently lose state. *)
  if cfg.Config.durability.Config.wal then
    invalid_arg "Mobile: durability.wal is not supported (migration state is not journaled)";
  if cfg.Config.faults.Dbtree_sim.Net.crash_at <> [] then
    invalid_arg "Mobile: faults.crash_at is not supported (no durable storage to recover from)";
  let cl = Cluster.create cfg in
  let t = { cl; link_versions = Hashtbl.create 256 } in
  for pid = 0 to cfg.Config.procs - 1 do
    Cluster.Network.set_handler cl.Cluster.net pid (fun ~src msg ->
        handle t pid ~src msg)
  done;
  bootstrap t;
  Kernel_core.start_balancer cl do_migrate t;
  t

let insert = Core.insert
let search = Core.search
let remove = Core.remove
let scan = Core.scan
let migrate t ~node ~to_pid = Kernel_core.schedule_migrate t.cl do_migrate t ~node ~to_pid

let gc_forwarding t =
  Array.iter
    (fun store -> Hashtbl.reset store.Store.forwarding)
    t.cl.Cluster.stores

let run ?max_events t = Cluster.run ?max_events t.cl

let api t =
  {
    Driver.insert = (fun ~origin k v -> insert t ~origin k v);
    Driver.search = (fun ~origin k -> search t ~origin k);
    Driver.remove = (fun ~origin k -> remove t ~origin k);
  }
