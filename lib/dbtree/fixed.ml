open Dbtree_blink
open Dbtree_sim
module Action = Dbtree_history.Action
module Event = Dbtree_obs.Event

type t = {
  cl : Cluster.t;
  (* Relay piggybacking (E9): per (src, dst) buffers of lazy relays.
     [relay_cnt] caches each buffer's length so the batch-full test is a
     load, not a list walk per relay. *)
  relay_buf : Msg.t list array;
  relay_cnt : int array;
  buf_scheduled : bool array;
  (* AAS start times, for blocked-time accounting, keyed by the packed
     pair [node * procs + pid] (no tuple allocation per probe). *)
  aas_since : (int, int) Hashtbl.t;
}

let cluster t = t.cl
let config t = t.cl.Cluster.config
let splits t = Stats.value t.cl.Cluster.ctr.Cluster.split_count
let disc t = (config t).Config.discipline
let capacity t = (config t).Config.capacity
let procs t = (config t).Config.procs
let ctr t = t.cl.Cluster.ctr
let all_procs t = List.init (procs t) (fun i -> i)

let root_members t =
  if (config t).Config.single_copy_root then [ 0 ] else all_procs t

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)

let send t ~src ~dst msg = Cluster.send t.cl ~src ~dst msg
let send_local t pid msg = send t ~src:pid ~dst:pid msg
let buf_index t src dst = (src * procs t) + dst

let flush_relays t src dst =
  let i = buf_index t src dst in
  match t.relay_buf.(i) with
  | [] -> t.buf_scheduled.(i) <- false
  | msgs ->
    t.relay_buf.(i) <- [];
    t.relay_cnt.(i) <- 0;
    t.buf_scheduled.(i) <- false;
    send t ~src ~dst (Msg.batch (List.rev msgs))

(* Lazy relays may be piggybacked / batched (§1.1); everything else is
   sent directly. *)
let send_relay t ~src ~dst msg =
  let cfg = config t in
  if cfg.Config.relay_batch <= 1 || src = dst then send t ~src ~dst msg
  else begin
    let i = buf_index t src dst in
    t.relay_buf.(i) <- msg :: t.relay_buf.(i);
    t.relay_cnt.(i) <- t.relay_cnt.(i) + 1;
    if t.relay_cnt.(i) >= cfg.Config.relay_batch then flush_relays t src dst
    else if not t.buf_scheduled.(i) then begin
      t.buf_scheduled.(i) <- true;
      Sim.schedule t.cl.Cluster.sim ~delay:cfg.Config.relay_flush_delay
        (fun () -> flush_relays t src dst)
    end
  end

let find t pid node = Store.find (Cluster.store t.cl pid) node

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)

(* Forward a routed action towards node [next]: locally when we hold a
   copy, otherwise to some member (any copy will do — that is the lazy
   win; the eager redirect to the PC happens at the target node). *)
let forward t pid ~authority msg next =
  let store = Cluster.store t.cl pid in
  Stats.tick (ctr t).Cluster.route_hops;
  if Store.mem store next then send_local t pid msg
  else
    match Store.members_opt store next with
    | Some members -> send t ~src:pid ~dst:(Kernel_core.choose_member t.cl members) msg
    | None when (config t).Config.transport <> Dbtree_sim.Net.Reliable ->
      (* Over the raw transport the relay carrying this hint may be lost
         outright, not merely late; recovering would absorb a violated
         delivery assumption.  Keep the strict lookup so E14's raw rows
         surface the broken invariant loudly. *)
      send t ~src:pid
        ~dst:(Kernel_core.choose_member t.cl (Store.members_of store next))
        msg
    | None -> Kernel_core.unknown_location t.cl pid ~name:"Fixed" ~authority msg

let start_route t ~origin msg =
  let store = Cluster.store t.cl origin in
  let root = store.Store.root in
  if Store.mem store root then send_local t origin msg
  else
    send t ~src:origin
      ~dst:(Kernel_core.choose_member t.cl (Store.members_of store root))
      msg

(* ------------------------------------------------------------------ *)
(* Splits                                                              *)

(* A new sibling's copy set: the replication policy's choice for its
   range, clamped to the split node's own member set — copies can only be
   created where the split is relayed.  (The clamp matters under the
   single-copy-root ablation, whose root pieces must stay unreplicated.) *)
let sibling_members_for t (copy : Store.rcopy) (sib : Msg.value Node.t) =
  let policy =
    Cluster.members_for_range t.cl ~low:sib.Node.low ~high:sib.Node.high
  in
  match List.filter (fun m -> List.mem m copy.Store.members) policy with
  | [] -> [ copy.Store.pc ]
  | members -> members

module Core = Kernel_core.Make (struct
  type nonrec t = t

  let cluster = cluster
  let name = "Fixed"
  let chase_left = false
  let parent_hints = false
  let versioned_splits = false

  (* Strong: every applied Add_child journals its location fact. *)
  let learn_child = Store.learn
  let authority _ (copy : Store.rcopy) = copy.Store.pc
  let forward = forward
  let start_route = start_route
  let root_members t _ = root_members t
  let sibling_members t _ = sibling_members_for t
end)

let rec maybe_split t pid (copy : Store.rcopy) =
  if
    pid = copy.Store.pc
    && (not copy.Store.splitting)
    && Node.too_full ~capacity:(capacity t) copy.Store.node
  then begin
    match disc t with
    | Config.Semi | Config.Naive -> do_split t pid copy
    | Config.Sync -> begin
      copy.Store.splitting <- true;
      Hashtbl.replace t.aas_since
        ((copy.Store.node.Node.id * procs t) + pid)
        (Cluster.now t.cl);
      Cluster.aas_begin t.cl;
      match Kernel_core.others pid copy.Store.members with
      | [] ->
        do_split t pid copy;
        end_aas t pid copy
      | others ->
        copy.Store.acks_pending <- List.length others;
        List.iter
          (fun m ->
            send t ~src:pid ~dst:m
              (Msg.Split_start { node = copy.Store.node.Node.id }))
          others
    end
    | Config.Eager ->
      Queue.add Store.Eager_split copy.Store.eager_queue;
      pump_eager t pid copy
  end

(* Clear the AAS on a copy and re-run the initial updates it blocked. *)
and end_aas t pid (copy : Store.rcopy) =
  copy.Store.splitting <- false;
  let aas_key = (copy.Store.node.Node.id * procs t) + pid in
  (match Hashtbl.find_opt t.aas_since aas_key with
  | Some since ->
    Hashtbl.remove t.aas_since aas_key;
    Cluster.aas_end t.cl;
    let dur = Cluster.now t.cl - since in
    Stats.hist_observe (ctr t).Cluster.aas_time dur;
    Cluster.event t.cl ~pid Event.Aas_release ~a:copy.Store.node.Node.id
      ~b:dur
  | None -> ());
  let blocked = List.rev copy.Store.blocked in
  copy.Store.blocked <- [];
  List.iter (send_local t pid) blocked

and do_split t pid copy = Core.half_split t pid copy ~tell:tell_split

(* The other copies learn of the PC's half-split by a lazy Split_done,
   or by an eager round the PC holds until every copy acks. *)
and tell_split t pid (copy : Store.rcopy) (s : Kernel_core.split) =
  match disc t with
  | Config.Eager ->
    eager_round t pid copy Store.Eager_split
      (Msg.Eager_split
         {
           uid = s.uid;
           node = copy.Store.node.Node.id;
           sep = s.sep;
           sibling = s.snap;
           sibling_members = s.members;
         })
  | Config.Sync | Config.Semi | Config.Naive ->
    Core.relay_split t pid copy s ~sync:(disc t = Config.Sync)

(* ------------------------------------------------------------------ *)
(* The eager (vigorous) baseline: updates are serialized through the   *)
(* primary copy and acknowledged by every copy before completing.      *)

(* Run [job] at the other copies via [msg]; the PC holds the copy busy
   until all of them ack. *)
and eager_round t pid (copy : Store.rcopy) job msg =
  match Kernel_core.others pid copy.Store.members with
  | [] -> finish_eager t pid copy job
  | others ->
    copy.Store.eager_busy <- true;
    copy.Store.eager_current <- Some job;
    copy.Store.eager_acks <- List.length others;
    List.iter (fun m -> send t ~src:pid ~dst:m msg) others

and pump_eager t pid (copy : Store.rcopy) =
  if not copy.Store.eager_busy then
    match Queue.take_opt copy.Store.eager_queue with
    | None -> ()
    | Some (Store.Eager_apply { uid; key; u; _ })
      when not (Node.in_range copy.Store.node key) ->
      (* A split executed from this queue moved the range past [key] while
         the update waited: re-route it to the right sibling. *)
      Stats.tick (ctr t).Cluster.eager_requeued;
      Core.reissue_right t pid copy ~key ~uid ~u;
      pump_eager t pid copy
    | Some (Store.Eager_apply ({ uid; key; u; _ } as job)) ->
      let node_id = copy.Store.node.Node.id in
      job.reply <- Core.apply_update t pid copy key u;
      Cluster.hist_record t.cl ~node:node_id ~pid ~mode:Action.Initial ~uid
        (Kernel_core.action_kind key u);
      eager_round t pid copy (Store.Eager_apply job)
        (Msg.Eager_update { uid; node = node_id; key; u })
    | Some Store.Eager_split ->
      if Node.too_full ~capacity:(capacity t) copy.Store.node then
        do_split t pid copy
      else pump_eager t pid copy

and finish_eager t pid (copy : Store.rcopy) job =
  (match job with
  | Store.Eager_apply { reply = Some (op, result); _ } ->
    Kernel_core.reply_op t.cl ~src:pid op result
  | Store.Eager_apply { reply = None; _ } | Store.Eager_split -> ());
  copy.Store.eager_busy <- false;
  copy.Store.eager_current <- None;
  if Node.too_full ~capacity:(capacity t) copy.Store.node then
    Queue.add Store.Eager_split copy.Store.eager_queue;
  pump_eager t pid copy

(* ------------------------------------------------------------------ *)
(* Performing routed actions at their target node                      *)

(* An initial update action arriving at a copy of its target node. *)
let perform_update t pid (copy : Store.rcopy) ~key ~uid ~(u : Msg.update) =
  let node_id = copy.Store.node.Node.id in
  match disc t with
  | Config.Eager ->
    if pid <> copy.Store.pc then
      (* vigorous rule: initial updates execute at the primary copy *)
      send t ~src:pid ~dst:copy.Store.pc
        (Msg.Route
           {
             key;
             level = copy.Store.node.Node.level;
             node = node_id;
             act = Msg.Update { uid; u };
           })
    else begin
      Queue.add (Store.Eager_apply { uid; key; u; reply = None })
        copy.Store.eager_queue;
      pump_eager t pid copy
    end
  | Config.Sync when copy.Store.splitting ->
    (* the AAS blocks initial updates (never searches or relays) *)
    Stats.tick (ctr t).Cluster.split_blocked_updates;
    Cluster.event t.cl ~pid Event.Aas_block ~a:node_id
      ~b:
        (match u with
        | Msg.Upsert _ -> Event.op_insert
        | Msg.Remove _ -> Event.op_delete
        | Msg.Add_child _ | Msg.Drop_child _ -> -1);
    copy.Store.blocked <-
      Msg.Route
        {
          key;
          level = copy.Store.node.Node.level;
          node = node_id;
          act = Msg.Update { uid; u };
        }
      :: copy.Store.blocked
  | Config.Sync | Config.Semi | Config.Naive ->
    Core.apply_initial t pid copy ~key ~uid ~u;
    Core.relay_initial t pid copy ~key ~uid ~u ~relay:send_relay;
    maybe_split t pid copy

let perform t pid (copy : Store.rcopy) ~key ~(act : Msg.routed) =
  match act with
  | Msg.Update { uid; u } -> perform_update t pid copy ~key ~uid ~u
  | Msg.Relink _ | Msg.Absorb _ ->
    Fmt.failwith "Fixed: link-change/absorb actions are a mobile feature"
  | Msg.Search _ | Msg.Scan _ ->
    invalid_arg "Fixed.perform: reads are answered by the core"

(* ------------------------------------------------------------------ *)
(* Message handlers                                                    *)

(* A route for a node with no copy here.  Over the reliable transport a
   known location means an authority fallback or stale hint landed it
   here: pass it on to a member.  Otherwise the copy is not installed
   yet (e.g. a sibling whose Split_done is still in flight): park the
   action until it is. *)
let route_miss t pid ~key ~level ~node ~act =
  let msg = Msg.Route { key; level; node; act } in
  if
    not
      ((config t).Config.transport = Dbtree_sim.Net.Reliable
      && Kernel_core.pass_to_member t.cl pid msg ~node)
  then Cluster.park t.cl ~pid ~node msg

let handle_relay t pid ~uid ~node ~key ~u =
  match find t pid node with
  | None ->
    Cluster.park t.cl ~pid ~node
      (Msg.Relay_update { uid; node; key; u; version = 0; sender = pid })
  | Some copy ->
    Cluster.touch t.cl ~node;
    if Core.apply_relayed t pid copy ~key ~uid ~u then begin
      Cluster.event t.cl ~pid Event.Relay ~a:node ~b:Event.relay_applied;
      maybe_split t pid copy
    end
    else begin
      (* Out of range: the copy has already split past this key.  Even a
         stale Add_child still carries a valid location fact, and it may
         be the only carrier: under relay batching the Split_done that
         moved this copy's range travels directly while the Add_child
         relay waits in the batch buffer, so the sibling snapshot can
         reference a child this processor would otherwise never learn a
         location for.  Harvest it before deciding the entry's fate. *)
      (match u with
      | Msg.Add_child { child; child_members } ->
        Store.learn_if_absent (Cluster.store t.cl pid) child child_members
      | Msg.Upsert _ | Msg.Remove _ | Msg.Drop_child _ -> ());
      Cluster.hist_record t.cl ~node ~pid ~mode:Action.Relayed
        ~effective:false ~uid (Kernel_core.action_kind key u);
      match disc t with
      | Config.Sync ->
        (* safe: the AAS ordering guarantees the PC applied this update
           before splitting, so the sibling's original value covers it *)
        Stats.tick (ctr t).Cluster.relay_discarded;
        Cluster.event t.cl ~pid Event.Relay ~a:node ~b:Event.relay_discarded
      | Config.Naive ->
        Stats.tick (ctr t).Cluster.relay_discarded;
        Cluster.event t.cl ~pid Event.Relay ~a:node ~b:Event.relay_discarded;
        if pid = copy.Store.pc then Stats.tick (ctr t).Cluster.naive_lost
      | Config.Semi ->
        if pid <> copy.Store.pc then begin
          Stats.tick (ctr t).Cluster.relay_discarded;
          Cluster.event t.cl ~pid Event.Relay ~a:node ~b:Event.relay_discarded
        end
        else begin
          (* §4.1.2 history rewriting: the relayed update is moved before
             the split, whose subsequent-action set is amended to forward
             the key to the new sibling — i.e. re-issue it as an initial
             update routed right. *)
          Stats.tick (ctr t).Cluster.semi_forwarded;
          Cluster.event t.cl ~pid Event.Relay ~a:node ~b:Event.relay_forwarded;
          Core.reissue_right t pid copy ~key ~uid:(Cluster.fresh_uid t.cl) ~u
        end
      | Config.Eager ->
        Fmt.failwith "Fixed: relay received under the eager discipline"
    end

let rec handle t pid ~src msg =
  match msg with
  (* dbflow: class lazy -- piggyback container: each part re-enters dispatch under its own class *)
  | Msg.Batch b -> List.iter (handle t pid ~src) b.Msg.parts
  (* dbflow: class semi -- routing parks on the owning copy and update actions are PC-coordinated (§4.1) *)
  | Msg.Route { key; level; node; act } ->
    Core.handle_route t pid ~key ~level ~node ~act ~perform ~miss:route_miss
  (* dbflow: class lazy -- completion funnel at the origin, independent of any copy's role *)
  | Msg.Op_done { op; result } -> Cluster.op_complete t.cl ~op ~result
  (* dbflow: class semi -- relayed updates are version-ordered per node, discipline-gated at the PC (§3.2) *)
  | Msg.Relay_update { uid; node; key; u; version = _; sender = _ } ->
    handle_relay t pid ~uid ~node ~key ~u
  (* dbflow: class sync -- AAS enrolment: marks the copy splitting and blocks initial updates (§4.1.1) *)
  | Msg.Split_start { node } -> begin
    match find t pid node with
    | None -> Cluster.park t.cl ~pid ~node msg
    | Some copy ->
      copy.Store.splitting <- true;
      Hashtbl.replace t.aas_since ((node * procs t) + pid) (Cluster.now t.cl);
      Cluster.aas_begin t.cl;
      send t ~src:pid ~dst:src (Msg.Split_ack { node })
  end
  (* dbflow: class sync -- AAS quorum ack: the synchronous split proceeds only once every member enrolled (§4.1.1) *)
  | Msg.Split_ack { node } ->
    let copy = Store.get (Cluster.store t.cl pid) node in
    copy.Store.acks_pending <- copy.Store.acks_pending - 1;
    if copy.Store.acks_pending = 0 then begin
      do_split t pid copy;
      end_aas t pid copy;
      maybe_split t pid copy
    end
  (* dbflow: class semi -- remote half-split apply, ordered by node version against relays (§4.1) *)
  | Msg.Split_done { uid; node; sep; sibling; sibling_members; sync } -> begin
    match find t pid node with
    | None -> Cluster.park t.cl ~pid ~node msg
    | Some copy ->
      Core.apply_remote_split t pid copy ~uid ~sep ~sibling ~sibling_members;
      if sync then end_aas t pid copy
  end
  (* dbflow: class lazy -- root adoption is monotone on level, so copies may learn it in any order (§4.3) *)
  | Msg.New_root { snap; members } -> Core.adopt_root t pid msg ~snap ~members
  (* dbflow: class semi -- eager discipline round: apply then ack to the coordinating PC (E8 baseline) *)
  | Msg.Eager_update { uid; node; key; u } -> begin
    match find t pid node with
    | None -> Cluster.park t.cl ~pid ~node msg
    | Some copy ->
      ignore (Core.apply_update t pid copy key u);
      Cluster.hist_record t.cl ~node ~pid ~mode:Action.Relayed ~uid
        (Kernel_core.action_kind key u);
      send t ~src:pid ~dst:src (Msg.Eager_ack { node })
  end
  (* dbflow: class semi -- eager discipline split apply, acked to the coordinating PC (E8 baseline) *)
  | Msg.Eager_split { uid; node; sep; sibling; sibling_members } -> begin
    match find t pid node with
    | None -> Cluster.park t.cl ~pid ~node msg
    | Some copy ->
      Core.apply_remote_split t pid copy ~uid ~sep ~sibling ~sibling_members;
      send t ~src:pid ~dst:src (Msg.Eager_ack { node })
  end
  (* dbflow: class semi -- eager round completion: the PC releases the held update at quorum (E8 baseline) *)
  | Msg.Eager_ack { node } ->
    let copy = Store.get (Cluster.store t.cl pid) node in
    copy.Store.eager_acks <- copy.Store.eager_acks - 1;
    if copy.Store.eager_acks = 0 then begin
      match copy.Store.eager_current with
      | Some job -> finish_eager t pid copy job
      | None -> Fmt.failwith "Fixed: eager ack with no job in flight"
    end
  | Msg.Migrate_install _ | Msg.Join_request _ | Msg.Join_copy _
  | Msg.Relay_member _ | Msg.Unjoin_request _ ->
    Fmt.failwith "Fixed: unexpected message %s" (Msg.kind msg)

(* ------------------------------------------------------------------ *)
(* Bootstrap                                                           *)

(* The initial tree: the root's copies per [root_members], each leaf's
   per the replication policy for its slice. *)
let bootstrap t =
  let cl = t.cl in
  let leaves, root = Kernel_core.initial_tree cl in
  let place store (node : Msg.value Node.t) members =
    Store.learn store node.Node.id members;
    if List.mem store.Store.pid members then begin
      ignore
        (Store.install store ~node:(Node.clone node)
           ~pc:(Cluster.pc_of_members_exn members)
           ~members);
      Cluster.hist_new_copy cl ~node:node.Node.id ~pid:store.Store.pid ~base:[]
    end
  in
  for pid = 0 to procs t - 1 do
    let store = Cluster.store cl pid in
    Store.set_root store root.Node.id;
    place store root (root_members t);
    List.iter
      (fun (_, (node : Msg.value Node.t)) ->
        place store node
          (Cluster.members_for_range cl ~low:node.Node.low ~high:node.Node.high))
      leaves
  done

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)

let create cfg =
  let cl = Cluster.create cfg in
  let t =
    {
      cl;
      relay_buf = Array.make (cfg.Config.procs * cfg.Config.procs) [];
      relay_cnt = Array.make (cfg.Config.procs * cfg.Config.procs) 0;
      buf_scheduled = Array.make (cfg.Config.procs * cfg.Config.procs) false;
      aas_since = Hashtbl.create 16;
    }
  in
  for pid = 0 to cfg.Config.procs - 1 do
    Cluster.Network.set_handler cl.Cluster.net pid (fun ~src msg ->
        handle t pid ~src msg)
  done;
  (* Fixed copies need no rejoin protocol: the member set of every node
     is static, so after the WAL replay the resumed reliable channels
     redeliver whatever relays the crashed processor missed. *)
  if cfg.Config.durability.Config.wal then
    Cluster.install_recovery cl ~rejoin:(fun _pid -> ());
  bootstrap t;
  t

let insert = Core.insert
let search = Core.search
let remove = Core.remove
let scan = Core.scan
let run ?max_events t = Cluster.run ?max_events t.cl
