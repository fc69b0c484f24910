open Dbtree_sim
module Obs = Dbtree_obs.Obs
module Event = Dbtree_obs.Event
module Series = Dbtree_obs.Series
module Health = Dbtree_obs.Health
module Network = Net.Make (Msg)
module Registry = Dbtree_history.Registry
module Action = Dbtree_history.Action

(* Interned handles for every stat the protocol kernels bump from message
   handlers.  Resolved once per cluster so the hot loops never hash a
   string key; a handle a given protocol never bumps stays at 0 and is
   invisible in reports. *)
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
  (* Latency histograms (log-bucketed; see {!Stats.hist}).  Observed on
     every operation completion and at the end of every synchronous
     split's AAS window, whether or not tracing is on. *)
  aas_time : Stats.hist;
}

let make_counters stats =
  let c = Stats.counter stats in
  {
    route_hops = c "route.hops";
    route_chase = c "route.chase";
    route_up = c "route.up";
    route_parked = c "route.parked";
    route_lost_hint = c "route.lost_hint";
    split_count = c "split.count";
    split_blocked_updates = c "split.blocked_updates";
    split_dropped_entries = c "split.dropped_entries";
    root_grow = c "root.grow";
    eager_requeued = c "eager.requeued";
    relay_applied = c "relay.applied";
    relay_discarded = c "relay.discarded";
    relay_catchup = c "relay.catchup";
    relay_to_departed = c "relay.to_departed";
    naive_lost = c "naive.lost";
    semi_forwarded = c "semi.forwarded";
    link_change_absorbed = c "link_change.absorbed";
    link_change_self_absorbed = c "link_change.self_absorbed";
    migrate_count = c "migrate.count";
    migrate_skipped = c "migrate.skipped";
    join_count = c "join.count";
    join_requested = c "join.requested";
    join_duplicate = c "join.duplicate";
    join_already_member = c "join.already_member";
    unjoin_count = c "unjoin.count";
    unjoin_duplicate = c "unjoin.duplicate";
    recover_count = c "recover.count";
    recover_departed = c "recover.departed";
    recover_forwarded = c "recover.forwarded";
    recover_hinted = c "recover.hinted";
    recover_rerouted = c "recover.rerouted";
    recover_restart = c "recover.restart";
    recover_via_root = c "recover.via_root";
    reclaim_count = c "reclaim.count";
    reclaim_absorbed = c "reclaim.absorbed";
    reclaim_absorb_stale = c "reclaim.absorb_stale";
    reclaim_dropped = c "reclaim.dropped";
    reclaim_drop_stale = c "reclaim.drop_stale";
    route_no_members = c "route.no_members";
    recovery_replayed = c "recovery.replayed";
    recovery_rejoined = c "recovery.rejoined";
    aas_time = Stats.hist stats "split.aas_time";
  }

type t = {
  config : Config.t;
  sim : Sim.t;
  net : Network.t;
  stores : Store.t array;
  wals : Wal.t array;  (* per-processor journals; length 0 when WAL off *)
  ops : Opstate.t;
  hist : Registry.t;
  obs : Obs.t;
  telem : Telemetry.t;
  partition : Partition.t;
  ctr : counters;
  mutable next_node_id : int;
  mutable next_uid : int;
}

(* Default SLO thresholds for the standard health rules.  Deliberately
   conservative: a clean run (reliable transport, no fault injection)
   must not trip any of them — the alert tests gate exactly that. *)
let slo_p99_search = 5_000  (* ticks; windowed p99 ceiling *)
let slo_stall_age = 20_000  (* ticks an op may stay outstanding *)
let slo_retx_per_window = 24  (* retransmissions per scrape window *)
let slo_hottest_share = 75  (* percent of touches on one node *)

(* Register the cluster's whole observable surface on the telemetry
   plane: every interned stat counter, the per-processor and global
   gauges, and the standard SLO rules.  Runs once at creation, off the
   hot path; everything registered here is read-only at scrape time. *)
let wire_telemetry tm ~(config : Config.t) ~sim ~net ~stores ~wals ~ops =
  let series = Telemetry.series tm in
  let stats = Sim.stats sim in
  List.iter
    (fun (name, r) -> Series.counter series name r)
    (Stats.counter_handles stats);
  Series.gauge series "sim.queue_depth" (fun () -> Sim.pending sim);
  Series.gauge series "sim.overflow_depth" (fun () -> Sim.overflow_depth sim);
  Series.gauge series "ops.outstanding" (fun () -> Opstate.outstanding ops);
  Series.gauge series "ops.oldest_age" (fun () ->
      Opstate.oldest_outstanding_age ops ~now:(Sim.now sim));
  Series.gauge series "net.down_ticks" (fun () ->
      Network.longest_down net ~now:(Sim.now sim));
  let sum f =
    let acc = ref 0 in
    for pid = 0 to config.procs - 1 do
      acc := !acc + f pid
    done;
    !acc
  in
  Series.gauge series "net.inbox" (fun () ->
      sum (fun pid -> Network.in_flight net pid));
  Series.gauge series "net.retx_backlog" (fun () ->
      sum (fun pid -> Network.retx_backlog net pid));
  Series.gauge series "store.parked" (fun () ->
      sum (fun pid -> Store.parked_count stores.(pid)));
  if Array.length wals > 0 then
    Series.gauge series "wal.bytes" (fun () ->
        sum (fun pid -> Wal.bytes_total wals.(pid)));
  for pid = 0 to config.procs - 1 do
    (* dblint: allow interned-stats -- per-processor names are built once at creation, never on the message path *)
    Series.gauge series
      (Fmt.str "net.inbox.p%d" pid)
      (fun () -> Network.in_flight net pid);
    Series.gauge series
      (Fmt.str "net.retx_backlog.p%d" pid)
      (fun () -> Network.retx_backlog net pid);
    Series.gauge series
      (Fmt.str "store.parked.p%d" pid)
      (fun () -> Store.parked_count stores.(pid));
    if Array.length wals > 0 then
      Series.gauge series
        (Fmt.str "wal.bytes.p%d" pid)
        (fun () -> Wal.bytes_total wals.(pid))
  done;
  let health = Telemetry.health tm in
  Health.add_rule health ~name:"p99_search" ~severity:Health.Warn
    ~signal:(fun () ->
      Telemetry.percentile tm ~kind:Event.op_search ~now:(Sim.now sim) 99.0)
    ~threshold:slo_p99_search ();
  Health.add_rule health ~name:"stall_oldest_op" ~severity:Health.Crit
    ~signal:(fun () -> Opstate.oldest_outstanding_age ops ~now:(Sim.now sim))
    ~threshold:slo_stall_age ();
  (let retx = Stats.counter stats "net.rel.retx" in
   let prev = ref 0 in
   Health.add_rule health ~name:"retx_storm" ~severity:Health.Crit
     ~signal:(fun () ->
       let v = !retx in
       let d = v - !prev in
       prev := v;
       d)
     ~threshold:slo_retx_per_window ());
  (let restart = max 1 config.faults.Net.restart_delay in
   Health.add_rule health ~name:"recovery_slow" ~severity:Health.Warn
     ~signal:(fun () -> Network.longest_down net ~now:(Sim.now sim))
     ~threshold:(2 * restart) ());
  Health.add_rule health ~name:"hot_imbalance" ~severity:Health.Info
    ~signal:(fun () -> Telemetry.hottest_share_pct tm)
    ~threshold:slo_hottest_share ()

let create (config : Config.t) =
  (match Config.validate config with
  | Ok _ -> ()
  | Error e -> invalid_arg ("Cluster.create: " ^ e));
  let sim = Sim.create ~seed:config.seed () in
  let obs =
    Obs.create ~enabled:config.trace ~capacity:config.trace_capacity
      ~label:"dbtree" ()
  in
  Obs.set_msg_names obs Msg.kind_name;
  let net =
    Network.create ~latency:config.latency ~faults:config.faults
      ~transport:config.transport ~obs sim ~procs:config.procs
  in
  let stores =
    Array.init config.procs (fun pid -> Store.create ~pid ~root:(-1))
  in
  let wals =
    if config.durability.Config.wal then
      Array.init config.procs (fun pid ->
          let w =
            Wal.create ~pid
              ~snapshot_every:config.durability.Config.snapshot_every
          in
          Store.set_wal stores.(pid) w;
          w)
    else [||]
  in
  if Array.length wals > 0 then
    (* The transport's durability hooks all fire inside the simulation
       event performing the action, so a crash (between events) never
       sees a half-journaled channel. *)
    Network.set_persist net
      {
        Network.p_send = (fun ~src ~dst ~abs msg ->
            Wal.append wals.(src) (Wal.Send { dst; abs; msg }));
        p_retire = (fun ~src ~dst ~abs ->
            Wal.append wals.(src) (Wal.Retire { dst; abs }));
        p_deliver = (fun ~src ~dst ~abs ->
            Wal.append wals.(dst) (Wal.Deliver { src; abs }));
      };
  let ops = Opstate.create () in
  let ctr = make_counters (Sim.stats sim) in
  (* Telemetry joins the run like tracing does: through the config, or
     through the global force switch (`dbtree metrics`).  Wired after
     [make_counters] and [Network.create] so [Stats.counter_handles]
     covers every interned counter. *)
  let telem =
    let forced = Series.forced () in
    if not (config.telemetry || forced) then Telemetry.disabled
    else begin
      let every =
        if config.telemetry then config.telemetry_every
        else Series.forced_every ()
      in
      let tm =
        Telemetry.create ~every
          ~label:(Config.discipline_name config.discipline)
          ~obs ()
      in
      wire_telemetry tm ~config ~sim ~net ~stores ~wals ~ops;
      Telemetry.install tm sim;
      if forced then Series.note_registered (Telemetry.series tm);
      tm
    end
  in
  {
    config;
    sim;
    net;
    stores;
    wals;
    ops;
    hist = Registry.create ();
    obs;
    telem;
    partition =
      Partition.create ~procs:config.procs ~key_space:config.key_space;
    ctr;
    next_node_id = 0;
    next_uid = 0;
  }

let store t pid = t.stores.(pid)
let stats t = Sim.stats t.sim
let now t = Sim.now t.sim

let fresh_node_id t =
  let id = t.next_node_id in
  t.next_node_id <- id + 1;
  id

let recording t = t.config.record_history

let fresh_uid t =
  let uid =
    if recording t then Registry.fresh_uid t.hist
    else begin
      let u = t.next_uid in
      t.next_uid <- u + 1;
      u
    end
  in
  if recording t then Registry.note_issued t.hist uid;
  uid

let members_for_range t ~low ~high =
  match t.config.replication with
  | Config.All_procs -> List.init t.config.procs (fun i -> i)
  | Config.Path -> Partition.members_of_range t.partition ~low ~high

(* An empty member set is a typed error, not an exception: once the last
   copy-holder of a node can crash, a message computing a primary copy
   from a stale directory entry must be able to take the park path
   instead of tearing down the run. *)
type pc_error = Empty_members

let pc_of_members = function
  | [] -> Error Empty_members
  | pc :: _ -> Ok pc

(* For the construction and bootstrap sites whose member lists come from
   the partition (structurally nonempty): still a typed check, but a
   violated invariant is a bug worth crashing on. *)
let pc_of_members_exn members =
  match pc_of_members members with
  | Ok pc -> pc
  | Error Empty_members ->
    invalid_arg "Cluster.pc_of_members: empty member list"

let send t ~src ~dst msg = Network.send t.net ~src ~dst msg

(* ---- telemetry hooks (one branch each when the plane is off) ------- *)

let telemetry t = t.telem
let touch t ~node = Telemetry.touch t.telem ~node
let aas_begin t = Telemetry.aas_begin t.telem
let aas_end t = Telemetry.aas_end t.telem

(* ---- typed trace events ------------------------------------------- *)

let event t ~pid kind ~a ~b =
  ignore (Obs.emit_here t.obs ~time:(Sim.now t.sim) ~pid ~kind ~a ~b)

let op_kind_code = function
  | Opstate.Search -> Event.op_search
  | Opstate.Insert -> Event.op_insert
  | Opstate.Delete -> Event.op_delete
  | Opstate.Scan -> Event.op_scan

(* Record the issue of a client operation and make it the ambient causal
   context, so the route message the protocol sends next (and everything
   downstream of it) chains into this op's span. *)
let op_issue t (r : Opstate.record) =
  if Obs.on t.obs then begin
    let id =
      Obs.emit t.obs ~time:(Sim.now t.sim) ~pid:r.Opstate.origin
        ~op:r.Opstate.id ~parent:(-1) ~kind:Event.Op_issue
        ~a:(op_kind_code r.Opstate.kind) ~b:r.Opstate.key
    in
    Obs.set_context t.obs ~op:r.Opstate.id ~parent:id
  end

(* Completion funnel for every protocol: feeds the latency to the
   telemetry sketches and records [Op_complete] (only on the first
   completion — duplicate completions under fault injection are counted
   by [Opstate], not traced), then updates the op registry.  Protocols
   call this instead of [Opstate.complete] so the accounting cannot be
   bypassed. *)
let op_complete t ~op ~result =
  let now = Sim.now t.sim in
  (match Opstate.find t.ops op with
  | Some r when r.Opstate.completed_at = None ->
    let lat = now - r.Opstate.issued_at in
    Telemetry.observe_latency t.telem
      ~kind:(op_kind_code r.Opstate.kind)
      ~now lat;
    (* the acknowledged-op audit stream: E18's zero-lost-acks check
       compares these against the post-recovery tree *)
    if Array.length t.wals > 0 then
      Wal.append t.wals.(r.Opstate.origin) (Wal.Op_done { op });
    if Obs.on t.obs then
      ignore
        (Obs.emit t.obs ~time:now ~pid:r.Opstate.origin ~op
           ~parent:(Obs.cur_parent t.obs) ~kind:Event.Op_complete
           ~a:(op_kind_code r.Opstate.kind) ~b:lat)
  | Some _ | None -> ());
  Opstate.complete t.ops ~op ~result ~now

let hist_new_copy t ~node ~pid ~base =
  if recording t then
    Registry.new_copy t.hist ~node ~pid
      ~base:(Registry.Uid_set.of_list base)

let hist_record t ~node ~pid ?(effective = true) ~mode ?(version = 0) ~uid
    kind =
  if recording t then
    Registry.record t.hist ~node ~pid ~effective ~time:(Sim.now t.sim)
      { Action.uid; node; mode; kind; version }

let hist_snapshot t ~node ~pid =
  if recording t then
    Registry.Uid_set.elements (Registry.snapshot t.hist ~node ~pid)
  else []

let hist_retire t ~node ~pid =
  if recording t then Registry.retire_copy t.hist ~node ~pid

(* Park a message at a node this processor holds no copy of yet; it is
   re-sent locally by [unpark] once the copy is installed.  A
   [no_members] park is [pc_error] surfaced through the same path: the
   message waits for a copy that can name a primary, and
   [route.no_members] counts it instead of [route.parked]. *)
let park ?(no_members = false) t ~pid ~node msg =
  Stats.tick (if no_members then t.ctr.route_no_members else t.ctr.route_parked);
  event t ~pid Event.Park ~a:node ~b:(Msg.kind_id msg);
  Store.add_pending t.stores.(pid) node msg

let unpark t ~pid ~node =
  match Store.take_pending t.stores.(pid) node with
  | [] -> ()
  | pending ->
    event t ~pid Event.Unpark ~a:node ~b:(List.length pending);
    List.iter (fun msg -> send t ~src:pid ~dst:pid msg) pending

(* ------------------------------------------------------------------ *)
(* Crash / restart recovery                                            *)

let wal t pid = t.wals.(pid)

(* Rebuild a processor's store from its journal; returns (records,
   bytes) read.  Appends are refused for the duration so the mutations
   do not re-journal the facts they are reading. *)
let replay_wal t pid =
  let w = t.wals.(pid) in
  let store = t.stores.(pid) in
  let bytes = ref 0 in
  Wal.set_replaying w true;
  let n =
    Wal.replay w (fun r ->
        bytes := !bytes + Wal.record_size r;
        Store.apply_record store r)
  in
  Wal.set_replaying w false;
  (n, !bytes)

(* Wire the crash/restart machinery.  [rejoin] is the kernel's
   re-enrollment step, run after the replay and the durable-channel
   restore — for variable copies it is the §4.3 join path (one
   Join_request per recovered copy whose primary is elsewhere; the PC's
   version-stamped Join_copy delivers everything missed), for the
   fixed-copies family it is a no-op (the resumed reliable channels
   redeliver the missed relays).

   Both the Crash and the Restart event are emitted from this function's
   closures: dbflow pairs them as a span, so the analysis proves every
   crash reaches its restart. *)
let install_recovery t ~rejoin =
  Network.set_crash_hooks t.net
    ~on_crash:(fun pid ->
      event t ~pid Event.Crash ~a:(Network.generation t.net pid) ~b:0;
      Store.clear t.stores.(pid))
    ~on_restart:(fun pid ->
      event t ~pid Event.Restart ~a:(Network.generation t.net pid) ~b:0;
      let records, bytes = replay_wal t pid in
      Stats.add t.ctr.recovery_replayed records;
      event t ~pid Event.Replay ~a:records ~b:bytes;
      let outbound, sent, delivered = Wal.net_state t.wals.(pid) in
      Network.restore_proc t.net ~pid ~outbound ~sent ~delivered;
      rejoin pid)

(* The §4.3 rejoin step shared by kernels with a join protocol: ask the
   primary of every recovered copy for a fresh image.  The PC answers
   with a version-stamped [Join_copy]; per-channel FIFO makes it the
   last message on the channel, so the refreshed copy is current. *)
let rejoin_copies t pid =
  let store = t.stores.(pid) in
  Store.iter store (fun c ->
      let node = c.Store.node.Dbtree_blink.Node.id in
      let pc = c.Store.pc in
      if pc <> pid then begin
        Stats.tick t.ctr.recovery_rejoined;
        event t ~pid Event.Rejoin ~a:node ~b:pc;
        send t ~src:pid ~dst:pc (Msg.Join_request { node; requester = pid })
      end)

let run ?(max_events = 50_000_000) t =
  Sim.run ~max_events t.sim;
  (* quiescent: flush the final partial scrape window, close open alerts *)
  Telemetry.finish t.telem ~now:(Sim.now t.sim)
