(* One benchmark round: build the cluster, preload it, drive the measured
   closed loop to quiescence, then audit every output.

   An untraced round drains with [Cluster.run], exactly as
   [Driver.run_closed] does.  A traced round turns on [Config.trace] and
   drains with a [Sim.step] loop instead, timing every step and charging
   it to the message kinds whose [Msg_recv] events the step recorded; the
   [Driver.api] calls made inside a step are timed as its children.  All
   spans are taken from outside the program, around calls into its
   public functions. *)
open Dbtree_core
open Dbtree_sim
open Dbtree_obs
open Dbtree_workload

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable int vector, for latency and step-time samples. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let sorted v =
    let a = Array.sub v.a 0 v.n in
    Array.sort Int.compare a;
    a
end

(* Exact nearest-rank percentile, in per-mille: the sample at 1-based
   rank ceil(permille/1000 * n) of the sorted samples; 0 when there are
   none. *)
let nearest_rank sorted permille =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.(max 0 ((((permille * n) + 999) / 1000) - 1))

type kernel = { cl : Cluster.t; api : Driver.api }

let build (w : Spec.t) ~seed ~trace =
  let cfg = Spec.config w ~seed ~trace in
  match w.Spec.kernel with
  | Spec.Fixed _ ->
    let t = Fixed.create cfg in
    { cl = Fixed.cluster t; api = Driver.fixed_api t }
  | Spec.Variable ->
    let t = Variable.create cfg in
    { cl = Variable.cluster t; api = Variable.api t }

(* Install the closed loop over pre-generated per-processor arrays and
   prime [window] operations per processor, as [Driver.run_closed]
   does. *)
let start_loop (k : kernel) api (ops : Workload.op array array) ~window =
  let cursor = Array.make (Array.length ops) 0 in
  let issue origin =
    let mine = ops.(origin) in
    let i = cursor.(origin) in
    if i < Array.length mine then begin
      cursor.(origin) <- i + 1;
      Driver.issue api ~origin mine.(i)
    end
  in
  Opstate.on_complete k.cl.Cluster.ops (fun r -> issue r.Opstate.origin);
  for origin = 0 to Array.length ops - 1 do
    for _ = 1 to window do
      issue origin
    done
  done

let total ops = Array.fold_left (fun n a -> n + Array.length a) 0 ops

(* Cumulative counters, sampled before and after the measured phase. *)
let counter_names =
  [|
    "events"; "remote"; "local"; "bytes"; "retx"; "acks"; "dup_dropped";
    "reordered_held"; "route_hops"; "route_chase"; "route_parked"; "splits";
    "split_blocked_updates"; "aas_count"; "relay_applied"; "relay_discarded";
    "semi_forwarded"; "recover_count"; "migrations"; "joins"; "unjoins";
    "wal_records"; "wal_bytes"; "wal_snapshots";
  |]

let sample_counters (cl : Cluster.t) =
  let st = Sim.stats cl.Cluster.sim in
  let net = cl.Cluster.net in
  let c = cl.Cluster.ctr in
  let v = Stats.value in
  let wal f = Array.fold_left (fun n w -> n + f w) 0 cl.Cluster.wals in
  [|
    Sim.events_processed cl.Cluster.sim;
    Cluster.Network.remote_messages net;
    Cluster.Network.local_messages net;
    Cluster.Network.bytes_sent net;
    Stats.get st "net.rel.retx";
    Stats.get st "net.rel.acks";
    Stats.get st "net.rel.dup_dropped";
    Stats.get st "net.rel.reordered_held";
    v c.Cluster.route_hops;
    v c.Cluster.route_chase;
    v c.Cluster.route_parked;
    v c.Cluster.split_count;
    v c.Cluster.split_blocked_updates;
    Stats.hist_count c.Cluster.aas_time;
    v c.Cluster.relay_applied;
    v c.Cluster.relay_discarded;
    v c.Cluster.semi_forwarded;
    v c.Cluster.recover_count;
    v c.Cluster.migrate_count;
    v c.Cluster.join_count;
    v c.Cluster.unjoin_count;
    wal Wal.records_total;
    wal Wal.bytes_total;
    wal Wal.snapshots;
  |]

let inbound (cl : Cluster.t) =
  Array.init cl.Cluster.config.Config.procs (Cluster.Network.sent_to cl.Cluster.net)

(** What the traced drain measured; all zero in an untraced round. *)
type tally = {
  t_count : int array;  (** deliveries per [Msg.kind_id]; last slot = other steps *)
  t_busy_ns : float array;  (** step time charged per kind *)
  t_issue_ns : float array;  (** [Driver.api] time inside those steps *)
  t_steps : Vec.t;  (** every step's duration *)
  t_aas : Vec.t;  (** AAS hold durations, ticks *)
  mutable t_drain_ns : int;
  mutable t_prime_issue_ns : int;  (** [Driver.api] time while priming *)
  mutable t_issue_calls : int;
  mutable t_issue_total_ns : int;
}

let other = Msg.num_kinds
let kind_name kind = if kind = other then "other" else Msg.kind_name kind

let new_tally () =
  {
    t_count = Array.make (other + 1) 0;
    t_busy_ns = Array.make (other + 1) 0.0;
    t_issue_ns = Array.make (other + 1) 0.0;
    t_steps = Vec.create ();
    t_aas = Vec.create ();
    t_drain_ns = 0;
    t_prime_issue_ns = 0;
    t_issue_calls = 0;
    t_issue_total_ns = 0;
  }

(* Every [Driver.api] call of a traced round, timed. *)
let timed_api (api : Driver.api) ta =
  let time f =
    let t0 = now_ns () in
    let r = f () in
    ta.t_issue_total_ns <- ta.t_issue_total_ns + (now_ns () - t0);
    ta.t_issue_calls <- ta.t_issue_calls + 1;
    r
  in
  {
    Driver.insert = (fun ~origin k v -> time (fun () -> api.Driver.insert ~origin k v));
    search = (fun ~origin k -> time (fun () -> api.Driver.search ~origin k));
    remove = (fun ~origin k -> time (fun () -> api.Driver.remove ~origin k));
  }

(* Drain to quiescence one event at a time.  A step that delivered [n]
   messages is split evenly over their kinds; a step that delivered none
   (a timer, retransmission, pure ack or balancer tick) is charged to
   [other]. *)
let drain_traced (k : kernel) ta =
  let sim = k.cl.Cluster.sim and obs = k.cl.Cluster.obs in
  let seen = ref (Obs.length obs) in
  let kinds = Vec.create () in
  let d0 = now_ns () in
  let continue = ref true in
  while !continue do
    let issue0 = ta.t_issue_total_ns in
    let s0 = now_ns () in
    let more = Sim.step sim in
    let s1 = now_ns () in
    if more then begin
      let dt = s1 - s0 and issue = ta.t_issue_total_ns - issue0 in
      Vec.push ta.t_steps dt;
      kinds.Vec.n <- 0;
      let last = Obs.length obs in
      for id = !seen to last - 1 do
        match Obs.get obs id with
        | Some e when e.Obs.kind = Event.Msg_recv -> Vec.push kinds e.Obs.b
        | Some e when e.Obs.kind = Event.Aas_release -> Vec.push ta.t_aas e.Obs.b
        | Some _ | None -> ()
      done;
      seen := last;
      let charge kind share =
        ta.t_busy_ns.(kind) <- ta.t_busy_ns.(kind) +. (float_of_int dt *. share);
        ta.t_issue_ns.(kind) <- ta.t_issue_ns.(kind) +. (float_of_int issue *. share)
      in
      if kinds.Vec.n = 0 then begin
        ta.t_count.(other) <- ta.t_count.(other) + 1;
        charge other 1.0
      end
      else
        for i = 0 to kinds.Vec.n - 1 do
          let kind = kinds.Vec.a.(i) in
          ta.t_count.(kind) <- ta.t_count.(kind) + 1;
          charge kind (1.0 /. float_of_int kinds.Vec.n)
        done
    end
    else continue := false
  done;
  ta.t_drain_ns <- now_ns () - d0

(** One round's raw results. *)
type t = {
  marks : (string * int) list;
      (** host timestamps (ns, relative to the round's start) of each
          phase boundary, for the span file *)
  setup_ns : int;
  measure_ns : int;
  attempted : int;
  completed : int;
  ok : int;  (** measured ops completed with the right answer *)
  reads : int array;  (** sorted search latencies, ticks *)
  writes : int array;  (** sorted insert latencies, ticks *)
  sim_ticks : int;  (** measured start to last measured completion *)
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  deltas : int array;  (** [counter_names] over the measured phase *)
  hottest_inbound : float;  (** share of remote deliveries, % *)
  issued_total : int;
  completed_total : int;
  outstanding_end : int;
  store_nodes : int;
  store_copies : int;
  parked_end : int;
  wal_snapshot_bytes : int;
  verify_ok : bool;
  verify_ns : int;
  replay_ok : bool;
  replay_ns : int;
  replay_records : int;
  tally : tally;
}

(* Replay every processor's journal into a fresh store: its digest must
   equal the live store's (the recovery oracle of the test suite). *)
let replay_check (cl : Cluster.t) =
  let records = ref 0 and ok = ref true in
  Array.iteri
    (fun pid w ->
      let fresh = Store.create ~pid ~root:(-1) in
      Wal.set_replaying w true;
      records := !records + Wal.replay w (Store.apply_record fresh);
      Wal.set_replaying w false;
      if Store.digest (Cluster.store cl pid) <> Store.digest fresh then ok := false)
    cl.Cluster.wals;
  (!ok, !records)

let check_ops (ops : Opstate.t) ~first =
  let reads = Vec.create () and writes = Vec.create () in
  let ok = ref 0 and completed = ref 0 and last = ref 0 in
  Opstate.iter ops (fun r ->
      if r.Opstate.id >= first then
        match r.Opstate.completed_at with
        | None -> ()
        | Some at ->
          incr completed;
          last := max !last at;
          let lat = at - r.Opstate.issued_at in
          (match (r.Opstate.kind, r.Opstate.result) with
          | Opstate.Search, Some (Msg.Found v) when v = Workload.value_for r.Opstate.key ->
            incr ok;
            Vec.push reads lat
          | Opstate.Insert, Some Msg.Inserted ->
            incr ok;
            Vec.push writes lat
          | _ -> ()));
  (!ok, !completed, !last, Vec.sorted reads, Vec.sorted writes)

let run (w : Spec.t) (inputs : Spec.inputs) ~seed ~traced =
  let ta = new_tally () in
  let s0 = now_ns () in
  let k = build w ~seed ~trace:traced in
  let created = now_ns () in
  let cl = k.cl in
  let api = if traced then timed_api k.api ta else k.api in
  start_loop k api inputs.Spec.preload_ops ~window:w.Spec.window;
  let preload = total inputs.Spec.preload_ops in
  (* Set-up ends at the last preload completion, not at quiescence, so
     the variable kernel's balancer (which disarms itself once nothing
     else is pending) stays armed into the measured phase. *)
  while Opstate.completed cl.Cluster.ops < preload do
    if not (Sim.step cl.Cluster.sim) then failwith "preload stalled"
  done;
  let setup_ns = now_ns () - s0 in
  let first = Opstate.issued cl.Cluster.ops in
  let before = sample_counters cl and inbound0 = inbound cl in
  let start_tick = Cluster.now cl in
  let calls0 = ta.t_issue_calls and issue_ns0 = ta.t_issue_total_ns in
  let gc0 = Gc.quick_stat () in
  let minor0 = Gc.minor_words () in
  let m0 = now_ns () in
  start_loop k api inputs.Spec.measured_ops ~window:w.Spec.window;
  let m1 = now_ns () in
  ta.t_prime_issue_ns <- ta.t_issue_total_ns;
  if traced then drain_traced k ta;
  let drained = now_ns () in
  Cluster.run cl;
  let m2 = now_ns () in
  let minor1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  ta.t_prime_issue_ns <- ta.t_prime_issue_ns - issue_ns0;
  ta.t_issue_calls <- ta.t_issue_calls - calls0;
  ta.t_issue_total_ns <- ta.t_issue_total_ns - issue_ns0;
  let after = sample_counters cl and inbound1 = inbound cl in
  let deltas = Array.mapi (fun i a -> a - before.(i)) after in
  let ins = Array.mapi (fun i a -> a - inbound0.(i)) inbound1 in
  let ins_total = Array.fold_left ( + ) 0 ins in
  let ok, completed, last, reads, writes = check_ops cl.Cluster.ops ~first in
  let v0 = now_ns () in
  let report = Verify.check cl in
  let verify_ns = now_ns () - v0 in
  let r0 = now_ns () in
  let replay_ok, replay_records = replay_check cl in
  let r1 = now_ns () in
  let ops = cl.Cluster.ops in
  {
    marks =
      List.map
        (fun (name, t) -> (name, t - s0))
        [
          ("created", created); ("setup_end", s0 + setup_ns); ("measure_start", m0);
          ("primed", m1); ("drained", drained); ("measure_end", m2);
          ("verify_start", v0); ("verify_end", v0 + verify_ns);
          ("replay_start", r0); ("replay_end", r1);
        ];
    setup_ns;
    measure_ns = m2 - m0;
    attempted = total inputs.Spec.measured_ops;
    completed;
    ok;
    reads;
    writes;
    sim_ticks = last - start_tick;
    minor_words = minor1 -. minor0;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    deltas;
    hottest_inbound =
      100.0 *. float_of_int (Array.fold_left max 0 ins)
      /. float_of_int (max 1 ins_total);
    issued_total = Opstate.issued ops;
    completed_total = Opstate.completed ops;
    outstanding_end = Opstate.outstanding ops;
    store_nodes = report.Verify.nodes;
    store_copies =
      Array.fold_left (fun n s -> n + Store.copy_count s) 0 cl.Cluster.stores;
    parked_end =
      Array.fold_left (fun n s -> n + Store.parked_count s) 0 cl.Cluster.stores;
    wal_snapshot_bytes =
      Array.fold_left (fun n w -> n + Wal.snapshot_bytes w) 0 cl.Cluster.wals;
    verify_ok = Verify.ok report;
    verify_ns;
    replay_ok;
    replay_ns = r1 - r0;
    replay_records;
    tally = ta;
  }

let delta r name =
  let rec find i =
    if i = Array.length counter_names then invalid_arg name
    else if counter_names.(i) = name then r.deltas.(i)
    else find (i + 1)
  in
  find 0
