(* Crash/restart recovery over the per-processor WAL (see Wal, and the
   crash machinery in Net): a scheduled crash drops a processor's
   volatile state, recovery replays its journal and resumes the reliable
   channels, and nothing acknowledged is ever lost.  First the transport
   layer alone with a toy durable journal, then the kernels end-to-end
   with the §3 audits and a store-digest replay oracle. *)
open Dbtree_sim
open Dbtree_core

module TestMsg = struct
  type t = int

  let kind _ = "int"
  let size _ = 8
  let kind_id _ = 0
  let num_kinds = 1
  let kind_name _ = "int"
end

module TN = Net.Make (TestMsg)

(* ------------------------------------------------------------------ *)
(* Transport level                                                     *)

(* Satellite regression: while a peer is down, no retransmission timer
   aimed at it may fire — the crash bumps the channel generation and
   disarms the timers, and transmissions are suppressed until restart.
   The pre-fix behavior retransmitted into the void on every backoff. *)
let test_retx_frozen_while_down () =
  let sim = Sim.create ~seed:5 () in
  let faults =
    {
      Net.no_faults with
      Net.drop_prob = 0.4;
      delay_prob = 0.3;
      delay_ticks = 300;
      crash_at = [ (1, 300) ];
      restart_delay = 400;
    }
  in
  let net = TN.create ~faults ~transport:Net.Reliable sim ~procs:2 in
  let received = ref [] in
  TN.set_handler net 0 (fun ~src:_ _ -> ());
  TN.set_handler net 1 (fun ~src:_ v -> received := v :: !received);
  for i = 1 to 60 do
    TN.send net ~src:0 ~dst:1 i
  done;
  let stats = Sim.stats sim in
  let retx () = Stats.get stats "net.rel.retx" in
  let down_retx = ref 0 in
  let prev = ref 0 in
  while Sim.step sim do
    let r = retx () in
    if TN.is_down net 1 && r > !prev then down_retx := !down_retx + r - !prev;
    prev := r
  done;
  Alcotest.(check int) "no retransmission fired at the dead peer" 0 !down_retx;
  Alcotest.(check int) "crash happened" 1 (Stats.get stats "net.crash.count");
  (* Delayed copies of pre-crash frames arrive after the restart carrying
     the dead incarnation's epoch: dropped as stale, never delivered. *)
  Alcotest.(check bool) "stale frames dropped" true
    (Stats.get stats "net.crash.stale_dropped" > 0);
  (* Without a durable journal the unacked window is replayed from seq 0,
     so every payload still arrives at least once. *)
  let seen = List.sort_uniq compare !received in
  Alcotest.(check (list int)) "every payload delivered" (List.init 60 (fun i -> i + 1)) seen

(* With a durable journal (the persist hooks backed by a toy in-memory
   "disk") exactly-once in-order delivery survives the crash in both
   directions: the restarted processor's unretired sends are re-queued
   from its journal, and its journaled delivered counts dedup the peers'
   go-back-N resends. *)
let test_durable_exactly_once_across_crash () =
  let sim = Sim.create ~seed:11 () in
  let faults =
    {
      Net.drop_prob = 0.3;
      duplicate_prob = 0.2;
      delay_prob = 0.2;
      delay_ticks = 150;
      crash_at = [ (1, 350) ];
      restart_delay = 120;
    }
  in
  let net = TN.create ~faults ~transport:Net.Reliable sim ~procs:2 in
  (* toy journal: per (src, dst) the unretired sends (newest first), the
     send high-water, and per (dst, src) the delivered count *)
  let out = Array.init 2 (fun _ -> Array.make 2 []) in
  let hi = Array.make_matrix 2 2 0 in
  let del = Array.make_matrix 2 2 0 in
  TN.set_persist net
    {
      TN.p_send =
        (fun ~src ~dst ~abs m ->
          out.(src).(dst) <- (abs, m) :: out.(src).(dst);
          hi.(src).(dst) <- abs + 1);
      p_retire =
        (fun ~src ~dst ~abs ->
          out.(src).(dst) <- List.filter (fun (a, _) -> a <> abs) out.(src).(dst));
      p_deliver = (fun ~src ~dst ~abs -> del.(dst).(src) <- abs + 1);
    };
  TN.set_crash_hooks net
    ~on_crash:(fun _ -> ())
    ~on_restart:(fun p ->
      TN.restore_proc net ~pid:p
        ~outbound:(List.init 2 (fun d -> (d, List.rev out.(p).(d))))
        ~sent:(List.init 2 (fun d -> (d, hi.(p).(d))))
        ~delivered:(List.init 2 (fun s -> (s, del.(p).(s)))));
  let got = Array.make 2 [] in
  TN.set_handler net 0 (fun ~src:_ v -> got.(0) <- v :: got.(0));
  TN.set_handler net 1 (fun ~src:_ v -> got.(1) <- v :: got.(1));
  for i = 1 to 80 do
    TN.send net ~src:0 ~dst:1 i;
    TN.send net ~src:1 ~dst:0 (1000 + i)
  done;
  Sim.run sim;
  Alcotest.(check (list int))
    "crashed receiver: exactly once, in order"
    (List.init 80 (fun i -> i + 1))
    (List.rev got.(1));
  Alcotest.(check (list int))
    "crashed sender: exactly once, in order"
    (List.init 80 (fun i -> 1001 + i))
    (List.rev got.(0))

(* ------------------------------------------------------------------ *)
(* Typed empty-member errors (satellite)                               *)

let test_pc_of_members_errors () =
  Alcotest.(check bool) "empty member list is a typed error" true
    (Cluster.pc_of_members [] = Error Cluster.Empty_members);
  Alcotest.(check bool) "nonempty member list" true
    (Cluster.pc_of_members [ 3; 1 ] = Ok 3);
  Alcotest.check_raises "exn variant names the function"
    (Invalid_argument "Cluster.pc_of_members: empty member list") (fun () ->
      ignore (Cluster.pc_of_members_exn []))

let test_park_no_members () =
  let cfg = Config.make ~procs:2 ~capacity:4 () in
  let t = Fixed.create cfg in
  let cl = Fixed.cluster t in
  let msg =
    Msg.Route
      {
        key = 1;
        level = 0;
        node = 999;
        act = Msg.Update { uid = -1; u = Msg.Remove { op = 0; origin = 0 } };
      }
  in
  Cluster.park ~no_members:true cl ~pid:0 ~node:999 msg;
  Alcotest.(check int) "counted" 1
    (Stats.get (Cluster.stats cl) "route.no_members");
  Alcotest.(check (list bool)) "parked for the node" [ true ]
    (List.map (fun m -> m = msg) (Store.take_pending (Cluster.store cl 0) 999))

(* Config validation: every rejection names the offending field. *)
let test_crash_config_validation () =
  let durable = { Config.wal = true; snapshot_every = 128 } in
  let crash1 =
    { Dbtree_sim.Net.no_faults with Dbtree_sim.Net.crash_at = [ (1, 10) ] }
  in
  let reject msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  reject "Config: faults.crash_at requires durability.wal (volatile state cannot recover)"
    (fun () ->
      ignore
        (Config.make ~faults:crash1 ~transport:Dbtree_sim.Net.Reliable ()));
  reject "Config: faults.crash_at requires the Reliable transport" (fun () ->
      ignore (Config.make ~faults:crash1 ~durability:durable ()));
  reject
    "Config: faults.crash_at requires the Semi or Naive discipline (Sync/Eager barrier state is not journaled)"
    (fun () ->
      ignore
        (Config.make ~faults:crash1 ~durability:durable
           ~transport:Dbtree_sim.Net.Reliable ~discipline:Config.Sync ()));
  reject "Config: faults.crash_at entries must satisfy 0 <= proc < procs, tick >= 0"
    (fun () ->
      ignore
        (Config.make ~procs:2
           ~faults:{ crash1 with Dbtree_sim.Net.crash_at = [ (7, 10) ] }
           ~durability:durable ~transport:Dbtree_sim.Net.Reliable ()));
  reject "Config: faults.restart_delay must be >= 1" (fun () ->
      ignore
        (Config.make
           ~faults:{ crash1 with Dbtree_sim.Net.restart_delay = 0 }
           ~durability:durable ~transport:Dbtree_sim.Net.Reliable ()));
  reject "Config: durability.snapshot_every must be >= 0" (fun () ->
      ignore
        (Config.make ~durability:{ durable with Config.snapshot_every = -1 } ()));
  reject "Mobile: durability.wal is not supported (migration state is not journaled)"
    (fun () -> ignore (Mobile.create (Config.make ~durability:durable ())))

(* ------------------------------------------------------------------ *)
(* Journal compaction                                                  *)

(* The reference oracle: the journal as it was before [Wal] kept a live
   replay state.  Compaction replays snapshot + tail into fresh hash
   tables ([materialize]) and sorts every table into the canonical
   snapshot ([canonical]).  The code of both, and of [net_state], is
   kept unchanged (only two comments are trimmed). *)
module Reference_wal = struct
  open Wal

  type t = {
    snapshot_every : int;
    mutable snap : record list;
    mutable log : record list;
    mutable log_len : int;
    mutable snapshots : int;
    mutable snap_bytes : int;
  }

  let create ~snapshot_every =
    { snapshot_every; snap = []; log = []; log_len = 0; snapshots = 0;
      snap_bytes = 0 }

  type state = {
    nodes : (int, record) Hashtbl.t;  (* node -> latest Write *)
    where : (int, int list) Hashtbl.t;
    mutable root : int;
    departed : (int, unit) Hashtbl.t;
    forwarding : (int, int) Hashtbl.t;
    parked : (int, Msg.t list) Hashtbl.t;  (* newest first *)
    outbound : (int, (int * Msg.t) list) Hashtbl.t;
        (* dst -> unretired sends, newest first, with their abs index *)
    sent : (int, int) Hashtbl.t;  (* dst -> sends journaled (abs high-water) *)
    delivered : (int, int) Hashtbl.t;  (* src -> delivered count *)
    mutable ops_done : int;
  }

  let fresh_state () =
    {
      nodes = Hashtbl.create 64;
      where = Hashtbl.create 64;
      root = -1;
      departed = Hashtbl.create 8;
      forwarding = Hashtbl.create 8;
      parked = Hashtbl.create 8;
      outbound = Hashtbl.create 8;
      sent = Hashtbl.create 8;
      delivered = Hashtbl.create 8;
      ops_done = 0;
    }

  let apply_to_state st r =
    match r with
    | Write { snap; members; _ } ->
      Hashtbl.replace st.nodes snap.Msg.s_id r;
      Hashtbl.replace st.where snap.Msg.s_id members
    | Remove { node } -> Hashtbl.remove st.nodes node
    | Learn { node; members } -> Hashtbl.replace st.where node members
    | Unlearn { node } -> Hashtbl.remove st.where node
    | Root { node } -> st.root <- node
    | Depart { node } -> Hashtbl.replace st.departed node ()
    | Undepart { node } -> Hashtbl.remove st.departed node
    | Forward { node; dst } -> Hashtbl.replace st.forwarding node dst
    | Unforward { node } -> Hashtbl.remove st.forwarding node
    | Park { node; msg } ->
      let prev = Option.value (Hashtbl.find_opt st.parked node) ~default:[] in
      Hashtbl.replace st.parked node (msg :: prev)
    | Unpark { node } -> Hashtbl.remove st.parked node
    | Op_done _ -> st.ops_done <- st.ops_done + 1
    | Send { dst; abs; msg } ->
      let prev = Option.value (Hashtbl.find_opt st.outbound dst) ~default:[] in
      Hashtbl.replace st.outbound dst ((abs, msg) :: prev);
      let hi = Option.value (Hashtbl.find_opt st.sent dst) ~default:0 in
      Hashtbl.replace st.sent dst (max hi (abs + 1))
    | Retire { dst; abs } ->
      let prev = Option.value (Hashtbl.find_opt st.outbound dst) ~default:[] in
      Hashtbl.replace st.outbound dst
        (List.filter (fun (a, _) -> a > abs) prev);
      let hi = Option.value (Hashtbl.find_opt st.sent dst) ~default:0 in
      Hashtbl.replace st.sent dst (max hi (abs + 1))
    | Deliver { src; abs } ->
      let prev = Option.value (Hashtbl.find_opt st.delivered src) ~default:0 in
      Hashtbl.replace st.delivered src (max prev (abs + 1))

  let iter_records t f =
    List.iter f t.snap;
    List.iter f (List.rev t.log)

  let materialize t =
    let st = fresh_state () in
    iter_records t (fun r -> apply_to_state st r);
    st

  let sorted_bindings h =
    List.sort (fun (a, _) (b, _) -> compare a b)
      (* dblint: allow no-nondeterminism -- unordered fold feeds the sort by key above *)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

  let canonical st =
    let recs = ref [] in
    let push r = recs := r :: !recs in
    List.iter (fun (_, r) -> push r) (sorted_bindings st.nodes);
    List.iter (fun (node, members) -> push (Learn { node; members }))
      (sorted_bindings st.where);
    List.iter
      (fun (node, _) ->
        if not (Hashtbl.mem st.where node) then push (Unlearn { node }))
      (sorted_bindings st.nodes);
    if st.root >= 0 then push (Root { node = st.root });
    List.iter (fun (node, ()) -> push (Depart { node }))
      (sorted_bindings st.departed);
    List.iter (fun (node, dst) -> push (Forward { node; dst }))
      (sorted_bindings st.forwarding);
    List.iter
      (fun (node, msgs) ->
        List.iter (fun msg -> push (Park { node; msg })) (List.rev msgs))
      (sorted_bindings st.parked);
    List.iter
      (fun (dst, items) ->
        List.iter (fun (abs, msg) -> push (Send { dst; abs; msg }))
          (List.sort compare (List.map (fun (a, m) -> (a, m)) items)))
      (sorted_bindings st.outbound);
    List.iter
      (fun (dst, hi) ->
        if hi > 0 && Hashtbl.find_opt st.outbound dst = Some [] then
          push (Retire { dst; abs = hi - 1 }))
      (sorted_bindings st.sent);
    List.iter (fun (src, n) -> push (Deliver { src; abs = n - 1 }))
      (List.filter (fun (_, n) -> n > 0) (sorted_bindings st.delivered));
    List.rev !recs

  let compact t =
    let st = materialize t in
    let snap = canonical st in
    t.snap <- snap;
    t.log <- [];
    t.log_len <- 0;
    t.snapshots <- t.snapshots + 1;
    t.snap_bytes <- List.fold_left (fun acc r -> acc + record_size r) 0 snap

  let append t r =
    t.log <- r :: t.log;
    t.log_len <- t.log_len + 1;
    if t.snapshot_every > 0 && t.log_len >= t.snapshot_every then compact t

  let net_state t =
    let st = materialize t in
    let outbound =
      List.map (fun (dst, items) -> (dst, List.sort compare items))
        (sorted_bindings st.outbound)
    in
    let sent = sorted_bindings st.sent in
    let delivered =
      List.filter (fun (_, n) -> n > 0) (sorted_bindings st.delivered)
    in
    (outbound, sent, delivered)
end

(* Decode one random step [(kind, a, b)] into a record.  Node ids mostly
   collide in 0..7 (so facts overwrite and retract each other) and now
   and then reach past the arenas' first 64 slots; pids likewise reach
   past the channel tables' first 8.  Send indices rise per destination
   (with gaps), and a Retire covers an index already sent, as the
   transport guarantees.  [None] is an explicit [Wal.compact]. *)
let journal_step next (kind, a, b) =
  let node = if a mod 10 = 9 then 60 + a else a mod 8 in
  let p = if a mod 7 = 6 then 8 + (a mod 5) else a mod 4 in
  let members = List.init (1 + (b mod 3)) (fun i -> (b + i) mod 4) in
  let msg = Msg.Split_ack { node = b } in
  match kind with
  | 0 | 1 ->
    let snap =
      {
        Msg.s_id = node;
        s_level = 0;
        s_low = Dbtree_blink.Bound.Neg_inf;
        s_high = Dbtree_blink.Bound.Pos_inf;
        s_entries =
          List.init (b mod 3) (fun k ->
              (k, Dbtree_blink.Node.Data (string_of_int b)));
        s_right = None;
        s_left = None;
        s_parent = None;
        s_version = b;
        s_base = [];
      }
    in
    Some
      (Wal.Write
         {
           snap;
           pc = b mod 4;
           members;
           join_versions = (if b mod 2 = 0 then [ (b mod 4, b) ] else []);
           splitting = b mod 5 = 0;
         })
  | 2 -> Some (Wal.Remove { node })
  | 3 -> Some (Wal.Learn { node; members })
  | 4 -> Some (Wal.Unlearn { node })
  | 5 -> Some (Wal.Root { node })
  | 6 -> Some (Wal.Depart { node })
  | 7 -> Some (Wal.Undepart { node })
  | 8 -> Some (Wal.Forward { node; dst = p })
  | 9 -> Some (Wal.Unforward { node })
  | 10 -> Some (Wal.Park { node; msg })
  | 11 -> Some (Wal.Unpark { node })
  | 12 -> Some (Wal.Op_done { op = b })
  | 13 | 14 ->
    let abs = next.(p) + (b mod 3) in
    next.(p) <- abs + 1;
    Some (Wal.Send { dst = p; abs; msg })
  | 15 when next.(p) > 0 -> Some (Wal.Retire { dst = p; abs = b mod next.(p) })
  | 16 when next.(p) > 0 ->
    (* drain the channel: retire through the newest send *)
    Some (Wal.Retire { dst = p; abs = next.(p) - 1 })
  | 15 | 16 | 17 -> Some (Wal.Deliver { src = p; abs = b })
  | _ -> None

let replayed_records w =
  let recs = ref [] in
  ignore (Wal.replay w (fun r -> recs := r :: !recs));
  List.rev !recs

(* Compaction from the live state is observationally the old
   replay-and-sort compaction: over random streams and cadences, with
   explicit compactions interleaved, the replayed record stream, the
   durable network state and the snapshot accounting match the
   reference oracle after every step. *)
let prop_compaction_matches_reference =
  QCheck.Test.make ~count:300 ~name:"compaction matches the reference oracle"
    QCheck.(
      pair (oneofl [ 0; 1; 2; 16 ])
        (list_of_size Gen.(0 -- 150)
           (triple (int_bound 18) (int_bound 200) (int_bound 200))))
    (fun (snapshot_every, steps) ->
      let w = Wal.create ~pid:0 ~snapshot_every in
      let r = Reference_wal.create ~snapshot_every in
      let next = Array.make 16 0 in
      List.for_all
        (fun step ->
          (match journal_step next step with
          | Some record ->
            Wal.append w record;
            Reference_wal.append r record
          | None ->
            Wal.compact w;
            Reference_wal.compact r);
          replayed_records w = r.snap @ List.rev r.log
          && Wal.net_state w = Reference_wal.net_state r
          && Wal.snapshots w = r.snapshots
          && Wal.snapshot_bytes w = r.snap_bytes
          && Wal.log_length w = r.log_len)
        steps)

(* ------------------------------------------------------------------ *)
(* Kernels end-to-end                                                  *)

let durable = { Config.wal = true; snapshot_every = 128 }

let crash_faults ?(drop = 0.0) ?(dup = 0.0) ?(restart = 90) crashes =
  {
    Dbtree_sim.Net.no_faults with
    Dbtree_sim.Net.drop_prob = drop;
    duplicate_prob = dup;
    crash_at = crashes;
    restart_delay = restart;
  }

(* The recovery oracle: replaying a processor's WAL into a fresh store
   must reproduce the live store's crash-survivable state bit for bit. *)
let check_replay_digests cl =
  let procs = cl.Cluster.config.Config.procs in
  for pid = 0 to procs - 1 do
    let live = Cluster.store cl pid in
    let w = Cluster.wal cl pid in
    let fresh = Store.create ~pid ~root:(-1) in
    Wal.set_replaying w true;
    ignore (Wal.replay w (Store.apply_record fresh));
    Wal.set_replaying w false;
    Alcotest.(check string)
      (Fmt.str "p%d: WAL replay reproduces the live store" pid)
      (Store.digest live) (Store.digest fresh)
  done

let run_fixed ?(discipline = Config.Semi) ?(snapshot_every = 128) ~faults
    ~count ~seed () =
  let cfg =
    Config.make ~procs:4 ~capacity:4 ~key_space:50_000 ~seed
      ~transport:Dbtree_sim.Net.Reliable ~discipline
      ~durability:{ Config.wal = true; snapshot_every }
      ~faults ()
  in
  let t = Fixed.create cfg in
  for i = 1 to count do
    ignore (Fixed.insert t ~origin:(i mod 4) (i * 97) (Fmt.str "v%d" i))
  done;
  Fixed.run t;
  Fixed.cluster t

let test_fixed_crash_recovery () =
  let cl =
    run_fixed ~faults:(crash_faults [ (1, 60); (2, 150) ]) ~count:300 ~seed:3 ()
  in
  let stats = Cluster.stats cl in
  Alcotest.(check int) "two crashes" 2 (Stats.get stats "net.crash.count");
  Alcotest.(check bool) "journal records were replayed" true
    (Stats.get stats "recovery.replayed" > 0);
  Alcotest.(check bool) "survives and verifies" true (Verify.ok (Verify.check cl));
  check_replay_digests cl

let test_fixed_crash_recovery_lossy () =
  let cl =
    run_fixed
      ~faults:(crash_faults ~drop:0.1 ~dup:0.05 [ (3, 80) ])
      ~count:300 ~seed:9 ()
  in
  Alcotest.(check bool) "crash + loss + dup verifies" true
    (Verify.ok (Verify.check cl));
  check_replay_digests cl

(* Compaction mid-run: a tiny snapshot interval forces many snapshot
   truncations before and after the crash; the replay oracle must still
   hold from snapshot + tail. *)
let test_fixed_recovery_with_compaction () =
  let cl =
    run_fixed ~snapshot_every:16
      ~faults:(crash_faults [ (1, 60) ])
      ~count:250 ~seed:4 ()
  in
  let stats = Cluster.stats cl in
  Alcotest.(check bool) "snapshots happened" true
    (Wal.snapshots (Cluster.wal cl 1) > 0);
  Alcotest.(check bool) "verifies" true (Verify.ok (Verify.check cl));
  ignore stats;
  check_replay_digests cl

let run_variable ?(snapshot_every = 128) ~faults ~count ~seed () =
  let cfg =
    Config.make ~procs:4 ~capacity:4 ~key_space:50_000 ~seed
      ~transport:Dbtree_sim.Net.Reliable
      ~durability:{ Config.wal = true; snapshot_every }
      ~balance_period:400 ~faults ()
  in
  let t = Variable.create cfg in
  for i = 1 to count do
    ignore (Variable.insert t ~origin:(i mod 4) (i * 97) (Fmt.str "v%d" i))
  done;
  Variable.run t;
  Variable.cluster t

let test_variable_crash_recovery () =
  let cl =
    run_variable ~faults:(crash_faults [ (2, 100) ]) ~count:300 ~seed:5 ()
  in
  let stats = Cluster.stats cl in
  Alcotest.(check int) "crash happened" 1 (Stats.get stats "net.crash.count");
  Alcotest.(check bool) "replayed" true (Stats.get stats "recovery.replayed" > 0);
  Alcotest.(check bool) "rejoin requests sent for remote-PC copies" true
    (Stats.get stats "recovery.rejoined" > 0);
  Alcotest.(check bool) "verifies" true (Verify.ok (Verify.check cl));
  check_replay_digests cl

(* The Variable kernel journals Remove, Depart and Forward records (its
   migrations and joins) that Fixed never writes; a small snapshot
   interval sends them through compaction before the crash's replay. *)
let test_variable_recovery_with_compaction () =
  let cl =
    run_variable ~snapshot_every:16
      ~faults:(crash_faults [ (2, 100) ])
      ~count:300 ~seed:5 ()
  in
  let stats = Cluster.stats cl in
  Alcotest.(check int) "crash happened" 1 (Stats.get stats "net.crash.count");
  Alcotest.(check bool) "snapshots happened" true
    (Wal.snapshots (Cluster.wal cl 2) > 0);
  Alcotest.(check bool) "copies migrated" true
    (Stats.get stats "migrate.count" > 0);
  Alcotest.(check bool) "verifies" true (Verify.ok (Verify.check cl));
  check_replay_digests cl

(* Determinism: recovery is part of the simulation — same seed, same
   crash schedule, byte-identical final state. *)
let digest_all cl =
  let procs = cl.Cluster.config.Config.procs in
  String.concat "|"
    (List.init procs (fun pid -> Store.digest (Cluster.store cl pid)))

let test_recovery_deterministic () =
  let run () =
    let cl =
      run_fixed ~faults:(crash_faults ~drop:0.05 [ (1, 70) ]) ~count:250
        ~seed:21 ()
    in
    (digest_all cl, Opstate.completed cl.Cluster.ops)
  in
  let d1, c1 = run () in
  let d2, c2 = run () in
  Alcotest.(check string) "same-seed digests identical" d1 d2;
  Alcotest.(check int) "same-seed completions identical" c1 c2

(* Satellite property: for an arbitrary crash/loss/duplication schedule
   and snapshot interval, the cluster still verifies and every processor's live store equals the
   store replayed from its own WAL. *)
let prop_recovery_digest =
  QCheck.Test.make ~count:12 ~name:"random crash schedules recover"
    QCheck.(
      quad
        (pair (int_bound 1000) (oneofl [ 1; 16; 128 ]))
        (pair (int_bound 3) (int_range 20 300))
        (pair (int_bound 12) (int_bound 8))
        (int_range 1 150))
    (fun ((seed, snapshot_every), (proc, tick), (drop, dup), restart) ->
      (* the shrinker explores below the generator ranges; keep the
         config valid *)
      let restart = max 1 restart and tick = max 0 tick in
      let faults =
        crash_faults
          ~drop:(float_of_int drop /. 100.0)
          ~dup:(float_of_int dup /. 100.0)
          ~restart
          [ (proc, tick) ]
      in
      let cl = run_fixed ~snapshot_every ~faults ~count:150 ~seed () in
      let ok = Verify.ok (Verify.check cl) in
      let digests_ok =
        let procs = cl.Cluster.config.Config.procs in
        List.for_all Fun.id
          (List.init procs (fun pid ->
               let live = Cluster.store cl pid in
               let w = Cluster.wal cl pid in
               let fresh = Store.create ~pid ~root:(-1) in
               Wal.set_replaying w true;
               ignore (Wal.replay w (Store.apply_record fresh));
               Wal.set_replaying w false;
               Store.digest live = Store.digest fresh))
      in
      ok && digests_ok)

(* E18 gate: every published cell must verify and lose nothing that was
   acknowledged — CI runs this via dune runtest, like the E14 gate. *)
let test_e18_verified_columns () =
  Dbtree_experiments.Table.set_capture true;
  Dbtree_experiments.E18_recovery.run ~quick:true ();
  let tables = Dbtree_experiments.Table.captured () in
  Dbtree_experiments.Table.set_capture false;
  let table =
    match tables with
    | [ t ] -> t
    | _ -> Alcotest.fail "e18 must print exactly one table"
  in
  let rows = Dbtree_experiments.Table.rows table in
  Alcotest.(check int) "kernel x schedule x loss grid" 24 (List.length rows);
  List.iter
    (fun row ->
      match (row, List.rev row) with
      | kernel :: crashes :: drop :: _, verified :: _ :: lost_acked :: _ ->
        let label =
          Printf.sprintf "%s crashes=%s drop=%s" kernel crashes drop
        in
        Alcotest.(check string) (label ^ " verifies") "ok" verified;
        Alcotest.(check string) (label ^ " loses no acked update") "0"
          lost_acked
      | _ -> Alcotest.fail "malformed e18 row")
    rows;
  (* The pc-split schedule must really fire: each of its rows crashed
     the splitting node's PC (a discovery pass located the split, so an
     empty schedule would mean no split was found) and recovery replayed
     the WAL on restart. *)
  let pc_rows =
    List.filter
      (fun row -> String.equal (List.nth row 1) "pc-split")
      rows
  in
  Alcotest.(check int) "pc-split rows (kernels x loss)" 6
    (List.length pc_rows);
  List.iter
    (fun row ->
      let label = Printf.sprintf "%s pc-split" (List.nth row 0) in
      let replayed = int_of_string (List.nth row 4) in
      Alcotest.(check bool)
        (label ^ " crash replays the WAL")
        true (replayed > 0))
    pc_rows

let suite =
  [
    Alcotest.test_case "retx frozen while peer down" `Quick
      test_retx_frozen_while_down;
    Alcotest.test_case "durable exactly-once across crash" `Quick
      test_durable_exactly_once_across_crash;
    Alcotest.test_case "pc_of_members typed errors" `Quick
      test_pc_of_members_errors;
    Alcotest.test_case "park_no_members surfaces empty routes" `Quick
      test_park_no_members;
    Alcotest.test_case "crash config validation" `Quick
      test_crash_config_validation;
    Alcotest.test_case "fixed crash recovery" `Quick test_fixed_crash_recovery;
    Alcotest.test_case "fixed recovery under loss" `Quick
      test_fixed_crash_recovery_lossy;
    QCheck_alcotest.to_alcotest prop_compaction_matches_reference;
    Alcotest.test_case "recovery with snapshot compaction" `Quick
      test_fixed_recovery_with_compaction;
    Alcotest.test_case "variable crash recovery + rejoin" `Quick
      test_variable_crash_recovery;
    Alcotest.test_case "variable recovery with snapshot compaction" `Quick
      test_variable_recovery_with_compaction;
    Alcotest.test_case "recovery deterministic" `Quick
      test_recovery_deterministic;
    QCheck_alcotest.to_alcotest prop_recovery_digest;
    Alcotest.test_case "e18 gate: verified + lost-acked columns" `Quick
      test_e18_verified_columns;
  ]
