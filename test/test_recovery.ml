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

let run_variable ~faults ~count ~seed () =
  let cfg =
    Config.make ~procs:4 ~capacity:4 ~key_space:50_000 ~seed
      ~transport:Dbtree_sim.Net.Reliable ~durability:durable
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

(* Satellite property: for an arbitrary crash/loss/duplication schedule,
   the cluster still verifies and every processor's live store equals the
   store replayed from its own WAL. *)
let prop_recovery_digest =
  QCheck.Test.make ~count:12 ~name:"random crash schedules recover"
    QCheck.(
      quad (int_bound 1000) (pair (int_bound 3) (int_range 20 300))
        (pair (int_bound 12) (int_bound 8))
        (int_range 1 150))
    (fun (seed, (proc, tick), (drop, dup), restart) ->
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
      let cl = run_fixed ~faults ~count:150 ~seed () in
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
    Alcotest.test_case "recovery with snapshot compaction" `Quick
      test_fixed_recovery_with_compaction;
    Alcotest.test_case "variable crash recovery + rejoin" `Quick
      test_variable_crash_recovery;
    Alcotest.test_case "recovery deterministic" `Quick
      test_recovery_deterministic;
    QCheck_alcotest.to_alcotest prop_recovery_digest;
    Alcotest.test_case "e18 gate: verified + lost-acked columns" `Quick
      test_e18_verified_columns;
  ]
