(* E19 — the live telemetry plane (lib/obs + lib/dbtree/telemetry.ml).

   Four tables:
   1. Overhead — the same workload with the plane off and on.  Scrapes
      ride the simulator's observation probe and schedule nothing, so
      the instrumented run must execute the exact same events; the
      drift column is the gated claim and must read 0.00.
   2. Hotspot timeline — the per-window heat gauges of the semi run:
      where the access mass sits and how the hottest node's share
      decays as splits spread the keys.
   3. SLO alerts — the health rule engine on a clean run (every rule
      silent) and under a retransmission storm (drop-heavy reliable
      channel; the retx_storm rule must fire).
   4. Critical path — per-discipline phase attribution over the trace
      rings: where a completed operation's latency actually went, and
      the stall ordering (sync > semi > mobile) the lazy-update thesis
      predicts. *)
open Dbtree_core
module Series = Dbtree_obs.Series
module Health = Dbtree_obs.Health
module Critical = Dbtree_obs.Critical

let id = "e19"
let title = "Live telemetry: overhead, hotspots, SLO alerts, critical path"

(* "sync" and "semi" are fixed-copies kernels under the matching
   discipline; "mobile" is the lazily-balancing kernel (semi-lazy
   updates plus §5 data balancing). *)
let config ?(telemetry = false) ?(trace = false) ?faults ?transport ~kernel
    ~seed () =
  let discipline = if kernel = "sync" then Config.Sync else Config.Semi in
  let balance_period = if kernel = "mobile" then 200 else 0 in
  Config.make ~procs:4 ~capacity:8 ~seed ~key_space:200_000 ~discipline
    ~balance_period ?faults ?transport ~telemetry ~telemetry_every:256 ~trace
    ()

let run_kernel ~kernel ~count cfg =
  if kernel = "mobile" then snd (Common.run_mobile ~count cfg)
  else Common.run_fixed ~count cfg

(* ---- 1: overhead ------------------------------------------------- *)

let overhead_table ~count =
  let table =
    Table.create ~title:"Telemetry overhead (same seed, plane off vs on)"
      ~columns:
        [ "discipline"; "telem"; "events"; "elapsed"; "ops"; "drift %" ]
  in
  let semi_on = ref None in
  List.iter
    (fun kernel ->
      let events r =
        Dbtree_sim.Sim.events_processed r.Common.cluster.Cluster.sim
      in
      let off = run_kernel ~kernel ~count (config ~kernel ~seed:11 ()) in
      let on =
        run_kernel ~kernel ~count (config ~telemetry:true ~kernel ~seed:11 ())
      in
      if kernel = "semi" then semi_on := Some on;
      let drift =
        100.0
        *. float_of_int (abs (events on - events off))
        /. float_of_int (max 1 (events off))
      in
      List.iter
        (fun (tag, r) ->
          Table.add_row table
            [
              kernel;
              tag;
              Table.cell_i (events r);
              Table.cell_i r.Common.elapsed;
              Table.cell_i (Common.ops_completed r);
              (if tag = "on" then Table.cell_f drift else "-");
            ])
        [ ("off", off); ("on", on) ])
    [ "sync"; "semi" ];
  Table.add_note table
    "Scrapes ride the simulator's probe hook and schedule no events, so \
     the instrumented run replays the bare run exactly: the drift column \
     (|events on - events off| as a percentage) is the gated overhead \
     claim and must be 0.00.";
  Table.print table;
  Option.get !semi_on

(* ---- 2: hotspot timeline ----------------------------------------- *)

let timeline_table (r : Common.run_result) =
  let tm = Cluster.telemetry r.Common.cluster in
  let series = Telemetry.series tm in
  let pts name = Series.points series name in
  let share = pts "heat.hottest_share_pct" in
  let node = pts "heat.hottest_node" in
  let touches = pts "heat.touches" in
  let queue = pts "sim.queue_depth" in
  let table =
    Table.create ~title:"Hotspot timeline (semi, one scrape window per row)"
      ~columns:[ "t"; "queue"; "touches"; "hottest node"; "share %" ]
  in
  let nth xs i = List.nth_opt xs i in
  let n = List.length share in
  let stride = max 1 (n / 6) in
  let i = ref 0 in
  while !i < n do
    (match (nth share !i, nth node !i, nth touches !i, nth queue !i) with
    | Some (t, s), Some (_, nd), Some (_, tc), Some (_, q) ->
      Table.add_row table
        [
          Table.cell_i t; Table.cell_i q; Table.cell_i tc; Table.cell_i nd;
          Table.cell_i s;
        ]
    | _ -> ());
    i := !i + stride
  done;
  Table.add_note table
    "Scraped every 256 ticks from the per-node heat arena: the hottest \
     node's share of all copy accesses falls as splits spread the key \
     range, while the leader's identity tracks the current heaviest \
     subtree.";
  Table.print table

(* ---- 3: SLO alerts ----------------------------------------------- *)

let alerts_table ~count =
  let table =
    Table.create ~title:"SLO health rules (clean run vs retransmission storm)"
      ~columns:[ "scenario"; "rule"; "sev"; "fired"; "ticks"; "peak" ]
  in
  let scenarios =
    [
      ("clean", Dbtree_sim.Net.no_faults);
      ( "retx storm",
        { Dbtree_sim.Net.no_faults with Dbtree_sim.Net.drop_prob = 0.3 } );
    ]
  in
  let storm_fired = ref 0 in
  List.iter
    (fun (name, faults) ->
      (* 8 processors x 32-deep closed loop: enough concurrent go-back-N
         channels that a 30% drop rate pushes the per-window resend count
         over the threshold; the clean run shares the config. *)
      let cfg =
        Config.make ~procs:8 ~capacity:8 ~seed:23 ~key_space:200_000
          ~discipline:Config.Semi ~transport:Dbtree_sim.Net.Reliable ~faults
          ~telemetry:true ~telemetry_every:256 ()
      in
      let r = Common.run_fixed ~window:32 ~count cfg in
      let health = Telemetry.health (Cluster.telemetry r.Common.cluster) in
      List.iter
        (fun (s : Health.summary_row) ->
          if name <> "clean" && s.Health.su_rule = "retx_storm" then
            storm_fired := s.Health.su_fired;
          Table.add_row table
            [
              name;
              s.Health.su_rule;
              Health.severity_name s.Health.su_severity;
              Table.cell_i s.Health.su_fired;
              Table.cell_i s.Health.su_active_ticks;
              Table.cell_i s.Health.su_peak;
            ])
        (Health.summary health))
    scenarios;
  Table.add_note table
    "Rules are level checks at scrape points; alerts are span-paired \
     trace events.  The gate: every rule stays silent on the clean run, \
     and the drop-heavy reliable channel must trip retx_storm (go-back-N \
     resends per window above threshold).";
  Table.print table;
  !storm_fired

(* ---- 4: critical path -------------------------------------------- *)

(* A contended regime — 8 processors, capacity-4 nodes (frequent
   splits), high delivery jitter, 2% loss on the reliable channel — so
   each discipline's synchronization cost is actually visible: sync's
   quorum AAS holds span the jittered round trips, semi's routes race
   split installs and park, and the lazy balancer does neither. *)
let phase_rows ~count =
  List.map
    (fun kernel ->
      let discipline = if kernel = "sync" then Config.Sync else Config.Semi in
      let balance_period = if kernel = "mobile" then 200 else 0 in
      let cfg =
        Config.make ~procs:8 ~capacity:4 ~seed:7 ~key_space:200_000
          ~discipline ~balance_period ~trace:true
          ~transport:Dbtree_sim.Net.Reliable
          ~faults:
            { Dbtree_sim.Net.no_faults with Dbtree_sim.Net.drop_prob = 0.02 }
          ~latency:
            { Dbtree_sim.Net.local_delay = 1; remote_base = 20;
              remote_jitter = 60 }
          ()
      in
      let r =
        if kernel = "mobile" then snd (Common.run_mobile ~window:16 ~count cfg)
        else Common.run_fixed ~window:16 ~count cfg
      in
      let agg = Critical.aggregate r.Common.cluster.Cluster.obs in
      (kernel, agg))
    [ "sync"; "semi"; "mobile" ]

let phases_table rows =
  let table =
    Table.create
      ~title:"Critical-path attribution (share of completed-op latency)"
      ~columns:
        [ "discipline"; "net %"; "aas %"; "park %"; "retx %"; "proc %";
          "stall %" ]
  in
  List.iter
    (fun (disc, agg) ->
      let pct part = Table.cell_f (Critical.share agg part) in
      Table.add_row table
        [
          disc;
          pct agg.Critical.p_net;
          pct agg.Critical.p_aas;
          pct agg.Critical.p_parked;
          pct agg.Critical.p_retx;
          pct agg.Critical.p_proc;
          pct (Critical.stall agg);
        ])
    rows;
  let stall_of d =
    match List.assoc_opt d rows with
    | Some agg -> Critical.share agg (Critical.stall agg)
    | None -> 0.0
  in
  let ordered =
    stall_of "sync" > stall_of "semi" && stall_of "semi" > stall_of "mobile"
  in
  Table.add_note table
    (Fmt.str
       "Stall (aas + park) is the split-synchronization share: the \
        synchronous discipline blocks every copy, semi-lazy parks only \
        non-primary copies behind relays, and lazy balancing keeps \
        operations moving.  Ordering sync > semi > mobile holds: %s."
       (if ordered then "yes" else "NO"));
  Table.print table

(* The phase attribution needs enough completed ops that each
   discipline's synchronization episodes actually land on op spans;
   quick mode trims less aggressively than Common.scale. *)
let phase_count quick = if quick then 200 else 600

(* Flat stall/net/proc share per discipline, from the same traced runs
   the critical-path table prints. *)
let metrics ?(quick = false) () =
  let count = phase_count quick in
  List.concat_map
    (fun (disc, agg) ->
      [
        (disc ^ ".stall_pct", Critical.share agg (Critical.stall agg));
        (disc ^ ".net_pct", Critical.share agg agg.Critical.p_net);
        (disc ^ ".proc_pct", Critical.share agg agg.Critical.p_proc);
      ])
    (phase_rows ~count)

let run ?(quick = false) () =
  let count = Common.scale quick 600 in
  let semi_on = overhead_table ~count in
  timeline_table semi_on;
  ignore (alerts_table ~count:(Common.scale quick 400));
  phases_table (phase_rows ~count:(phase_count quick))
