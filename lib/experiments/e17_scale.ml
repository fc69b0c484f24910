(* E17 — the engine at scale: a million operations across 64–256
   processors.  This is the experiment the arena store, the timing-wheel
   event queue and the typed (closure-free) message path exist for: one
   cell loads a bounded insert phase and then drives the op count up with
   searches, under the lazy semi-synchronous protocol and the synchronous
   AAS variant.  The table reports simulated throughput, the hottest
   processor's inbound share (the root-bottleneck curve), AAS stall
   counts and p99 stall time from the [Stats] histograms, and p99 search
   latency.

   Cells share nothing, so they run through [Par.map]: sequential by
   default, domain-parallel when [DBTREE_DOMAINS] (or the caller) says
   so — with a byte-identical table either way, which the test suite
   pins.  Wall-clock engine speed is printed outside the table (it is
   real time, not simulation output, and must not enter the pinned
   render). *)
open Dbtree_core
open Dbtree_sim

let id = "e17"
let title = "Million-op scale: 64-256 processors"

type cell = { procs : int; disc : Config.discipline; ops_target : int }

type row = {
  procs : int;
  disc : Config.discipline;
  ops : int;
  events : int;
  tput : float;
  hottest_pct : float;
  aas_stalls : int;
  aas_p99 : int;
  search_p99 : float;
  ok : string;
}

(* The insert phase is bounded — the tree's node count, not the op count,
   is what it controls — and searches make up the rest of the target. *)
let run_cell { procs; disc; ops_target } =
  let inserts = min (ops_target / 4) 64_000 in
  let searches = max 1 ((ops_target - inserts) / procs) in
  let key_space = max 400_000 (inserts * 16) in
  let cfg =
    Config.make ~procs ~capacity:16 ~key_space ~discipline:disc
      ~replication:Config.Path ~seed:17 ~record_history:false ()
  in
  let r = Common.run_fixed ~window:8 ~searches_per_proc:searches ~count:inserts cfg in
  let cluster = r.Common.cluster in
  let net = cluster.Cluster.net in
  let inbound = List.init procs (fun p -> Cluster.Network.sent_to net p) in
  let total = max 1 (List.fold_left ( + ) 0 inbound) in
  let hottest = List.fold_left max 0 inbound in
  let aas = cluster.Cluster.ctr.Cluster.aas_time in
  {
    procs;
    disc;
    ops = Common.ops_completed r;
    events = Sim.events_processed cluster.Cluster.sim;
    tput = Common.throughput r;
    hottest_pct = 100.0 *. float_of_int hottest /. float_of_int total;
    aas_stalls = Stats.hist_count aas;
    aas_p99 =
      (if Stats.hist_count aas = 0 then 0 else Stats.hist_percentile aas 99.0);
    search_p99 =
      Opstate.latency_percentile cluster.Cluster.ops Opstate.Search 0.99;
    ok = Common.verified r;
  }

let cells quick =
  let procs_list = if quick then [ 8; 16 ] else [ 64; 128; 256 ] in
  let ops_target = if quick then 3_000 else 1_000_000 in
  Array.of_list
    (List.concat_map
       (fun procs ->
         List.map
           (fun disc -> { procs; disc; ops_target })
           [ Config.Semi; Config.Sync ])
       procs_list)

(* Exposed with an explicit domain count so the test suite can pin
   sequential ≡ parallel; [run] (the registry entry point) defaults to
   the [DBTREE_DOMAINS] environment variable via [Par.map]. *)
let run_with ?(quick = false) ?domains () =
  (* dblint: allow no-nondeterminism -- engine wall speed is the point; printed outside the pinned table *)
  let started = Sys.time () in
  let rows = Par.map ?domains run_cell (cells quick) in
  (* dblint: allow no-nondeterminism -- same: real time, never enters the table *)
  let cpu = Sys.time () -. started in
  let table =
    Table.create ~title
      ~columns:
        [
          "procs"; "protocol"; "ops"; "events"; "throughput ops/ktick";
          "hottest proc inbound %"; "AAS stalls"; "AAS p99";
          "search p99"; "verified";
        ]
  in
  let total_ops = Array.fold_left (fun a r -> a + r.ops) 0 rows in
  Array.iter
    (fun r ->
      Table.add_row table
        [
          Table.cell_i r.procs;
          Config.discipline_name r.disc;
          Table.cell_i r.ops;
          Table.cell_i r.events;
          Table.cell_f r.tput;
          Table.cell_f r.hottest_pct;
          Table.cell_i r.aas_stalls;
          Table.cell_i r.aas_p99;
          Table.cell_f r.search_p99;
          r.ok;
        ])
    rows;
  Table.add_note table
    "the lazy semi-synchronous protocol holds its throughput and keeps \
     the hottest processor's share near 1/procs as the cluster grows; \
     the synchronous variant pays for every split with an AAS stall \
     across the member set.";
  Table.print table;
  (* Real time, deliberately outside the (pinned, deterministic) table —
     and on stderr, so stdout stays byte-comparable across runs. *)
  Fmt.epr "e17: %d ops in %.1fs CPU (%.0f ops/sec)@." total_ops cpu
    (float_of_int total_ops /. Float.max 1e-9 cpu)

let run ?quick () = run_with ?quick ()
