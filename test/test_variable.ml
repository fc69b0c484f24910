(* End-to-end tests of the variable-copies protocol (§4.3): joins,
   unjoins, leaf migration with path-replication maintenance, and the
   version-number catch-up rule of Figure 6. *)
open Dbtree_core
open Dbtree_sim

let mk ?(procs = 4) ?(capacity = 4) ?(seed = 42) ?(key_space = 50_000)
    ?(balance_period = 0) ?(version_relays = true) () =
  Config.make ~procs ~capacity ~seed ~key_space ~balance_period
    ~version_relays ()

let run_variable ?(count = 300) cfg label =
  let t = Variable.create cfg in
  let cl = Variable.cluster t in
  let keys, report =
    Scenario.run_cluster ~api:(Variable.api t) ~cluster:cl ~cfg ~count ()
  in
  Scenario.check_verified label report;
  Scenario.check_no_leftover label cl;
  Scenario.all_search_results_correct cl keys;
  (t, keys, report)

let test_basic_load () = ignore (run_variable (mk ()) "variable basic")

let test_seeds () =
  List.iter
    (fun seed ->
      ignore (run_variable (mk ~seed ()) (Fmt.str "variable seed %d" seed)))
    [ 1; 5; 9; 1234 ]

let test_balanced_load () =
  let t, _, _ =
    run_variable ~count:400 (mk ~balance_period:150 ()) "variable balanced"
  in
  Alcotest.(check bool) "migrations happened" true (Variable.migrations t > 0)

(* Trace completeness: every message a Variable processor parks (a relay,
   membership change or split for a copy it has not installed yet) is
   closed by an Unpark for the same node on the same processor once the
   copy arrives.  Unpark's [b] is the number of messages it released. *)
let test_parks_unparked () =
  (* Frame loss over the reliable transport delays some channels behind
     others, so relays can overtake the copy they update. *)
  let cfg =
    Config.make ~procs:8 ~capacity:4 ~seed:15 ~key_space:50_000
      ~balance_period:100 ~transport:Net.Reliable
      ~faults:{ Net.no_faults with drop_prob = 0.02; duplicate_prob = 0.01 }
      ~trace:true ~trace_capacity:1_000_000 ()
  in
  let t, _, _ = run_variable ~count:400 cfg "variable traced" in
  let cl = Variable.cluster t in
  let events = Dbtree_obs.Obs.events cl.Cluster.obs in
  Alcotest.(check int) "trace retained every event"
    (Dbtree_obs.Obs.length cl.Cluster.obs) (List.length events);
  let balance = Hashtbl.create 16 in
  let bump key d =
    Hashtbl.replace balance key
      (d + Option.value (Hashtbl.find_opt balance key) ~default:0)
  in
  let parks = ref 0 and relays = ref 0 in
  List.iter
    (fun (e : Dbtree_obs.Obs.event) ->
      match e.kind with
      | Dbtree_obs.Event.Park ->
        incr parks;
        if Msg.kind_name e.b = "relay_update" then incr relays;
        bump (e.pid, e.a) 1
      | Dbtree_obs.Event.Unpark -> bump (e.pid, e.a) (-e.b)
      | _ -> ())
    events;
  Alcotest.(check bool) "the run parks a relay" true (!relays > 0);
  Alcotest.(check int) "parks counted" !parks
    (Stats.get (Cluster.stats cl) "route.parked");
  Alcotest.(check (list (pair int int)))
    "every park closed by an unpark on the same processor and node" []
    (List.filter_map
       (fun (key, n) -> if n <> 0 then Some key else None)
       (Stats.sorted_bindings balance))

let leaf_ids t pid =
  let store = Cluster.store (Variable.cluster t) pid in
  let acc = ref [] in
  Store.iter store (fun c ->
      if Dbtree_blink.Node.is_leaf c.Store.node then
        acc := c.Store.node.Dbtree_blink.Node.id :: !acc);
  !acc

let test_join_on_migration () =
  (* Draining every leaf out of processor 3 forces it to unjoin interior
     replications; the receivers join them. *)
  let cfg = mk ~key_space:50_000 () in
  let t = Variable.create cfg in
  let cl = Variable.cluster t in
  let keys, _ =
    Scenario.run_cluster ~api:(Variable.api t) ~cluster:cl ~cfg ~count:400 ()
  in
  List.iteri
    (fun i id -> Variable.migrate t ~node:id ~to_pid:(i mod 3))
    (leaf_ids t 3);
  Variable.run t;
  Alcotest.(check int) "p3 drained" 0 (List.length (leaf_ids t 3));
  Alcotest.(check bool) "joins happened" true (Variable.joins t > 0);
  Alcotest.(check bool) "unjoins happened" true (Variable.unjoins t > 0);
  (* the drained processor keeps only the root and the nodes it is PC of *)
  Driver.run_closed cl (Variable.api t)
    ~streams:(Scenario.search_streams ~keys ~procs:4 ~per_proc:64)
    ~window:4;
  let report = Verify.check cl in
  Scenario.check_verified "after drain" report;
  Scenario.all_search_results_correct cl keys

let test_join_concurrent_with_inserts () =
  (* Figure 6: inserts racing with joins.  Interleave migrations (which
     trigger joins) with a stream of inserts into the same region, then
     verify single-copy equivalence and history compatibility — this is
     the scenario the version-number catch-up rule exists for. *)
  let cfg = mk ~key_space:50_000 ~balance_period:60 () in
  let t = Variable.create cfg in
  let cl = Variable.cluster t in
  let rng = Rng.create 7 in
  let keys =
    Dbtree_workload.Workload.unique_keys rng ~key_space:12_000 ~count:500
  in
  let streams =
    Array.init 4 (fun pid ->
        Dbtree_workload.Workload.inserts
          ~keys:(Dbtree_workload.Workload.chunk keys ~parts:4).(pid))
  in
  Driver.run_closed cl (Variable.api t) ~streams ~window:2;
  let report = Verify.check cl in
  Scenario.check_verified "join/insert race" report;
  Alcotest.(check bool) "joins actually raced with updates" true
    (Variable.joins t > 0)

let test_remove_ops () =
  let cfg = mk () in
  let t = Variable.create cfg in
  let cl = Variable.cluster t in
  ignore (Variable.insert t ~origin:0 500 "x");
  Variable.run t;
  ignore (Variable.remove t ~origin:2 500);
  Variable.run t;
  let s = Variable.search t ~origin:1 500 in
  Variable.run t;
  Alcotest.(check bool) "removed" true
    ((Option.get (Opstate.find cl.Cluster.ops s)).Opstate.result = Some Msg.Absent);
  Scenario.check_verified "variable remove" (Verify.check cl)

let test_single_proc () =
  ignore (run_variable ~count:150 (mk ~procs:1 ()) "variable single proc")

let test_eight_procs () =
  ignore (run_variable ~count:500 (mk ~procs:8 ()) "variable 8 procs")

let test_membership_metadata_consistent () =
  (* After quiescence, every copy of a node must agree on the member set,
     and the PC's join_versions must mention only members. *)
  let cfg = mk ~balance_period:100 () in
  let t = Variable.create cfg in
  let cl = Variable.cluster t in
  let _ = Scenario.run_cluster ~api:(Variable.api t) ~cluster:cl ~cfg ~count:400 () in
  let views : (int, Msg.pid list list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun store ->
      Store.iter store (fun c ->
          let id = c.Store.node.Dbtree_blink.Node.id in
          let sorted = List.sort compare c.Store.members in
          Hashtbl.replace views id
            (sorted :: Option.value (Hashtbl.find_opt views id) ~default:[])))
    cl.Cluster.stores;
  (* dblint: allow no-nondeterminism -- per-node check, order-insensitive *)
  Hashtbl.iter
    (fun id view_list ->
      match view_list with
      | [] -> ()
      | first :: rest ->
        List.iter
          (fun v ->
            if v <> first then
              Alcotest.failf "node %d: diverging member views" id)
          rest)
    views;
  (* each node's copy count matches its member list *)
  (* dblint: allow no-nondeterminism -- per-node check, order-insensitive *)
  Hashtbl.iter
    (fun id views_of_node ->
      let copies = List.length views_of_node in
      let members = List.length (List.hd views_of_node) in
      if copies <> members then
        Alcotest.failf "node %d: %d copies but %d members" id copies members)
    views

let test_range_scan () =
  let cfg = mk ~balance_period:150 () in
  let t = Variable.create cfg in
  let cl = Variable.cluster t in
  for i = 1 to 300 do
    ignore (Variable.insert t ~origin:(i mod 4) (i * 100) (Fmt.str "v%d" i))
  done;
  Variable.run t;
  let cases = [ (150, 450); (5_000, 25_000); (0, 1_000_000) ] in
  let ops =
    List.map (fun (lo, hi) -> (Variable.scan t ~origin:3 ~lo ~hi, lo, hi)) cases
  in
  Variable.run t;
  List.iter (fun (op, lo, hi) -> Scenario.check_scan cl ~op ~lo ~hi) ops

(* Root adoption is monotone on level.  Once the root has grown two
   levels, a late New_root carrying the bootstrap root's snapshot reaches
   pid 1: pid 1 must keep the higher root, and the cluster must still
   verify.  Variable and Fixed (the second input) both hold a root copy
   on every processor, so the level comparison decides at pid 1. *)
let check_late_lower_root label cl (api : Driver.api) =
  let old_root = (Cluster.store cl 1).Store.root in
  for k = 1 to 300 do
    ignore (api.Driver.insert ~origin:(k mod 4) (k * 131) (string_of_int k))
  done;
  Cluster.run cl;
  let store = Cluster.store cl 1 in
  let root = store.Store.root in
  let level id = (Store.get store id).Store.node.Dbtree_blink.Node.level in
  Alcotest.(check bool)
    (label ^ ": root grew two levels") true
    (level root >= level old_root + 2);
  let stale = Store.get store old_root in
  Cluster.send cl ~src:0 ~dst:1
    (Msg.New_root
       {
         snap = Msg.snapshot_of_node stale.Store.node;
         members = stale.Store.members;
       });
  Cluster.run cl;
  Alcotest.(check int)
    (label ^ ": pid 1 keeps the higher root") root (Cluster.store cl 1).Store.root;
  Scenario.check_verified label (Verify.check cl)

let test_late_lower_root () =
  let t = Variable.create (mk ()) in
  check_late_lower_root "variable" (Variable.cluster t) (Variable.api t);
  let fixed =
    Fixed.create (Config.make ~procs:4 ~capacity:4 ~seed:42 ~key_space:50_000 ())
  in
  check_late_lower_root "fixed" (Fixed.cluster fixed) (Driver.fixed_api fixed)

let prop_random_variable_verifies =
  QCheck.Test.make ~name:"random variable clusters verify" ~count:15
    QCheck.(
      quad (int_range 1 6) (int_range 2 8) (int_range 20 120) (int_bound 1000))
    (fun (procs, capacity, count, seed) ->
      (* clamp: qcheck shrinking can escape int_range bounds *)
      let procs = max 1 procs and capacity = max 2 capacity in
      let count = max 1 count and seed = abs seed in
      let cfg = mk ~procs ~capacity ~seed ~balance_period:89 () in
      let t = Variable.create cfg in
      let cl = Variable.cluster t in
      let _, report =
        Scenario.run_cluster ~api:(Variable.api t) ~cluster:cl ~cfg ~count
          ~searches:8 ()
      in
      Verify.ok report)

let suite =
  [
    Alcotest.test_case "basic load" `Quick test_basic_load;
    Alcotest.test_case "seed sweep" `Slow test_seeds;
    Alcotest.test_case "balanced load" `Quick test_balanced_load;
    Alcotest.test_case "every park unparked (traced)" `Quick test_parks_unparked;
    Alcotest.test_case "drain forces unjoin + join" `Quick test_join_on_migration;
    Alcotest.test_case "joins racing inserts (Fig 6)" `Quick
      test_join_concurrent_with_inserts;
    Alcotest.test_case "distributed remove" `Quick test_remove_ops;
    Alcotest.test_case "single processor" `Quick test_single_proc;
    Alcotest.test_case "eight processors" `Slow test_eight_procs;
    Alcotest.test_case "membership metadata consistent" `Quick
      test_membership_metadata_consistent;
    Alcotest.test_case "range scan under balancing" `Quick test_range_scan;
    Alcotest.test_case "late lower New_root keeps the root" `Quick
      test_late_lower_root;
    QCheck_alcotest.to_alcotest prop_random_variable_verifies;
  ]
