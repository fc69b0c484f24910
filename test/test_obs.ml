(* Causal tracing pipeline: recorder mechanics, determinism of the
   export, zero observable effect when disabled, span reconstruction over
   a real concurrent run, and the Theorem 1 mechanics (a synchronous
   split's AAS blocks only initial updates — never searches) asserted
   from the trace instead of from counters. *)

open Dbtree_core
open Dbtree_workload
open Dbtree_sim
module Obs = Dbtree_obs.Obs
module Event = Dbtree_obs.Event
module Query = Dbtree_obs.Query
module Export = Dbtree_obs.Export

(* ---------------------------------------------------------------- *)
(* Recorder mechanics *)

let test_disabled_guard () =
  let id =
    Obs.emit Obs.disabled ~time:1 ~pid:0 ~op:0 ~parent:(-1)
      ~kind:Event.Op_issue ~a:0 ~b:0
  in
  Alcotest.(check int) "disabled emit returns -1" (-1) id;
  Alcotest.(check int) "nothing recorded" 0 (Obs.length Obs.disabled);
  Alcotest.(check bool) "disabled is off" false (Obs.on Obs.disabled)

let test_ring_wraparound () =
  let o = Obs.create ~enabled:true ~capacity:8 () in
  for i = 0 to 19 do
    ignore
      (Obs.emit o ~time:i ~pid:0 ~op:i ~parent:(-1) ~kind:Event.Op_issue
         ~a:0 ~b:i)
  done;
  Alcotest.(check int) "length counts all emissions" 20 (Obs.length o);
  Alcotest.(check int) "dropped = overflow" 12 (Obs.dropped o);
  let retained = Obs.events o in
  Alcotest.(check int) "ring retains capacity" 8 (List.length retained);
  Alcotest.(check int) "oldest retained id" 12 (List.hd retained).Obs.id;
  Alcotest.(check bool) "evicted id unresolvable" true (Obs.get o 3 = None);
  Alcotest.(check bool) "retained id resolves" true (Obs.get o 15 <> None)

let test_context () =
  let o = Obs.create ~enabled:true ~capacity:16 () in
  Obs.set_context o ~op:7 ~parent:3;
  let id = Obs.emit_here o ~time:1 ~pid:0 ~kind:Event.Relay ~a:0 ~b:0 in
  let e = Option.get (Obs.get o id) in
  Alcotest.(check int) "ambient op" 7 e.Obs.op;
  Alcotest.(check int) "ambient parent" 3 e.Obs.parent;
  Obs.reset_context o;
  let id = Obs.emit_here o ~time:2 ~pid:0 ~kind:Event.Relay ~a:0 ~b:0 in
  let e = Option.get (Obs.get o id) in
  Alcotest.(check int) "reset op" (-1) e.Obs.op

(* ---------------------------------------------------------------- *)
(* A small concurrent scenario (the E3 shape): two processors, shared
   parent copies, concurrent splits, lazy relays. *)

let inserts keys =
  Workload.of_list
    (List.map (fun k -> Workload.Insert (k, Workload.value_for k)) keys)

let searches keys =
  Workload.of_list (List.map (fun k -> Workload.Search k) keys)

let run_e3_style ~trace () =
  let cfg =
    Config.make ~procs:2 ~capacity:4 ~key_space:1000 ~discipline:Config.Semi
      ~replication:Config.All_procs ~seed:1 ~trace ()
  in
  let t = Fixed.create cfg in
  let cl = Fixed.cluster t in
  let streams =
    [| inserts [ 10; 20; 30; 40; 50 ]; inserts [ 510; 520; 530; 540; 550 ] |]
  in
  Driver.run_all cl (Driver.fixed_api t) ~streams;
  cl

let stats_render cl = Fmt.str "%a" Stats.pp (Cluster.stats cl)

let test_export_deterministic () =
  let a = run_e3_style ~trace:true () in
  let b = run_e3_style ~trace:true () in
  let ja = Export.to_string [ a.Cluster.obs ] in
  let jb = Export.to_string [ b.Cluster.obs ] in
  Alcotest.(check bool) "trace is non-trivial" true (String.length ja > 100);
  Alcotest.(check string) "same seed, byte-identical export" ja jb

let test_tracing_is_free () =
  (* Tracing must not schedule events, draw randomness, or perturb any
     statistic: the full stats rendering (counters and histograms) is
     byte-identical with tracing on and off. *)
  let off = run_e3_style ~trace:false () in
  let on = run_e3_style ~trace:true () in
  Alcotest.(check int) "off-path records nothing" 0 (Obs.length off.Cluster.obs);
  Alcotest.(check string)
    "stats identical with tracing on/off" (stats_render off) (stats_render on)

let test_spans_complete () =
  let cl = run_e3_style ~trace:true () in
  let obs = cl.Cluster.obs in
  let spans = Query.spans obs in
  Alcotest.(check int) "all ten ops traced" 10 (List.length spans);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Fmt.str "op %d span complete" s.Query.op)
        true (Query.complete_span obs s);
      Alcotest.(check bool)
        (Fmt.str "op %d has positive latency" s.Query.op)
        true
        (match Query.latency s with Some l -> l >= 0 | None -> false))
    spans;
  (* The concurrent splits relay inserts between the parent copies; the
     lineage must attribute relays and deliveries to their client ops. *)
  let total_hops = List.fold_left (fun n s -> n + s.Query.hops) 0 spans in
  let total_relays = List.fold_left (fun n s -> n + s.Query.relays) 0 spans in
  Alcotest.(check bool) "spans cross the wire" true (total_hops > 0);
  Alcotest.(check bool) "relays stitched into spans" true (total_relays > 0);
  Alcotest.(check (list int))
    "no op stalled at quiescence" []
    (List.map
       (fun s -> s.Query.op)
       (Query.stalled obs ~now:(Cluster.now cl) ~idle:0))

(* ---------------------------------------------------------------- *)
(* Theorem 1 mechanics from the trace: a synchronous split's AAS blocks
   only initial updates (inserts/deletes and parent child-entry updates),
   never searches. *)

let test_aas_blocks_only_updates () =
  let cfg =
    Config.make ~procs:2 ~capacity:4 ~key_space:1000 ~discipline:Config.Sync
      ~replication:Config.All_procs ~seed:3 ~trace:true ()
  in
  let t = Fixed.create cfg in
  let cl = Fixed.cluster t in
  let keys = List.init 40 (fun i -> ((i * 37) mod 200) + 1) in
  let streams = [| inserts keys; searches keys |] in
  Driver.run_closed cl (Driver.fixed_api t) ~streams ~window:4;
  let obs = cl.Cluster.obs in
  let events = Obs.events obs in
  let blocks =
    List.filter (fun e -> e.Obs.kind = Event.Aas_block) events
  in
  let windows = Query.aas_windows obs in
  Alcotest.(check bool) "synchronous splits did block" true (blocks <> []);
  Alcotest.(check bool) "AAS windows reconstructed" true (windows <> []);
  (* Every blocked update is an initial insert/delete (or a parent
     child-entry update, kind -1): searches are never AAS-blocked. *)
  List.iter
    (fun e ->
      Alcotest.(check bool)
        "blocked kind is an update, never a search/scan" true
        (e.Obs.b = Event.op_insert || e.Obs.b = Event.op_delete
       || e.Obs.b = -1))
    blocks;
  (* Lineage cross-check: no event of any search op's span is an
     [Aas_block]. *)
  let issues = List.filter (fun e -> e.Obs.kind = Event.Op_issue) events in
  let search_ops =
    List.filter_map
      (fun e -> if e.Obs.a = Event.op_search then Some e.Obs.op else None)
      issues
  in
  Alcotest.(check bool) "searches were traced" true (search_ops <> []);
  List.iter
    (fun op ->
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Fmt.str "search op %d never AAS-blocked" op)
            true
            (e.Obs.kind <> Event.Aas_block))
        (Query.by_op obs op))
    search_ops;
  (* Searches kept completing inside the blocking windows: at least one
     search finished while some AAS was holding. *)
  let search_done_during_aas =
    List.exists
      (fun e ->
        e.Obs.kind = Event.Op_complete
        && e.Obs.a = Event.op_search
        && List.exists
             (fun w -> e.Obs.time >= w.Query.aas_from && e.Obs.time <= w.Query.aas_until)
             windows)
      events
  in
  Alcotest.(check bool)
    "some search completed during an AAS window" true search_done_during_aas

(* ---------------------------------------------------------------- *)
(* Export: schema validation round-trip *)

let test_export_validates () =
  let cl = run_e3_style ~trace:true () in
  let json = Export.to_string [ cl.Cluster.obs ] in
  match Export.validate json with
  | Ok n -> Alcotest.(check bool) "events exported" true (n > 0)
  | Error e -> Alcotest.fail ("export does not validate: " ^ e)

let test_validate_rejects_garbage () =
  Alcotest.(check bool)
    "non-JSON rejected" true
    (Result.is_error (Export.validate "not json at all"));
  Alcotest.(check bool)
    "wrong shape rejected" true
    (Result.is_error (Export.validate "{\"traceEvents\":7}"));
  Alcotest.(check bool)
    "unknown phase rejected" true
    (Result.is_error
       (Export.validate
          "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Z\",\"pid\":0,\"tid\":0,\"ts\":1}]}"));
  (* One event with a control character in its name, spelled three
     ways: as a four-digit [\u] escape (valid), as the raw byte (JSON
     requires it escaped) and as a [\u] escape that is not four hex
     digits. *)
  let event name =
    "{\"traceEvents\":[{\"name\":\"" ^ name
    ^ "\",\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":1}]}"
  in
  Alcotest.(check bool)
    "well-formed event accepted" true
    (Result.is_ok (Export.validate (event "a\\u0001b")));
  Alcotest.(check bool)
    "raw control byte rejected" true
    (Result.is_error (Export.validate (event "a\001b")));
  Alcotest.(check bool)
    "non-hex \\u escape rejected" true
    (Result.is_error (Export.validate (event "a\\u1_23b")))

(* ---------------------------------------------------------------- *)
(* The force switch across domains: the race this PR fixed.  Forcing
   tracing and then creating rings from inside a [Par.map] must register
   every ring exactly once (pre-fix, [registry := t :: !registry] from
   four domains could lose entries), and two identical parallel runs
   must agree.  Creation *order* across domains is scheduling-dependent,
   so the stable view is the sorted label set. *)

let test_forced_registry_complete_under_par () =
  let run () =
    Obs.clear_registered ();
    Obs.force_enable ~capacity:4096 ();
    Fun.protect ~finally:Obs.force_disable (fun () ->
        let rings =
          Par.map ~domains:4
            (fun i ->
              let o = Obs.create ~capacity:1024 ~label:(Fmt.str "cell%d" i) () in
              for t = 1 to 10 do
                ignore
                  (Obs.emit o ~time:t ~pid:i ~op:t ~parent:(-1)
                     ~kind:Event.Op_issue ~a:0 ~b:t)
              done;
              o)
            (Array.init 6 (fun i -> i))
        in
        Array.iter
          (fun o ->
            Alcotest.(check bool) "forced ring enabled" true (Obs.on o);
            Alcotest.(check int) "all emits recorded" 10 (Obs.length o))
          rings;
        List.sort compare (List.map Obs.label (Obs.registered ())))
  in
  let labels = run () in
  Alcotest.(check (list string))
    "registry complete after the join"
    (List.init 6 (Fmt.str "cell%d"))
    labels;
  Alcotest.(check (list string)) "and deterministic across runs" labels (run ());
  Alcotest.(check bool) "force_disable took" false (Obs.forced ());
  Obs.clear_registered ();
  Alcotest.(check int) "registry cleared" 0 (List.length (Obs.registered ()))

let suite =
  [
    Alcotest.test_case "obs: disabled guard" `Quick test_disabled_guard;
    Alcotest.test_case "obs: forced registry complete under Par" `Quick
      test_forced_registry_complete_under_par;
    Alcotest.test_case "obs: ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "obs: ambient context" `Quick test_context;
    Alcotest.test_case "export: deterministic" `Quick test_export_deterministic;
    Alcotest.test_case "tracing: observably free when off" `Quick
      test_tracing_is_free;
    Alcotest.test_case "query: spans complete on traced run" `Quick
      test_spans_complete;
    Alcotest.test_case "theorem 1: AAS blocks only updates" `Quick
      test_aas_blocks_only_updates;
    Alcotest.test_case "export: validates" `Quick test_export_validates;
    Alcotest.test_case "export: validator rejects garbage" `Quick
      test_validate_rejects_garbage;
  ]
