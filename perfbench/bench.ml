(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   A run covers [subseeds] independently seeded instances of the
   workload (sub-seeds [N * subseeds + i]): one tree's shape moves tail
   latencies and per-op costs by several percent, and pooling a few
   trees keeps those figures steady from one seed to the next.

   [--trace 0] repeats untraced rounds, cycling through the sub-seeds,
   until [S] seconds are spent (at least [min_rounds]), and prints the
   end-to-end metrics.  Simulated and allocation metrics pool the first
   round of each sub-seed, and every repeat of a sub-seed must reproduce
   them exactly (minor words are deterministic between untraced rounds;
   collection counts are not).  Host-clock metrics are medians over all
   rounds.

   [--trace 1] runs sub-seed 1, then sub-seed 0 untraced, traced and
   untraced again; it checks that tracing changed nothing simulated and
   that the seed did, and prints the per-layer metrics of sub-seed 0;
   [--spans] writes the traced round's spans.

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics]. *)

let subseeds = 3

(* One repeat of a sub-seed at least, so every run checks determinism. *)
let min_rounds = subseeds + 1
let max_rounds = 40

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("bench: " ^ s); exit 2) fmt

type metric = { name : string; unit : string; value : float }

let m name unit value = { name; unit; value }
let fi = float_of_int
let per x n = fi x /. fi (max 1 n)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile sorted permille = fi (Round.nearest_rank sorted permille)

(* A round's outputs are right when every measured op completed with its
   expected answer, the quiescent audit holds and the WAL replays to the
   live stores. *)
let audit_ok (r : Round.t) = r.Round.verify_ok && r.Round.replay_ok

let ok_ops (r : Round.t) = if audit_ok r then r.Round.ok else 0

(* Everything the simulation decides: it must repeat exactly for one
   seed, traced or not. *)
let simulated (r : Round.t) =
  ( r.Round.deltas,
    [
      r.Round.completed; r.Round.ok; r.Round.sim_ticks; r.Round.issued_total;
      r.Round.completed_total; r.Round.outstanding_end; r.Round.store_nodes;
      r.Round.store_copies; r.Round.parked_end; r.Round.wal_snapshot_bytes;
      r.Round.replay_records;
    ],
    r.Round.hottest_inbound,
    r.Round.reads,
    r.Round.writes )

(* [pool] is the first round of each sub-seed: totals, pooled latency
   samples and ratios of sums over them. *)
let end_to_end (pool : Round.t list) ~host ~peak_heap_mb =
  let sum f = List.fold_left (fun n r -> n + f r) 0 pool in
  let ops = sum (fun r -> r.Round.completed) in
  let merged f =
    let a = Array.concat (List.map f pool) in
    Array.sort Int.compare a;
    a
  in
  let reads = merged (fun r -> r.Round.reads) and writes = merged (fun r -> r.Round.writes) in
  let minor = List.fold_left (fun n r -> n +. r.Round.minor_words) 0.0 pool in
  [
    m "ops_per_s" "ops/s"
      (host (fun (r : Round.t) -> fi r.Round.completed /. (fi r.Round.measure_ns /. 1e9)));
    m "events_per_s" "events/s"
      (host (fun r -> fi (Round.delta r "events") /. (fi r.Round.measure_ns /. 1e9)));
    m "setup_s" "s" (host (fun r -> fi r.Round.setup_ns /. 1e9));
    m "alloc_words_per_op" "words/op" (minor /. fi (max 1 ops));
    m "peak_heap_mb" "MB" peak_heap_mb;
    m "sim_ops_per_ktick" "ops/ktick" (1000.0 *. per ops (sum (fun r -> r.Round.sim_ticks)));
    m "read_p50_ticks" "ticks" (percentile reads 500);
    m "read_p999_ticks" "ticks" (percentile reads 999);
    m "write_p50_ticks" "ticks" (percentile writes 500);
    m "write_p999_ticks" "ticks" (percentile writes 999);
    m "msgs_per_op" "msgs/op" (per (sum (fun r -> Round.delta r "remote")) ops);
    m "ok_ops_pct" "%" (100.0 *. per (sum ok_ops) (sum (fun r -> r.Round.attempted)));
  ]

let per_layer ~(rf : Round.t) ~(tr : Round.t) ~untraced_ns =
  let ops = rf.Round.completed in
  let d name = Round.delta rf name in
  let ta = tr.Round.tally in
  let drain = fi (max 1 ta.Round.t_drain_ns) in
  let steps_ns = Array.fold_left ( +. ) 0.0 ta.Round.t_busy_ns in
  let steps = Round.Vec.sorted ta.Round.t_steps in
  let aas = Round.Vec.sorted ta.Round.t_aas in
  let handlers =
    List.concat
      (List.init (Round.other + 1) (fun kind ->
           let name = Round.kind_name kind in
           [
             m (Printf.sprintf "handler.%s.count" name) "count" (fi ta.Round.t_count.(kind));
             m (Printf.sprintf "handler.%s.busy_pct" name) "%"
               (100.0 *. ta.Round.t_busy_ns.(kind) /. drain);
           ]))
  in
  let relays = d "relay_applied" + d "relay_discarded" in
  [
    m "sim.events_per_op" "events/op" (per (d "events") ops);
    m "sim.busy_s" "s" (steps_ns /. 1e9);
    m "sim.ns_per_event" "ns" (per rf.Round.measure_ns (d "events"));
    m "sim.step_p50_ns" "ns" (percentile steps 500);
    m "sim.step_p99_ns" "ns" (percentile steps 990);
    m "sim.step_overhead_pct" "%" (100.0 *. (drain -. steps_ns) /. drain);
  ]
  @ handlers
  @ [
      m "kernel.issue.calls" "count" (fi ta.Round.t_issue_calls);
      m "kernel.issue.busy_s" "s" (fi ta.Round.t_issue_total_ns /. 1e9);
      m "kernel.route_hops_per_op" "hops/op" (per (d "route_hops") ops);
      m "kernel.route_chase_per_op" "chases/op" (per (d "route_chase") ops);
      m "kernel.route_parked" "count" (fi (d "route_parked"));
      m "kernel.splits" "count" (fi (d "splits"));
      m "kernel.split_blocked_updates" "count" (fi (d "split_blocked_updates"));
      m "kernel.aas_count" "count" (fi (d "aas_count"));
      m "kernel.aas_p99_ticks" "ticks" (percentile aas 990);
      m "kernel.relay_applied" "count" (fi (d "relay_applied"));
      m "kernel.relay_discarded" "count" (fi (d "relay_discarded"));
      m "kernel.relay_useful_ratio" "ratio"
        (if relays = 0 then 1.0 else per (d "relay_applied") relays);
      m "kernel.semi_forwarded" "count" (fi (d "semi_forwarded"));
      m "kernel.recover_count" "count" (fi (d "recover_count"));
      m "kernel.migrations" "count" (fi (d "migrations"));
      m "kernel.joins" "count" (fi (d "joins"));
      m "kernel.unjoins" "count" (fi (d "unjoins"));
      m "net.remote_msgs_per_op" "msgs/op" (per (d "remote") ops);
      m "net.local_msgs_per_op" "msgs/op" (per (d "local") ops);
      m "net.bytes_per_op" "bytes/op" (per (d "bytes") ops);
      m "net.rel.retx_per_op" "frames/op" (per (d "retx") ops);
      m "net.rel.acks_per_op" "frames/op" (per (d "acks") ops);
      m "net.rel.dup_dropped" "count" (fi (d "dup_dropped"));
      m "net.rel.reordered_held" "count" (fi (d "reordered_held"));
      (* Under [Reliable] every data frame not retransmitted is delivered
         exactly once, so first deliveries = wire frames - retx - acks. *)
      m "net.goodput_ratio" "ratio" (per (d "remote" - d "retx" - d "acks") (d "remote"));
      m "net.hottest_inbound_pct" "%" rf.Round.hottest_inbound;
      m "store.nodes" "count" (fi rf.Round.store_nodes);
      m "store.copies" "count" (fi rf.Round.store_copies);
      m "store.copies_per_node" "copies/node" (per rf.Round.store_copies rf.Round.store_nodes);
      m "store.parked_end" "count" (fi rf.Round.parked_end);
      m "opstate.issued" "count" (fi rf.Round.issued_total);
      m "opstate.completed" "count" (fi rf.Round.completed_total);
      m "opstate.outstanding_end" "count" (fi rf.Round.outstanding_end);
      m "opstate.read_samples" "count" (fi (Array.length rf.Round.reads));
      m "opstate.write_samples" "count" (fi (Array.length rf.Round.writes));
      m "wal.records_per_op" "records/op" (per (d "wal_records") ops);
      m "wal.bytes_per_op" "bytes/op" (per (d "wal_bytes") ops);
      m "wal.snapshots" "count" (fi (d "wal_snapshots"));
      m "wal.snapshot_bytes" "bytes" (fi rf.Round.wal_snapshot_bytes);
      m "wal.replay_records_per_ms" "records/ms"
        (per tr.Round.replay_records 1 /. (fi (max 1 tr.Round.replay_ns) /. 1e6));
      m "wal.replay_records" "count" (fi tr.Round.replay_records);
      m "verify.busy_s" "s" (fi tr.Round.verify_ns /. 1e9);
      m "verify.ok" "bool" (if audit_ok rf && audit_ok tr then 1.0 else 0.0);
      m "gc.minor_collections" "count" (fi rf.Round.minor_collections);
      m "gc.major_collections" "count" (fi rf.Round.major_collections);
      m "gc.promoted_words_per_op" "words/op" (rf.Round.promoted_words /. fi (max 1 ops));
      m "trace.overhead_pct" "%"
        (100.0 *. (1.0 -. (fi untraced_ns /. fi tr.Round.measure_ns)));
    ]

(* The traced round's spans, aggregated per message kind, in host ns
   from the round's start.  Self time is a span's duration less the part
   its children cover. *)
let write_spans path ~workload ~sub_seed (tr : Round.t) =
  let ta = tr.Round.tally in
  let mark name = List.assoc name tr.Round.marks in
  let spans = ref [] and next = ref 0 in
  let add ?(count = 1) ?busy name parent ~start ~stop ~children =
    let id = !next in
    incr next;
    let busy = match busy with Some b -> b | None -> fi (stop - start) in
    spans := (id, name, parent, start, stop, count, busy, busy -. children) :: !spans;
    id
  in
  let sum = List.fold_left ( +. ) 0.0 in
  let dur a b = fi (mark b - mark a) in
  let round_end = mark "replay_end" in
  let round =
    add "round" (-1) ~start:0 ~stop:round_end
      ~children:
        (sum
           [
             fi (mark "setup_end"); dur "measure_start" "measure_end";
             dur "verify_start" "verify_end"; dur "replay_start" "replay_end";
           ])
  in
  let setup =
    add "setup" round ~start:0 ~stop:(mark "setup_end") ~children:(fi (mark "setup_end"))
  in
  ignore (add "create" setup ~start:0 ~stop:(mark "created") ~children:0.0);
  ignore (add "preload" setup ~start:(mark "created") ~stop:(mark "setup_end") ~children:0.0);
  let measure =
    add "measure" round ~start:(mark "measure_start") ~stop:(mark "measure_end")
      ~children:(dur "measure_start" "primed" +. dur "primed" "drained")
  in
  let prime =
    add "prime" measure ~start:(mark "measure_start") ~stop:(mark "primed")
      ~children:(fi ta.Round.t_prime_issue_ns)
  in
  ignore
    (add "kernel.issue" prime ~start:(mark "measure_start") ~stop:(mark "primed")
       ~busy:(fi ta.Round.t_prime_issue_ns) ~children:0.0);
  let steps = Array.fold_left ( +. ) 0.0 ta.Round.t_busy_ns in
  let drain =
    add "drain" measure ~start:(mark "primed") ~stop:(mark "drained") ~children:steps
  in
  for kind = 0 to Round.other do
    if ta.Round.t_count.(kind) > 0 then begin
      let name = Round.kind_name kind in
      let step =
        add ("handler." ^ name) drain ~start:(mark "primed") ~stop:(mark "drained")
          ~count:ta.Round.t_count.(kind) ~busy:ta.Round.t_busy_ns.(kind)
          ~children:ta.Round.t_issue_ns.(kind)
      in
      if ta.Round.t_issue_ns.(kind) > 0.0 then
        ignore
          (add "kernel.issue" step ~start:(mark "primed") ~stop:(mark "drained")
             ~busy:ta.Round.t_issue_ns.(kind) ~children:0.0)
    end
  done;
  ignore (add "verify" round ~start:(mark "verify_start") ~stop:(mark "verify_end") ~children:0.0);
  ignore
    (add "wal_replay" round ~start:(mark "replay_start") ~stop:(mark "replay_end") ~children:0.0);
  let oc = open_out path in
  Printf.fprintf oc "{\"workload\": %S, \"sub_seed\": %d, \"clock\": \"host monotonic ns from round start\",\n \"spans\": [\n" workload sub_seed;
  List.iteri
    (fun i (id, name, parent, start, stop, count, busy, self) ->
      Printf.fprintf oc
        "  %s{\"id\": %d, \"name\": %S, \"parent\": %s, \"start_ns\": %d, \"end_ns\": %d, \"count\": %d, \"busy_ns\": %.0f, \"self_ns\": %.0f}\n"
        (if i = 0 then "" else ",")
        id name
        (if parent < 0 then "null" else string_of_int parent)
        start stop count busy self)
    (List.rev !spans);
  output_string oc " ]}\n";
  close_out oc

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else fail "non-finite metric value"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.printf "  %-32s %18s %s\n" x.name (json_number x.value) x.unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let describe_round i (r : Round.t) =
  Printf.printf
    "round %d: setup %.3f s, measured %d ops in %.3f s, verify %.3f s, replay %.3f s, ok %d/%d, audit %b\n%!"
    i (fi r.Round.setup_ns /. 1e9) r.Round.completed (fi r.Round.measure_ns /. 1e9)
    (fi r.Round.verify_ns /. 1e9) (fi r.Round.replay_ns /. 1e9) (ok_ops r) r.Round.attempted
    (audit_ok r)

(* Absolute handler times of a traced round, for the log. *)
let describe_handlers (tr : Round.t) =
  let ta = tr.Round.tally in
  Printf.printf "traced drain %.3f s; per kind: deliveries, busy s, of which Driver.api s\n"
    (fi ta.Round.t_drain_ns /. 1e9);
  for kind = 0 to Round.other do
    if ta.Round.t_count.(kind) > 0 then
      Printf.printf "  %-20s %9d %10.6f %10.6f\n"
        (Round.kind_name kind)
        ta.Round.t_count.(kind) (ta.Round.t_busy_ns.(kind) /. 1e9)
        (ta.Round.t_issue_ns.(kind) /. 1e9)
  done

let failed_ops (r : Round.t) = r.Round.attempted - ok_ops r

let mismatch what = Printf.eprintf "bench: determinism check failed: %s\n%!" what

let top_heap_mb () = fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S host seconds to spend on measured rounds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--spans", Arg.Set_string spans, "FILE write the traced round's spans here");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match Spec.find !workload with
    | Some w -> w
    | None ->
      fail "unknown workload %S (have: %s)" !workload
        (String.concat ", " (List.map (fun w -> w.Spec.name) Spec.all))
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let sub i = (!seed * subseeds) + i in
  let g0 = Round.now_ns () in
  let inputs = Array.init subseeds (fun i -> Spec.inputs w ~seed:(sub i)) in
  Printf.printf
    "workload %s, seed %d: sub-seeds %d..%d, each %d preload + %d measured ops; generated in %.3f s\n%!"
    w.Spec.name !seed (sub 0) (sub (subseeds - 1))
    (Round.total inputs.(0).Spec.preload_ops)
    (Round.total inputs.(0).Spec.measured_ops)
    (fi (Round.now_ns () - g0) /. 1e9);
  let round i ~traced = Round.run w inputs.(i) ~seed:(sub i) ~traced in
  if !trace = 0 then begin
    let budget = !seconds * 1_000_000_000 in
    let t0 = Round.now_ns () in
    let peak_heap_mb = ref 0.0 in
    let rec loop acc n =
      let elapsed = Round.now_ns () - t0 in
      if n >= max_rounds || (n >= min_rounds && elapsed + (elapsed / max 1 n) > budget)
      then Array.of_list (List.rev acc)
      else begin
        let r = round (n mod subseeds) ~traced:false in
        describe_round n r;
        (* The peak heap is a process-wide high-water mark: read it after
           the first round, while it is still this workload's own. *)
        if n = 0 then peak_heap_mb := top_heap_mb ();
        Gc.compact ();
        loop (r :: acc) (n + 1)
      end
    in
    let rounds = loop [] 0 in
    let repeats_ok = ref true in
    Array.iteri
      (fun n r ->
        let first = rounds.(n mod subseeds) in
        if simulated r <> simulated first || r.Round.minor_words <> first.Round.minor_words
        then begin
          repeats_ok := false;
          mismatch (Printf.sprintf "round %d differs from round %d of the same sub-seed" n
                      (n mod subseeds))
        end)
      rounds;
    let all = Array.to_list rounds in
    let host f = median (List.map f all) in
    let pool = Array.to_list (Array.sub rounds 0 subseeds) in
    Printf.printf "%d rounds; pooled samples: %d reads, %d writes\n" (Array.length rounds)
      (List.fold_left (fun n r -> n + Array.length r.Round.reads) 0 pool)
      (List.fold_left (fun n r -> n + Array.length r.Round.writes) 0 pool);
    print_result
      ~correct:(!repeats_ok && List.for_all (fun r -> failed_ops r = 0) all)
      ~attempted:(List.fold_left (fun n r -> n + r.Round.attempted) 0 all)
      ~failed:(List.fold_left (fun n r -> n + failed_ops r) 0 all)
      (end_to_end pool ~host ~peak_heap_mb:!peak_heap_mb)
  end
  else begin
    (* Sub-seed 1 first: it warms the process up and checks the seed is
       used.  The traced round then sits between two untraced rounds of
       the same sub-seed, which it must reproduce and against whose mean
       its overhead is taken. *)
    let rounds =
      List.mapi
        (fun n (i, traced) ->
          let r = round i ~traced in
          describe_round n r;
          if traced then describe_handlers r;
          Gc.compact ();
          r)
        [ (1, false); (0, false); (0, true); (0, false) ]
    in
    let other, rf, tr, rf' =
      match rounds with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
    in
    let traced_same = simulated tr = simulated rf && simulated rf' = simulated rf in
    if not traced_same then mismatch "the traced round's simulation differs from the untraced one";
    let seed_used = simulated other <> simulated rf in
    if not seed_used then mismatch (Printf.sprintf "sub-seeds %d and %d simulate identically" (sub 0) (sub 1));
    if !spans <> "" then write_spans !spans ~workload:w.Spec.name ~sub_seed:(sub 0) tr;
    print_result
      ~correct:(traced_same && seed_used && List.for_all (fun r -> failed_ops r = 0) rounds)
      ~attempted:(List.fold_left (fun n r -> n + r.Round.attempted) 0 rounds)
      ~failed:(List.fold_left (fun n r -> n + failed_ops r) 0 rounds)
      (per_layer ~rf ~tr ~untraced_ns:((rf.Round.measure_ns + rf'.Round.measure_ns) / 2))
  end
