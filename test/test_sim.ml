(* Tests for the simulator substrate: rng, stats, event loop, and the
   FIFO network guarantees every protocol relies on. *)
open Dbtree_sim

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  (* Drawing from the child must not perturb the parent relative to a
     parent that split and then drew nothing from the child. *)
  let a' = Rng.create 7 in
  let _ = Rng.split a' in
  for _ = 1 to 10 do
    ignore (Rng.bits64 c)
  done;
  Alcotest.(check int64) "parent unaffected" (Rng.bits64 a') (Rng.bits64 a)

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done;
  for _ = 1 to 1000 do
    let x = Rng.int_in rng (-5) 5 in
    Alcotest.(check bool) "in closed range" true (x >= -5 && x <= 5)
  done

let test_rng_permutation () =
  let rng = Rng.create 11 in
  let p = Rng.permutation rng 50 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 Fun.id) sorted

(* Overflow keys: integer order on packed keys is lexicographic order
   on (time, seq) across the whole packable range, and the time
   component round-trips. *)
let prop_pack_order =
  let time = QCheck.int_bound (Wheel.max_time - 1)
  and seq = QCheck.int_bound (Wheel.max_seq - 1) in
  QCheck.Test.make ~name:"packed keys order like (time, seq)" ~count:1000
    QCheck.(pair (pair time seq) (triple bool time seq))
    (fun ((t1, s1), (same_time, t2, s2)) ->
      (* half the pairs share a time, so the seq tie-break is exercised *)
      let t2 = if same_time then t1 else t2 in
      let k1 = Wheel.pack ~time:t1 ~seq:s1 and k2 = Wheel.pack ~time:t2 ~seq:s2 in
      k1 >= 0
      && Wheel.time_of_key k1 = t1
      && k1 < k2 = (t1 < t2 || (t1 = t2 && s1 < s2))
      && k1 = k2 = (t1 = t2 && s1 = s2))

(* The wheel must reproduce the single-heap (time, insertion) order
   exactly — including across the window/overflow boundary and for
   same-timestamp batches.  Driver: random interleavings of schedule
   (delays chosen to straddle [Wheel.window]) and pop, checked against a
   stable-minimum model over the insertion list. *)
let prop_wheel_order =
  QCheck.Test.make ~name:"wheel matches (time, insertion) model" ~count:500
    QCheck.(pair (int_bound 3) (list (option (int_bound (3 * Wheel.window)))))
    (fun (divisor, ops) ->
      (* [divisor] skews delays toward the interesting boundaries. *)
      let w = Wheel.create () in
      let cell = Wheel.make_cell () in
      let model = ref [] in
      (* insertion order; stable min = pop order *)
      let now = ref 0 in
      let next_id = ref 0 in
      let ok = ref true in
      let stable_min l =
        List.fold_left
          (fun best (time, id) ->
            match best with
            | Some (bt, _) when bt <= time -> best
            | _ -> Some (time, id))
          None l
      in
      List.iter
        (fun op ->
          (match op with
          | Some delay ->
            let time = !now + (delay / (divisor + 1)) in
            let id = !next_id in
            incr next_id;
            Wheel.schedule_typed w ~time ~h:id ~a:0 ~b:0 ~c:0 ~o:(Obj.repr 0);
            model := !model @ [ (time, id) ]
          | None -> (
            match stable_min !model with
            | None ->
              if Wheel.pop_into w cell then ok := false;
              if Wheel.next_time w <> max_int then ok := false
            | Some (time, id) ->
              if Wheel.next_time w <> time then ok := false;
              if not (Wheel.pop_into w cell) then ok := false
              else begin
                if cell.Wheel.time <> time || cell.Wheel.h <> id then
                  ok := false;
                now := time;
                model := List.filter (fun (_, i) -> i <> id) !model
              end));
          if Wheel.length w <> List.length !model then ok := false)
        ops;
      !ok)

(* Exact active-window boundary, pinned (the audit found no off-by-one;
   these cases keep it that way).  From a drained position [p], delay
   [window - 1] is the last ring bucket; delay [window] would land on the
   slot currently draining and must take the overflow heap instead.
   Either way pop order stays exact (time, insertion) order. *)
let test_wheel_window_boundary () =
  let w = Wheel.create () in
  let cell = Wheel.make_cell () in
  let sched time h =
    Wheel.schedule_typed w ~time ~h ~a:0 ~b:0 ~c:0 ~o:(Obj.repr 0)
  in
  let pop_expect time h =
    Alcotest.(check int) "next_time" time (Wheel.next_time w);
    Alcotest.(check bool) "pop" true (Wheel.pop_into w cell);
    Alcotest.(check int) "pop time" time cell.Wheel.time;
    Alcotest.(check int) "pop id" h cell.Wheel.h
  in
  (* from position 0, scheduled out of order on purpose *)
  sched (Wheel.window + 1) 3;
  sched (Wheel.window - 1) 1;
  sched Wheel.window 2;
  Alcotest.(check int) "window and window+1 overflowed" 2
    (Wheel.overflow_seq w);
  pop_expect (Wheel.window - 1) 1;
  pop_expect Wheel.window 2;
  pop_expect (Wheel.window + 1) 3;
  (* the same boundary relative to an advanced drained position *)
  let p = Wheel.window + 1 in
  let base = Wheel.overflow_seq w in
  sched (p + Wheel.window - 1) 4;
  Alcotest.(check int) "window-1 from pos stays in the ring" base
    (Wheel.overflow_seq w);
  sched (p + Wheel.window) 5;
  Alcotest.(check int) "window from pos overflows" (base + 1)
    (Wheel.overflow_seq w);
  pop_expect (p + Wheel.window - 1) 4;
  pop_expect (p + Wheel.window) 5;
  Alcotest.(check bool) "drained" false (Wheel.pop_into w cell)

(* An event scheduled for the tick that is currently draining (delay 0
   from inside a handler — e.g. a restart landing on the restart tick
   itself) fires later in the same tick in insertion order, not a full
   window lap later. *)
let test_wheel_drained_tick_reschedule () =
  let w = Wheel.create () in
  let cell = Wheel.make_cell () in
  let sched time h =
    Wheel.schedule_typed w ~time ~h ~a:0 ~b:0 ~c:0 ~o:(Obj.repr 0)
  in
  let pop_expect time h =
    Alcotest.(check bool) "pop" true (Wheel.pop_into w cell);
    Alcotest.(check int) "pop time" time cell.Wheel.time;
    Alcotest.(check int) "pop id" h cell.Wheel.h
  in
  sched 5 1;
  pop_expect 5 1;
  (* tick 5 is now the drained position *)
  sched 5 2;
  sched 6 4;
  sched 5 3;
  pop_expect 5 2;
  pop_expect 5 3;
  pop_expect 6 4;
  Alcotest.(check bool) "drained" false (Wheel.pop_into w cell)

(* The same two edges through the public simulator API: a restart-style
   delay of exactly [Wheel.window] and a delay-0 self-reschedule both
   fire, at the expected times. *)
let test_sim_window_delay () =
  let sim = Sim.create ~seed:1 () in
  let fired = ref [] in
  Sim.schedule sim ~delay:3 (fun () ->
      let t0 = Sim.now sim in
      Sim.schedule sim ~delay:Wheel.window (fun () ->
          fired := ("window", Sim.now sim - t0) :: !fired);
      Sim.schedule sim ~delay:0 (fun () ->
          fired := ("zero", Sim.now sim - t0) :: !fired));
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "fire offsets" [ ("window", Wheel.window); ("zero", 0) ] !fired

(* Random schedule/pop interleavings concentrated within a few ticks of
   the window boundary, against the same stable-minimum model. *)
let prop_wheel_boundary =
  QCheck.Test.make ~name:"wheel boundary delays match model" ~count:300
    QCheck.(list (option (int_bound 8)))
    (fun ops ->
      let w = Wheel.create () in
      let cell = Wheel.make_cell () in
      let model = ref [] in
      let now = ref 0 in
      let next_id = ref 0 in
      let ok = ref true in
      let stable_min l =
        List.fold_left
          (fun best (time, id) ->
            match best with
            | Some (bt, _) when bt <= time -> best
            | _ -> Some (time, id))
          None l
      in
      List.iter
        (fun op ->
          (match op with
          | Some k ->
            (* delays window-4 .. window+4 around the drained position *)
            let time = !now + Wheel.window - 4 + k in
            let id = !next_id in
            incr next_id;
            Wheel.schedule_typed w ~time ~h:id ~a:0 ~b:0 ~c:0 ~o:(Obj.repr 0);
            model := !model @ [ (time, id) ]
          | None -> (
            match stable_min !model with
            | None ->
              if Wheel.pop_into w cell then ok := false;
              if Wheel.next_time w <> max_int then ok := false
            | Some (time, id) ->
              if Wheel.next_time w <> time then ok := false;
              if not (Wheel.pop_into w cell) then ok := false
              else begin
                if cell.Wheel.time <> time || cell.Wheel.h <> id then
                  ok := false;
                now := time;
                model := List.filter (fun (_, i) -> i <> id) !model
              end));
          if Wheel.length w <> List.length !model then ok := false)
        ops;
      !ok)

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr ~by:4 s "a";
  Stats.incr s "b.x";
  Stats.incr s "b.y";
  Alcotest.(check int) "counter" 5 (Stats.get s "a");
  Alcotest.(check int) "absent counter" 0 (Stats.get s "zzz");
  Alcotest.(check int) "prefix sum" 2 (Stats.get_prefix s "b.");
  Stats.observe s "lat" 10.0;
  Stats.observe s "lat" 30.0;
  let sum = Option.get (Stats.summary s "lat") in
  Alcotest.(check int) "observations" 2 sum.Stats.count;
  Alcotest.(check (float 0.001)) "mean" 20.0 (Stats.mean sum);
  Alcotest.(check (float 0.001)) "min" 10.0 sum.Stats.min;
  Alcotest.(check (float 0.001)) "max" 30.0 sum.Stats.max

let test_stats_interned () =
  let s = Stats.create () in
  let c = Stats.counter s "hot.counter" in
  Alcotest.(check bool) "same handle" true (c == Stats.counter s "hot.counter");
  (* interned but untouched: invisible in listings *)
  Alcotest.(check (list (pair string int))) "zero hidden" [] (Stats.counters s);
  Stats.tick c;
  Stats.add c 4;
  Alcotest.(check int) "handle and string key agree" 5 (Stats.get s "hot.counter");
  Stats.incr ~by:2 s "hot.counter";
  Alcotest.(check int) "string incr lands on the handle" 7 (Stats.value c);
  Alcotest.(check (list (pair string int)))
    "listed once nonzero" [ ("hot.counter", 7) ] (Stats.counters s);
  Stats.reset s;
  Alcotest.(check int) "reset zeroes" 0 (Stats.get s "hot.counter");
  Stats.tick c;
  Alcotest.(check int) "handle survives reset" 1 (Stats.get s "hot.counter")

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:10 (fun () -> log := 10 :: !log);
  Sim.schedule sim ~delay:5 (fun () -> log := 5 :: !log);
  Sim.schedule sim ~delay:5 (fun () -> log := 6 :: !log);
  Sim.schedule sim ~delay:0 (fun () -> log := 0 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "time order, FIFO ties" [ 0; 5; 6; 10 ]
    (List.rev !log);
  Alcotest.(check int) "clock at last event" 10 (Sim.now sim)

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then begin
      incr count;
      Sim.schedule sim ~delay:1 (fun () -> chain (n - 1))
    end
  in
  Sim.schedule sim ~delay:0 (fun () -> chain 50);
  Sim.run sim;
  Alcotest.(check int) "all chained events ran" 50 !count;
  Alcotest.(check int) "quiescent" 0 (Sim.pending sim)

let test_sim_budget () =
  let sim = Sim.create () in
  let rec forever () = Sim.schedule sim ~delay:1 forever in
  Sim.schedule sim ~delay:0 forever;
  Alcotest.check_raises "budget backstop" Sim.Budget_exhausted (fun () ->
      Sim.run ~max_events:100 sim)

let test_sim_max_time () =
  let sim = Sim.create () in
  let ran = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(i * 10) (fun () -> incr ran)
  done;
  Sim.run ~max_time:50 sim;
  Alcotest.(check int) "events within horizon" 5 !ran;
  Sim.run sim;
  Alcotest.(check int) "rest on resume" 10 !ran

module TestMsg = struct
  type t = int

  let kind _ = "test"
  let size _ = 8
  let kind_id _ = 0
  let num_kinds = 1
  let kind_name _ = "test"
end

module TestNet = Net.Make (TestMsg)

let test_net_fifo () =
  let sim = Sim.create () in
  (* Jitter would reorder messages without the FIFO enforcement. *)
  let latency = { Net.local_delay = 1; remote_base = 5; remote_jitter = 20 } in
  let net = TestNet.create ~latency sim ~procs:2 in
  let received = ref [] in
  TestNet.set_handler net 0 (fun ~src:_ _ -> ());
  TestNet.set_handler net 1 (fun ~src:_ v -> received := v :: !received);
  for i = 1 to 50 do
    TestNet.send net ~src:0 ~dst:1 i
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "FIFO per channel"
    (List.init 50 (fun i -> i + 1))
    (List.rev !received)

(* Two senders interleaving into one destination (and one sender fanning
   out to two): per-channel FIFO must hold independently on every channel
   under jitter — pins the guarantee across the scheduler swap. *)
let test_net_fifo_channels () =
  let sim = Sim.create () in
  let latency = { Net.local_delay = 1; remote_base = 5; remote_jitter = 20 } in
  let net = TestNet.create ~latency sim ~procs:3 in
  let at2 = ref [] and at1 = ref [] in
  TestNet.set_handler net 0 (fun ~src:_ _ -> ());
  TestNet.set_handler net 1 (fun ~src:_ v -> at1 := v :: !at1);
  TestNet.set_handler net 2 (fun ~src v -> at2 := (src, v) :: !at2);
  for i = 1 to 30 do
    TestNet.send net ~src:0 ~dst:2 i;
    TestNet.send net ~src:1 ~dst:2 (100 + i);
    TestNet.send net ~src:0 ~dst:1 (200 + i)
  done;
  Sim.run sim;
  let from src =
    List.filter_map (fun (s, v) -> if s = src then Some v else None)
      (List.rev !at2)
  in
  Alcotest.(check (list int)) "channel 0->2 FIFO"
    (List.init 30 (fun i -> i + 1))
    (from 0);
  Alcotest.(check (list int)) "channel 1->2 FIFO"
    (List.init 30 (fun i -> 101 + i))
    (from 1);
  Alcotest.(check (list int)) "channel 0->1 FIFO"
    (List.init 30 (fun i -> 201 + i))
    (List.rev !at1)

let test_net_accounting () =
  let sim = Sim.create () in
  let net = TestNet.create sim ~procs:3 in
  for p = 0 to 2 do
    TestNet.set_handler net p (fun ~src:_ _ -> ())
  done;
  TestNet.send net ~src:0 ~dst:1 1;
  TestNet.send net ~src:0 ~dst:2 2;
  TestNet.send net ~src:1 ~dst:1 3;
  (* local *)
  Sim.run sim;
  Alcotest.(check int) "remote messages" 2 (TestNet.remote_messages net);
  Alcotest.(check int) "local messages" 1 (TestNet.local_messages net);
  Alcotest.(check int) "bytes" 16 (TestNet.bytes_sent net);
  Alcotest.(check int) "inbound to 1" 1 (TestNet.sent_to net 1);
  Alcotest.(check int) "stats mirror" 2 (Stats.get (Sim.stats sim) "net.msgs")

let test_net_fault_injection () =
  let sim = Sim.create () in
  let faults =
    { Net.no_faults with Net.duplicate_prob = 1.0 }
  in
  let net = TestNet.create ~faults sim ~procs:2 in
  let received = ref 0 in
  TestNet.set_handler net 0 (fun ~src:_ _ -> ());
  TestNet.set_handler net 1 (fun ~src:_ _ -> incr received);
  for i = 1 to 10 do
    TestNet.send net ~src:0 ~dst:1 i
  done;
  Sim.run sim;
  Alcotest.(check int) "every message duplicated" 20 !received;
  Alcotest.(check int) "duplication counted" 10
    (Stats.get (Sim.stats sim) "net.fault.duplicated");
  (* Fault-injected deliveries used to bypass the inbound accounting:
     [sent_to] must count every delivery actually scheduled, duplicates
     included, so it agrees with what the handler observes. *)
  Alcotest.(check int) "inbound counts duplicated deliveries" !received
    (TestNet.sent_to net 1)

let test_net_drop_fault () =
  let sim = Sim.create () in
  let faults =
    { Net.no_faults with Net.drop_prob = 1.0 }
  in
  let net = TestNet.create ~faults sim ~procs:2 in
  let received = ref 0 in
  TestNet.set_handler net 0 (fun ~src:_ _ -> ());
  TestNet.set_handler net 1 (fun ~src:_ _ -> incr received);
  for i = 1 to 10 do
    TestNet.send net ~src:0 ~dst:1 i
  done;
  Sim.run sim;
  Alcotest.(check int) "nothing delivered" 0 !received;
  Alcotest.(check int) "drops counted" 10
    (Stats.get (Sim.stats sim) "net.fault.dropped");
  Alcotest.(check int) "nothing scheduled inbound" 0 (TestNet.sent_to net 1);
  (* The sender still paid for the transmissions. *)
  Alcotest.(check int) "remote messages counted" 10 (TestNet.remote_messages net)

let test_schedule_exhaustion_guard () =
  (* The packed clock reserves the top of the time range; scheduling past it
     must raise cleanly instead of corrupting the queue's key order. *)
  let sim = Sim.create () in
  Alcotest.check_raises "beyond max_time"
    (Invalid_argument
       (Printf.sprintf "Sim.schedule: packed clock exhausted (time=%d seq=%d)"
          Wheel.max_time 0))
    (fun () -> Sim.schedule sim ~delay:Wheel.max_time (fun () -> ()));
  (* The failed call must not have consumed a seq slot or enqueued junk:
     ordinary scheduling still works and runs in order. *)
  let out = ref [] in
  Sim.schedule sim ~delay:5 (fun () -> out := 5 :: !out);
  Sim.schedule sim ~delay:1 (fun () -> out := 1 :: !out);
  Sim.run sim;
  Alcotest.(check (list int)) "queue intact after guard" [ 5; 1 ] !out

let test_net_no_faults_by_default () =
  let sim = Sim.create () in
  let net = TestNet.create sim ~procs:2 in
  let received = ref 0 in
  TestNet.set_handler net 0 (fun ~src:_ _ -> ());
  TestNet.set_handler net 1 (fun ~src:_ _ -> incr received);
  for i = 1 to 10 do
    TestNet.send net ~src:0 ~dst:1 i
  done;
  Sim.run sim;
  Alcotest.(check int) "exactly once" 10 !received

let test_hist () =
  let st = Stats.create () in
  let h = Stats.hist st "lat" in
  for v = 1 to 1000 do
    Stats.hist_observe h v
  done;
  Alcotest.(check int) "count" 1000 (Stats.hist_count h);
  Alcotest.(check int) "min" 1 (Stats.hist_min h);
  Alcotest.(check int) "max" 1000 (Stats.hist_max h);
  (* log-bucketed percentiles carry <= 6.25% relative error *)
  let p50 = Stats.hist_percentile h 50.0 in
  Alcotest.(check bool) "p50 near 500" true (abs (p50 - 500) <= 32);
  let p99 = Stats.hist_percentile h 99.0 in
  Alcotest.(check bool) "p99 near 990" true (abs (p99 - 990) <= 64);
  Alcotest.(check int) "p100 exact" 1000 (Stats.hist_percentile h 100.0);
  Alcotest.(check int) "p0 clamps to min" 1 (Stats.hist_percentile h 0.0)

let test_hist_summary_fallback () =
  let st = Stats.create () in
  let h = Stats.hist st "x" in
  Stats.hist_observe h 10;
  Stats.hist_observe h 30;
  match Stats.summary st "x" with
  | None -> Alcotest.fail "summary should fall back to the histogram"
  | Some s ->
    Alcotest.(check int) "count" 2 s.Stats.count;
    Alcotest.(check (float 0.0)) "min" 10.0 s.Stats.min;
    Alcotest.(check (float 0.0)) "max" 30.0 s.Stats.max

let suite =
  [
    Alcotest.test_case "rng: deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng: permutation" `Quick test_rng_permutation;
    QCheck_alcotest.to_alcotest prop_pack_order;
    QCheck_alcotest.to_alcotest prop_wheel_order;
    Alcotest.test_case "wheel: exact window boundary" `Quick
      test_wheel_window_boundary;
    Alcotest.test_case "wheel: reschedule onto the draining tick" `Quick
      test_wheel_drained_tick_reschedule;
    Alcotest.test_case "sim: window-length and zero delays" `Quick
      test_sim_window_delay;
    QCheck_alcotest.to_alcotest prop_wheel_boundary;
    Alcotest.test_case "stats: counters and summaries" `Quick test_stats;
    Alcotest.test_case "stats: interned counter handles" `Quick
      test_stats_interned;
    Alcotest.test_case "sim: event ordering" `Quick test_sim_ordering;
    Alcotest.test_case "sim: nested scheduling" `Quick test_sim_nested_schedule;
    Alcotest.test_case "sim: budget backstop" `Quick test_sim_budget;
    Alcotest.test_case "sim: max_time horizon" `Quick test_sim_max_time;
    Alcotest.test_case "net: FIFO under jitter" `Quick test_net_fifo;
    Alcotest.test_case "net: FIFO independent per channel" `Quick
      test_net_fifo_channels;
    Alcotest.test_case "net: accounting" `Quick test_net_accounting;
    Alcotest.test_case "net: fault injection" `Quick test_net_fault_injection;
    Alcotest.test_case "net: drop fault" `Quick test_net_drop_fault;
    Alcotest.test_case "sim: schedule exhaustion guard" `Quick
      test_schedule_exhaustion_guard;
    Alcotest.test_case "net: exactly-once by default" `Quick
      test_net_no_faults_by_default;
    Alcotest.test_case "hist: log-bucketed percentiles" `Quick test_hist;
    Alcotest.test_case "hist: summary fallback" `Quick
      test_hist_summary_fallback;
  ]
