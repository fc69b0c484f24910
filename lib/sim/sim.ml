type handler = int -> int -> int -> Obj.t -> unit

type t = {
  mutable now : int;
  mutable processed : int;
  pending : Wheel.t;
  cell : Wheel.cell;  (* scratch for pop/dispatch; reused, never escapes *)
  mutable handlers : handler array;
  mutable n_handlers : int;
  rng : Rng.t;
  stats : Stats.t;
  mutable probe_at : int;  (* max_int = disarmed *)
  mutable probe : int -> unit;
}

let no_handler : handler =
 fun _ _ _ _ -> Fmt.failwith "Sim: dispatch to unregistered handler"

let create ?(seed = 42) () =
  {
    now = 0;
    processed = 0;
    pending = Wheel.create ();
    cell = Wheel.make_cell ();
    handlers = Array.make 8 no_handler;
    n_handlers = 0;
    rng = Rng.create seed;
    stats = Stats.create ();
    probe_at = max_int;
    probe = ignore;
  }

let now t = t.now
let pending t = Wheel.length t.pending
let rng t = t.rng
let stats t = t.stats
let events_processed t = t.processed
let seq_consumed t = Wheel.overflow_seq t.pending
let overflow_depth t = Wheel.overflow_depth t.pending

let register_handler t f =
  let id = t.n_handlers in
  if id = Array.length t.handlers then begin
    let h = Array.make (2 * id) no_handler in
    Array.blit t.handlers 0 h 0 id;
    t.handlers <- h
  end;
  t.handlers.(id) <- f;
  t.n_handlers <- id + 1;
  id

(* Packed-clock guard.  Time has the [Wheel] budget of 2^31 ticks; the
   per-event [seq] of the old global heap is gone — only events scheduled
   beyond the wheel window consume a (time, seq)-packed overflow slot, so
   [seq] stays near zero even over million-op runs (see the regression
   test).  [max_time - 1] (not [max_time]) so a packed overflow key can
   never reach [max_int], the empty sentinel. *)
let[@inline] check_clock t time =
  if time >= Wheel.max_time - 1 || Wheel.overflow_seq t.pending >= Wheel.max_seq
  then
    (* dbperf: alloc-ok -- clock-exhaustion raise: builds its message once, at the end of the world *)
    Fmt.invalid_arg "Sim.schedule: packed clock exhausted (time=%d seq=%d)"
      time
      (Wheel.overflow_seq t.pending)

let schedule t ~delay action =
  let delay = if delay < 0 then 0 else delay in
  let time = t.now + delay in
  check_clock t time;
  Wheel.schedule t.pending ~time action

let schedule_typed t ~delay ~h ~a ~b ~c ~o =
  let delay = if delay < 0 then 0 else delay in
  let time = t.now + delay in
  check_clock t time;
  Wheel.schedule_typed t.pending ~time ~h ~a ~b ~c ~o

let set_probe t ~at f =
  (* dbperf: alloc-ok -- guard raise on a past deadline; the accept path allocates nothing *)
  if at < t.now then Fmt.invalid_arg "Sim.set_probe: at=%d < now=%d" at t.now;
  t.probe_at <- at;
  t.probe <- f

let clear_probe t =
  t.probe_at <- max_int;
  t.probe <- ignore

exception Budget_exhausted

(* Observation probe: runs the callback at its due time, just before the
   first event at or past it dispatches.  The probe sees the world
   quiescent at the window boundary and schedules nothing, so arming it
   perturbs neither [events_processed] nor the wheel — telemetry-on runs
   stay byte-identical to telemetry-off ones.  Out of line: the hot-path
   cost when disarmed is the single [probe_at] compare in [dispatch]
   ([max_int] never fires — [check_clock] keeps event times below it). *)
let probe_catchup t time =
  while time >= t.probe_at do
    let at = t.probe_at in
    t.probe_at <- max_int;
    t.now <- at;
    t.probe at  (* re-arms via [set_probe], or leaves the probe cleared *)
  done

(* The cell is read fully before the handler runs, so a handler that
   schedules (or even recursively runs the loop) cannot clobber the event
   being dispatched. *)
let[@inline] dispatch t =
  let cell = t.cell in
  if cell.Wheel.time >= t.probe_at then probe_catchup t cell.Wheel.time;
  t.now <- cell.Wheel.time;
  t.processed <- t.processed + 1;
  let h = cell.Wheel.h in
  if h < 0 then (Obj.obj cell.Wheel.o : unit -> unit) ()
  else
    (Array.unsafe_get t.handlers h)
      cell.Wheel.a cell.Wheel.b cell.Wheel.c cell.Wheel.o

let step t =
  if Wheel.pop_into t.pending t.cell then begin
    dispatch t;
    true
  end
  else false

let run ?max_events ?max_time t =
  (* Hoist the option matches out of the per-event loop: an absent budget
     becomes a bound no 63-bit event count reaches, an absent horizon a
     time no scheduled event exceeds ([next_time] is [max_int] on empty,
     which also terminates the loop). *)
  let budget = match max_events with Some m -> m | None -> max_int in
  match max_time with
  | Some horizon when horizon < Wheel.max_time ->
    let rec loop () =
      if t.processed >= budget then raise Budget_exhausted;
      if Wheel.next_time t.pending <= horizon then begin
        ignore (Wheel.pop_into t.pending t.cell : bool);
        dispatch t;
        loop ()
      end
    in
    loop ()
  | Some _ | None ->
    (* No reachable horizon ([check_clock] keeps every scheduled time
       below [Wheel.max_time]): pop directly instead of probing
       [next_time] first — one queue touch per event, not two. *)
    let rec loop () =
      if t.processed >= budget then raise Budget_exhausted;
      if Wheel.pop_into t.pending t.cell then begin
        dispatch t;
        loop ()
      end
    in
    loop ()
