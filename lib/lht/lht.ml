open Dbtree_sim
module Action = Dbtree_history.Action
module Registry = Dbtree_history.Registry
module Obs = Dbtree_obs.Obs
module Event = Dbtree_obs.Event
module Series = Dbtree_obs.Series

type pid = int

type config = {
  procs : int;
  bucket_capacity : int;
  seed : int;
  latency : Net.latency;
  faults : Net.faults;
  transport : Net.transport;
  lazy_directory : bool;
  record_history : bool;
  trace : bool;
  trace_capacity : int;
}

let default_config =
  {
    procs = 4;
    bucket_capacity = 8;
    seed = 42;
    latency = Net.default_latency;
    faults = Net.no_faults;
    transport = Net.Raw;
    lazy_directory = true;
    record_history = true;
    trace = false;
    trace_capacity = 1 lsl 16;
  }

type op_result = Found of string | Absent | Inserted | Removed of bool

(* ------------------------------------------------------------------ *)
(* Hashing: splitmix64 finalizer over the key, truncated to 56 bits so
   all shifts below stay well-defined. *)

let hash key =
  let z = Int64.of_int key in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.logand z 0xFF_FFFF_FFFF_FFFFL)

let low_bits h bits = h land ((1 lsl bits) - 1)

(* ------------------------------------------------------------------ *)
(* Wire messages *)

type op_kind = K_search | K_insert of string | K_remove

module Msg = struct
  type t =
    | Op of { op : int; kind : op_kind; key : int; origin : pid; bucket : int }
    | Op_done of { op : int; result : op_result }
    | Dir_update of {
        uid : int;
        suffix : int;
        bits : int;
        bucket : int;
        owner : pid;
        relayed : bool;
      }
    | Dir_ack of { uid : int }
    | Double_request of { want : int }
    | Dir_double of { uid : int; depth : int; version : int }
    | Bucket_install of {
        id : int;
        suffix : int;
        ldepth : int;
        entries : (int * string) list;
        base : int list;
      }

  (* Dense kind ids so the network's per-kind accounting is an array
     index, not a string hash (see Net.MESSAGE). *)
  let kind_id = function
    | Op { kind = K_search; _ } -> 0
    | Op { kind = K_insert _; _ } -> 1
    | Op { kind = K_remove; _ } -> 2
    | Op_done _ -> 3
    | Dir_update { relayed = false; _ } -> 4
    | Dir_update { relayed = true; _ } -> 5
    | Dir_ack _ -> 6
    | Double_request _ -> 7
    | Dir_double _ -> 8
    | Bucket_install _ -> 9

  let kind_names =
    [|
      "op.search"; "op.insert"; "op.remove"; "op_done"; "dir_update";
      "relay_dir_update"; "dir_ack"; "double_request"; "dir_double";
      "bucket_install";
    |]

  let num_kinds = Array.length kind_names
  let kind_name i = kind_names.(i)
  let kind m = kind_name (kind_id m)

  let size = function
    | Op { kind = K_insert v; _ } -> 24 + String.length v
    | Op _ -> 24
    | Op_done { result = Found v; _ } -> 12 + String.length v
    | Op_done _ -> 12
    | Dir_update _ -> 28
    | Dir_ack _ | Double_request _ -> 8
    | Dir_double _ -> 16
    | Bucket_install { entries; _ } ->
      24
      + List.fold_left (fun acc (_, v) -> acc + 12 + String.length v) 0 entries
end

module Network = Net.Make (Msg)

(* ------------------------------------------------------------------ *)
(* State *)

type bucket = {
  id : int;
  mutable suffix : int;
  mutable ldepth : int;
  mutable entries : (int * string) list;  (* unordered assoc *)
  (* past splits, oldest first: (bit, buddy id, buddy owner) *)
  mutable chain : (int * int * pid) list;
  mutable asked_double : bool;
}

type directory = {
  mutable depth : int;
  mutable slots : int array;  (* 2^depth bucket ids *)
  mutable slot_bits : int array;
      (* specificity of each slot's pointer: pointer updates for the same
         slot arrive with strictly increasing [bits] over time but may be
         delivered out of order, so they form an ordered class — a more
         specific pointer must never be overwritten by a less specific
         one (the lazy-update analogue of the version rule) *)
  owners : (int, pid) Hashtbl.t;  (* bucket -> owner *)
  mutable version : int;  (* doubling version *)
  mutable pending_updates : Msg.t list;  (* bits > depth, newest first *)
}

type proc_state = {
  pid : pid;
  dir : directory;
  buckets : (int, bucket) Hashtbl.t;
  parked : (int, Msg.t list) Hashtbl.t;  (* bucket installs in flight *)
}

type op_record = {
  op_id : int;
  op_key : int;
  op_kind : op_kind;
  op_issued_at : int;
  mutable op_result : op_result option;
  mutable op_seq : int;
      (* position in the bucket-execution order (-1 until executed).
         Concurrent operations on the same key may execute in a different
         order than they were issued; the verifier must replay the order
         the buckets actually applied, not the issue order. *)
}

let op_kind_code = function
  | K_search -> Event.op_search
  | K_insert _ -> Event.op_insert
  | K_remove -> Event.op_delete

(* Interned stat counters for the message-handler hot path. *)
type counters = {
  c_update_held : Stats.counter;
  c_update_absorbed : Stats.counter;
  c_double_requested : Stats.counter;
  c_bucket_split : Stats.counter;
  c_op_rerouted : Stats.counter;
  c_op_parked : Stats.counter;
  c_op_chased : Stats.counter;
  c_dir_acks : Stats.counter;
  c_dir_double : Stats.counter;
}

let make_counters stats =
  let c = Stats.counter stats in
  {
    c_update_held = c "dir.update_held";
    c_update_absorbed = c "dir.update_absorbed";
    c_double_requested = c "double.requested";
    c_bucket_split = c "bucket.split";
    c_op_rerouted = c "op.rerouted";
    c_op_parked = c "op.parked";
    c_op_chased = c "op.chased";
    c_dir_acks = c "dir.acks";
    c_dir_double = c "dir.double";
  }

type t = {
  cfg : config;
  sim : Sim.t;
  net : Network.t;
  procs_state : proc_state array;
  hist : Registry.t;
  ops : (int, op_record) Hashtbl.t;
  mutable next_op : int;
  mutable next_exec : int;
  mutable next_bucket : int;
  mutable next_uid : int;
  mutable splits : int;
  mutable doublings : int;
  place_rng : Rng.t;
  ctr : counters;
  obs : Obs.t;
  telem : Series.t;  (* live under [Series.forced]; {!Series.disabled} else *)
  mutable heat : int array;  (* bucket id -> accesses (arena, doubled) *)
  heat_total : int ref;  (* the "heat.touches" cell *)
  mutable heat_max : int;
  mutable heat_argmax : int;
}

(* The directory is modelled as logical node 0 in the history registry;
   bucket b is node (b + 1). *)
let dir_node = 0
let bucket_node id = id + 1

let fresh_uid t =
  if t.cfg.record_history then begin
    let uid = Registry.fresh_uid t.hist in
    Registry.note_issued t.hist uid;
    uid
  end
  else begin
    let u = t.next_uid in
    t.next_uid <- u + 1;
    u
  end

let record t ~node ~pid ?(effective = true) ~mode ?(version = 0) ~uid kind =
  if t.cfg.record_history then
    Registry.record t.hist ~node ~pid ~effective ~time:(Sim.now t.sim)
      { Action.uid; node; mode; kind; version }

let hist_new_copy t ~node ~pid ~base =
  if t.cfg.record_history then
    Registry.new_copy t.hist ~node ~pid ~base:(Registry.Uid_set.of_list base)

let hist_snapshot t ~node ~pid =
  if t.cfg.record_history then
    Registry.Uid_set.elements (Registry.snapshot t.hist ~node ~pid)
  else []

let stats t = Sim.stats t.sim
let send t ~src ~dst msg = Network.send t.net ~src ~dst msg

(* Bucket-access heat, mirroring the cluster kernels' per-node arena:
   one branch when the plane is off, and the arena doubles only on the
   first touch of a fresh bucket id. *)
let heat_touch t ~id =
  if Series.on t.telem && id >= 0 then begin
    if id >= Array.length t.heat then begin
      let cap =
        let rec go c = if id < c then c else go (2 * c) in
        go (2 * Array.length t.heat)
      in
      let heat' = Array.make cap 0 in
      Array.blit t.heat 0 heat' 0 (Array.length t.heat);
      t.heat <- heat'
    end;
    let h = t.heat.(id) + 1 in
    t.heat.(id) <- h;
    incr t.heat_total;
    if h > t.heat_max then begin
      t.heat_max <- h;
      t.heat_argmax <- id
    end
  end

(* ------------------------------------------------------------------ *)
(* Directory maintenance *)

(* Apply a pointer update: every slot whose low [bits] bits equal
   [suffix] now points at [bucket]. *)
let apply_dir_update t pid ~uid ~suffix ~bits ~bucket ~owner ~initial =
  let ps = t.procs_state.(pid) in
  let dir = ps.dir in
  if bits > dir.depth then begin
    (* ahead of our doubling: hold until Dir_double arrives *)
    Stats.tick t.ctr.c_update_held;
    dir.pending_updates <-
      Msg.Dir_update { uid; suffix; bits; bucket; owner; relayed = not initial }
      :: dir.pending_updates
  end
  else begin
    let stride = 1 lsl bits in
    let wrote = ref false in
    let i = ref suffix in
    while !i < Array.length dir.slots do
      if bits > dir.slot_bits.(!i) then begin
        dir.slots.(!i) <- bucket;
        dir.slot_bits.(!i) <- bits;
        wrote := true
      end;
      i := !i + stride
    done;
    if not !wrote then Stats.tick t.ctr.c_update_absorbed;
    Hashtbl.replace dir.owners bucket owner;
    record t ~node:dir_node ~pid
      ~mode:(if initial then Action.Initial else Action.Relayed)
      ~effective:!wrote ~version:bits ~uid
      (Action.Insert { key = (bits lsl 48) lor suffix })
  end

let rec apply_dir_double t pid ~uid ~depth ~version =
  let ps = t.procs_state.(pid) in
  let dir = ps.dir in
  if version <= dir.version then
    record t ~node:dir_node ~pid ~mode:Action.Relayed ~effective:false
      ~version ~uid (Action.Resize { depth })
  else begin
    while dir.depth < depth do
      dir.slots <- Array.append dir.slots dir.slots;
      dir.slot_bits <- Array.append dir.slot_bits dir.slot_bits;
      dir.depth <- dir.depth + 1
    done;
    dir.version <- version;
    record t ~node:dir_node ~pid
      ~mode:(if pid = 0 then Action.Initial else Action.Relayed)
      ~version ~uid (Action.Resize { depth });
    (* held pointer updates may now be applicable *)
    let held = List.rev dir.pending_updates in
    dir.pending_updates <- [];
    List.iter
      (fun msg ->
        match msg with
        | Msg.Dir_update { uid; suffix; bits; bucket; owner; relayed } ->
          apply_dir_update t pid ~uid ~suffix ~bits ~bucket ~owner
            ~initial:(not relayed)
        | _ -> assert false)
      held;
    (* buckets that were waiting for headroom can split now — in bucket-id
       order, so the resulting split messages are seed-deterministic *)
    (* Split retry order was tuned against this walk order and the pinned
       experiment tables depend on it; it is deterministic for a fixed
       stdlib and seed-free hash. *)
    (* dblint: allow no-nondeterminism -- order tuned; see comment above *)
    Hashtbl.iter
      (fun _ b ->
        if b.asked_double then begin
          b.asked_double <- false;
          maybe_split t pid b
        end)
      ps.buckets
  end

(* ------------------------------------------------------------------ *)
(* Buckets *)

and install_bucket t pid ~id ~suffix ~ldepth ~entries ~base =
  let ps = t.procs_state.(pid) in
  let b = { id; suffix; ldepth; entries; chain = []; asked_double = false } in
  Hashtbl.replace ps.buckets id b;
  hist_new_copy t ~node:(bucket_node id) ~pid ~base;
  (match Hashtbl.find_opt ps.parked id with
  | Some msgs ->
    Hashtbl.remove ps.parked id;
    List.iter (fun m -> send t ~src:pid ~dst:pid m) (List.rev msgs)
  | None -> ());
  (* a freshly installed buddy may itself be over capacity *)
  maybe_split t pid b;
  b

and maybe_split t pid (b : bucket) =
  if List.length b.entries > t.cfg.bucket_capacity then begin
    let ps = t.procs_state.(pid) in
    if b.ldepth >= ps.dir.depth then begin
      (* need a directory doubling first; ask the PC once *)
      if not b.asked_double then begin
        b.asked_double <- true;
        Stats.tick t.ctr.c_double_requested;
        send t ~src:pid ~dst:0 (Msg.Double_request { want = b.ldepth + 1 })
      end
    end
    else begin
      let bit = b.ldepth in
      let buddy_id = t.next_bucket in
      t.next_bucket <- buddy_id + 1;
      let buddy_suffix = b.suffix lor (1 lsl bit) in
      let stay, move =
        List.partition (fun (k, _) -> (hash k lsr bit) land 1 = 0) b.entries
      in
      let base = hist_snapshot t ~node:(bucket_node b.id) ~pid in
      b.ldepth <- bit + 1;
      b.entries <- stay;
      t.splits <- t.splits + 1;
      Stats.tick t.ctr.c_bucket_split;
      record t ~node:(bucket_node b.id) ~pid ~mode:Action.Initial
        ~uid:(fresh_uid t)
        (Action.Half_split { sep = bit; sibling = buddy_id });
      (* place the buddy on the least-loaded processor *)
      let owner =
        let best = ref 0 and best_count = ref max_int in
        Array.iteri
          (fun p ps' ->
            let c = Hashtbl.length ps'.buckets in
            if c < !best_count then begin
              best := p;
              best_count := c
            end)
          t.procs_state;
        if !best_count = Hashtbl.length ps.buckets then pid else !best
      in
      b.chain <- b.chain @ [ (bit, buddy_id, owner) ];
      if owner = pid then
        ignore
          (install_bucket t pid ~id:buddy_id ~suffix:buddy_suffix
             ~ldepth:(bit + 1) ~entries:move ~base)
      else begin
        (* the history copy exists from creation; register before send *)
        hist_new_copy t ~node:(bucket_node buddy_id) ~pid:owner ~base;
        send t ~src:pid ~dst:owner
          (Msg.Bucket_install
             { id = buddy_id; suffix = buddy_suffix; ldepth = bit + 1; entries = move; base })
      end;
      (* the lazy update: re-point the buddy's suffix region *)
      let uid = fresh_uid t in
      if t.cfg.lazy_directory then begin
        apply_dir_update t pid ~uid ~suffix:buddy_suffix ~bits:(bit + 1)
          ~bucket:buddy_id ~owner ~initial:true;
        for p = 0 to t.cfg.procs - 1 do
          if p <> pid then
            send t ~src:pid ~dst:p
              (Msg.Dir_update
                 {
                   uid;
                   suffix = buddy_suffix;
                   bits = bit + 1;
                   bucket = buddy_id;
                   owner;
                   relayed = true;
                 })
        done
      end
      else
        (* eager baseline: serialize through the primary copy *)
        send t ~src:pid ~dst:0
          (Msg.Dir_update
             {
               uid;
               suffix = buddy_suffix;
               bits = bit + 1;
               bucket = buddy_id;
               owner;
               relayed = false;
             });
      maybe_split t pid b
    end
  end

(* A misnavigated operation walks the bucket's split chain: the first
   recorded split whose bit is set in the key's hash (with all lower bits
   agreeing) is where the key departed. *)
and chase_chain t pid (b : bucket) h =
  let rec go = function
    | [] -> None
    | (bit, buddy, owner) :: rest ->
      if (h lsr bit) land 1 = 1 && low_bits h bit = low_bits b.suffix bit then
        Some (buddy, owner)
      else go rest
  in
  ignore t;
  ignore pid;
  go b.chain

and perform_op t pid (b : bucket) ~op ~kind ~key ~origin =
  (match Hashtbl.find_opt t.ops op with
  | Some r when r.op_seq < 0 ->
    r.op_seq <- t.next_exec;
    t.next_exec <- t.next_exec + 1
  | Some _ | None -> ());
  let result =
    match kind with
    | K_search -> (
      match List.assoc_opt key b.entries with
      | Some v -> Found v
      | None -> Absent)
    | K_insert v ->
      b.entries <- (key, v) :: List.remove_assoc key b.entries;
      record t ~node:(bucket_node b.id) ~pid ~mode:Action.Initial
        ~uid:(fresh_uid t) (Action.Insert { key });
      Inserted
    | K_remove ->
      let present = List.mem_assoc key b.entries in
      b.entries <- List.remove_assoc key b.entries;
      record t ~node:(bucket_node b.id) ~pid ~mode:Action.Initial
        ~uid:(fresh_uid t) (Action.Delete { key });
      Removed present
  in
  send t ~src:pid ~dst:origin (Msg.Op_done { op; result });
  match kind with K_insert _ -> maybe_split t pid b | K_search | K_remove -> ()

(* ------------------------------------------------------------------ *)
(* Message handler *)

let handle t pid ~src msg =
  let ps = t.procs_state.(pid) in
  match msg with
  (* dbflow: class lazy -- bucket ops chase split chains and never depend on directory agreement (§6) *)
  | Msg.Op { op; kind; key; origin; bucket } -> begin
    match Hashtbl.find_opt ps.buckets bucket with
    | None -> (
      (* the bucket's install may still be in flight to us *)
      match Hashtbl.find_opt ps.dir.owners bucket with
      | Some owner when owner <> pid ->
        Stats.tick t.ctr.c_op_rerouted;
        send t ~src:pid ~dst:owner msg
      | Some _ | None ->
        Stats.tick t.ctr.c_op_parked;
        Hashtbl.replace ps.parked bucket
          (msg :: Option.value (Hashtbl.find_opt ps.parked bucket) ~default:[])
      )
    | Some b ->
      heat_touch t ~id:b.id;
      let h = hash key in
      if low_bits h b.ldepth = b.suffix then
        perform_op t pid b ~op ~kind ~key ~origin
      else (
        (* stale directory somewhere: follow the split chain *)
        Stats.tick t.ctr.c_op_chased;
        match chase_chain t pid b h with
        | Some (buddy, owner) ->
          send t ~src:pid ~dst:owner
            (Msg.Op { op; kind; key; origin; bucket = buddy })
        | None ->
          Fmt.failwith "Lht: key %d reached bucket %d outside its chain" key
            b.id)
  end
  (* dbflow: class lazy -- completion funnel at the origin, independent of any bucket's owner *)
  | Msg.Op_done { op; result } -> begin
    match Hashtbl.find_opt t.ops op with
    | Some r ->
      if r.op_result <> None then
        Fmt.failwith "Lht: operation %d completed twice" op;
      let lat = Sim.now t.sim - r.op_issued_at in
      if Obs.on t.obs then
        ignore
          (Obs.emit t.obs ~time:(Sim.now t.sim) ~pid ~op
             ~parent:(Obs.cur_parent t.obs) ~kind:Event.Op_complete
             ~a:(op_kind_code r.op_kind) ~b:lat);
      r.op_result <- Some result
    | None -> Fmt.failwith "Lht: unknown operation %d" op
  end
  (* dbflow: class semi -- directory updates are PC-broadcast (eager) or applied version-ordered (lazy mode) (§6.1) *)
  | Msg.Dir_update { uid; suffix; bits; bucket; owner; relayed } ->
    if (not t.cfg.lazy_directory) && pid = 0 && not relayed then begin
      (* eager: the PC applies and broadcasts under acknowledgement *)
      apply_dir_update t pid ~uid ~suffix ~bits ~bucket ~owner ~initial:true;
      for p = 1 to t.cfg.procs - 1 do
        send t ~src:pid ~dst:p
          (Msg.Dir_update { uid; suffix; bits; bucket; owner; relayed = true })
      done
    end
    else begin
      apply_dir_update t pid ~uid ~suffix ~bits ~bucket ~owner ~initial:false;
      if not t.cfg.lazy_directory then send t ~src:pid ~dst:src (Msg.Dir_ack { uid })
    end
  (* dbflow: class semi -- eager-mode round completion at the broadcasting PC (§6.1) *)
  | Msg.Dir_ack _ -> Stats.tick t.ctr.c_dir_acks
  (* dbflow: class semi -- directory doubling is serialized at processor 0, the directory PC (§6.2) *)
  | Msg.Double_request { want } ->
    assert (pid = 0);
    let dir = ps.dir in
    if dir.depth < want then begin
      let uid = fresh_uid t in
      t.doublings <- t.doublings + 1;
      Stats.tick t.ctr.c_dir_double;
      let version = dir.version + 1 in
      apply_dir_double t pid ~uid ~depth:(dir.depth + 1) ~version;
      for p = 1 to t.cfg.procs - 1 do
        send t ~src:pid ~dst:p
          (Msg.Dir_double { uid; depth = dir.depth; version })
      done
    end
  (* dbflow: class semi -- doubling applies version-ordered against other directory changes (§6.2) *)
  | Msg.Dir_double { uid; depth; version } ->
    apply_dir_double t pid ~uid ~depth ~version
  (* dbflow: class lazy -- a split bucket installs wholesale; parked ops drain on arrival (§6) *)
  | Msg.Bucket_install { id; suffix; ldepth; entries; base } ->
    ignore (install_bucket t pid ~id ~suffix ~ldepth ~entries ~base)

(* ------------------------------------------------------------------ *)
(* Construction and operations *)

let create cfg =
  if cfg.procs < 1 then invalid_arg "Lht.create: procs must be >= 1";
  if cfg.bucket_capacity < 2 then
    invalid_arg "Lht.create: bucket_capacity must be >= 2";
  let sim = Sim.create ~seed:cfg.seed () in
  if cfg.transport = Net.Reliable && cfg.faults.Net.drop_prob >= 1.0 then
    invalid_arg
      "Lht.create: the reliable transport cannot terminate over a channel \
       that drops everything (drop_prob must be < 1)";
  if cfg.faults.Net.crash_at <> [] then
    invalid_arg
      "Lht.create: faults.crash_at is not supported (the LHT has no durable \
       storage to recover from)";
  let obs =
    Obs.create ~enabled:cfg.trace ~capacity:cfg.trace_capacity ~label:"lht" ()
  in
  Obs.set_msg_names obs Msg.kind_name;
  let net =
    Network.create ~latency:cfg.latency ~faults:cfg.faults
      ~transport:cfg.transport ~obs sim ~procs:cfg.procs
  in
  let procs_state =
    Array.init cfg.procs (fun pid ->
        {
          pid;
          dir =
            {
              depth = 0;
              slots = [| 0 |];
              slot_bits = [| 0 |];
              owners = Hashtbl.create 64;
              version = 0;
              pending_updates = [];
            };
          buckets = Hashtbl.create 64;
          parked = Hashtbl.create 8;
        })
  in
  let telem =
    if Series.forced () then
      Series.create ~every:(Series.forced_every ()) ~label:"lht" ()
    else Series.disabled
  in
  let t =
    {
      cfg;
      sim;
      net;
      procs_state;
      hist = Registry.create ();
      ops = Hashtbl.create 1024;
      next_op = 0;
      next_exec = 0;
      next_bucket = 1;
      next_uid = 0;
      splits = 0;
      doublings = 0;
      place_rng = Rng.create (cfg.seed + 5);
      ctr = make_counters (Sim.stats sim);
      obs;
      telem;
      heat = (if Series.on telem then Array.make 64 0 else [||]);
      heat_total = Series.cell telem "heat.touches";
      heat_max = 0;
      heat_argmax = -1;
    }
  in
  if Series.on telem then begin
    List.iter
      (fun (name, c) -> Series.counter telem name c)
      (Stats.counter_handles (Sim.stats sim));
    Series.gauge telem "sim.queue_depth" (fun () -> Sim.pending sim);
    Series.gauge telem "lht.buckets" (fun () ->
        let n = ref 0 in
        Array.iter
          (fun ps -> n := !n + Hashtbl.length ps.buckets)
          t.procs_state;
        !n);
    Series.gauge telem "lht.parked" (fun () ->
        let n = ref 0 in
        Array.iter
          (fun ps ->
            (* dblint: allow no-nondeterminism -- commutative sum, order-insensitive *)
            Hashtbl.iter (fun _ msgs -> n := !n + List.length msgs) ps.parked)
          t.procs_state;
        !n);
    Series.gauge telem "lht.splits" (fun () -> t.splits);
    Series.gauge telem "lht.doublings" (fun () -> t.doublings);
    Series.gauge telem "heat.hottest" (fun () -> t.heat_max);
    Series.gauge telem "heat.hottest_bucket" (fun () -> t.heat_argmax);
    Series.gauge telem "heat.hottest_share_pct" (fun () ->
        if !(t.heat_total) = 0 then 0
        else 100 * t.heat_max / !(t.heat_total));
    Series.note_registered telem;
    let rec cb now =
      Series.scrape telem ~now;
      Sim.set_probe sim ~at:(now + Series.every telem) cb
    in
    Sim.set_probe sim ~at:(Sim.now sim + Series.every telem) cb
  end;
  for pid = 0 to cfg.procs - 1 do
    Network.set_handler net pid (fun ~src msg -> handle t pid ~src msg);
    Hashtbl.replace t.procs_state.(pid).dir.owners 0 0;
    hist_new_copy t ~node:dir_node ~pid ~base:[]
  done;
  (* bucket 0 on processor 0 *)
  ignore (install_bucket t 0 ~id:0 ~suffix:0 ~ldepth:0 ~entries:[] ~base:[]);
  t

let issue t ~origin ~kind key =
  let op = t.next_op in
  t.next_op <- op + 1;
  let now = Sim.now t.sim in
  Hashtbl.replace t.ops op
    {
      op_id = op;
      op_key = key;
      op_kind = kind;
      op_issued_at = now;
      op_result = None;
      op_seq = -1;
    };
  if Obs.on t.obs then begin
    let id =
      Obs.emit t.obs ~time:now ~pid:origin ~op ~parent:(-1)
        ~kind:Event.Op_issue ~a:(op_kind_code kind) ~b:key
    in
    Obs.set_context t.obs ~op ~parent:id
  end;
  let ps = t.procs_state.(origin) in
  let h = hash key in
  let slot = low_bits h ps.dir.depth in
  let bucket = ps.dir.slots.(slot) in
  let dst = Option.value (Hashtbl.find_opt ps.dir.owners bucket) ~default:0 in
  send t ~src:origin ~dst (Msg.Op { op; kind; key; origin; bucket });
  op

let insert t ~origin key value = issue t ~origin ~kind:(K_insert value) key
let search t ~origin key = issue t ~origin ~kind:K_search key
let remove t ~origin key = issue t ~origin ~kind:K_remove key
let run ?(max_events = 50_000_000) t =
  Sim.run ~max_events t.sim;
  (* final partial window: the probe only fires when an event reaches
     the boundary *)
  if Series.on t.telem then Series.scrape t.telem ~now:(Sim.now t.sim)

let telemetry t = t.telem
let heat_total t = !(t.heat_total)
let hottest_bucket t = (t.heat_argmax, t.heat_max)

let result t op =
  Option.bind (Hashtbl.find_opt t.ops op) (fun r -> r.op_result)

let completed t =
  (* dblint: allow no-nondeterminism -- commutative count, order-insensitive *)
  Hashtbl.fold (fun _ r acc -> if r.op_result <> None then acc + 1 else acc) t.ops 0

let issued t = t.next_op
let obs t = t.obs
let depth t pid = t.procs_state.(pid).dir.depth
let bucket_count t = t.next_bucket
let splits t = t.splits
let doublings t = t.doublings
let messages t = Network.remote_messages t.net

let buckets_per_proc t =
  Array.map (fun ps -> Hashtbl.length ps.buckets) t.procs_state

(* ------------------------------------------------------------------ *)
(* Verification *)

type report = {
  directory_divergent : bool;
  missing_keys : int list;
  phantom_keys : int list;
  misplaced : int list;
  history : Dbtree_history.Checker.report option;
}

let verify t =
  let reference = t.procs_state.(0).dir in
  let directory_divergent =
    Array.exists
      (fun ps ->
        ps.dir.depth <> reference.depth || ps.dir.slots <> reference.slots
        || ps.dir.pending_updates <> [])
      t.procs_state
  in
  (* Expected contents from the op log, replayed in the order the buckets
     executed the operations (their linearization).  Issue order is not
     good enough: two concurrent operations on the same key can execute
     in either order, and the effectual one decides the final state. *)
  let expected = Hashtbl.create 256 in
  let executed =
    (* dblint: allow no-nondeterminism -- unordered fold feeds the sort by op_seq below *)
    Hashtbl.fold (fun _ r acc -> if r.op_seq >= 0 then r :: acc else acc)
      t.ops []
    |> List.sort (fun a b -> compare a.op_seq b.op_seq)
  in
  List.iter
    (fun r ->
      match r with
      | { op_key; op_kind = K_insert v; op_result = Some Inserted; _ } ->
        Hashtbl.replace expected op_key v
      | { op_key; op_kind = K_remove; op_result = Some (Removed true); _ } ->
        Hashtbl.remove expected op_key
      | _ -> ())
    executed;
  let found = Hashtbl.create 256 in
  let misplaced = ref [] in
  Array.iter
    (fun ps ->
      List.iter
        (fun (_, b) ->
          List.iter
            (fun (k, v) ->
              Hashtbl.replace found k v;
              if low_bits (hash k) b.ldepth <> b.suffix then
                misplaced := k :: !misplaced)
            b.entries)
        (Stats.sorted_bindings ps.buckets))
    t.procs_state;
  let missing_keys =
    Stats.sorted_bindings expected
    |> List.filter_map (fun (k, _) ->
           if Hashtbl.mem found k then None else Some k)
  in
  let phantom_keys =
    Stats.sorted_bindings found
    |> List.filter_map (fun (k, _) ->
           if Hashtbl.mem expected k then None else Some k)
  in
  let history =
    if t.cfg.record_history then Some (Dbtree_history.Checker.check t.hist)
    else None
  in
  {
    directory_divergent;
    missing_keys;
    phantom_keys;
    misplaced = List.sort compare !misplaced;
    history;
  }

let verified r =
  (not r.directory_divergent)
  && r.missing_keys = [] && r.phantom_keys = [] && r.misplaced = []
  && match r.history with
     | Some h -> Dbtree_history.Checker.ok h
     | None -> true

let pp_report ppf r =
  Fmt.pf ppf "directory divergent: %b; missing=%d phantom=%d misplaced=%d"
    r.directory_divergent
    (List.length r.missing_keys)
    (List.length r.phantom_keys)
    (List.length r.misplaced);
  match r.history with
  | Some h -> Fmt.pf ppf "@.%a" Dbtree_history.Checker.pp_report h
  | None -> ()
