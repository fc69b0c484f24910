(* The four benchmark workloads and their seeded inputs.

   Every workload is a preload of unique keys followed by a measured
   closed-loop phase: each processor keeps [window] operations
   outstanding, issuing its next pre-generated operation as soon as one
   of its own completes.  Searches draw only preloaded keys, so each has
   a known answer; inserts draw fresh keys disjoint from the preload, so
   each must answer [Inserted]. *)
open Dbtree_core
open Dbtree_sim
open Dbtree_workload

type kernel = Fixed of Config.discipline | Variable

type t = {
  name : string;
  kernel : kernel;
  procs : int;
  capacity : int;
  replication : Config.replication;
  transport : Net.transport;
  faults : Net.faults;
  durability : Config.durability;
  balance_period : int;
  window : int;  (** operations outstanding per processor *)
  preload : int;  (** keys inserted during set-up *)
  ops : int;  (** measured operations, a multiple of [procs] *)
  search_ratio : float;
}

let base =
  {
    name = "";
    kernel = Fixed Config.Semi;
    procs = 8;
    capacity = 8;
    replication = Config.Path;
    transport = Net.Raw;
    faults = Net.no_faults;
    durability = Config.no_durability;
    balance_period = 0;
    window = 8;
    preload = 0;
    ops = 0;
    search_ratio = 0.5;
  }

(* Sizes put one round (set-up, measured phase, audit) at 1-3 s of host
   time, so a run repeats several rounds and reports their medians. *)
let all =
  [
    (* E17's shape: per-event wheel cost and the route/search handlers
       dominate; splits, AAS, the reliable sublayer and the WAL idle. *)
    {
      base with
      name = "read-mostly";
      procs = 64;
      capacity = 16;
      window = 8;
      preload = 64_000;
      ops = 192_000;
      search_ratio = 0.9;
    };
    (* Every insert relays to all 8 copies and every split runs an AAS
       over all of them: relay/split handlers and network fan-out. *)
    {
      base with
      name = "insert-sync";
      kernel = Fixed Config.Sync;
      replication = Config.All_procs;
      window = 4;
      preload = 24_000;
      ops = 64_000;
      search_ratio = 0.2;
    };
    (* The only workload on the third kernel and on the reliable
       sublayer's retransmit/ack/dedup paths, with §4.3 joins and
       migrations driven by the balancer. *)
    {
      base with
      name = "lossy-variable";
      kernel = Variable;
      transport = Net.Reliable;
      faults = { Net.no_faults with drop_prob = 0.02; duplicate_prob = 0.01 };
      balance_period = 400;
      preload = 24_000;
      ops = 96_000;
    };
    (* The only workload with the WAL on, at the default compaction
       cadence, so journal and snapshot costs show here and nowhere else. *)
    {
      base with
      name = "durable-semi";
      transport = Net.Reliable;
      durability = { Config.wal = true; snapshot_every = 256 };
      preload = 6_000;
      ops = 24_000;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let key_space w = 8 * (w.preload + w.ops)

let config w ~seed ~trace =
  let discipline = match w.kernel with Fixed d -> d | Variable -> Config.Semi in
  Config.make ~procs:w.procs ~capacity:w.capacity ~seed ~key_space:(key_space w)
    ~replication:w.replication ~discipline ~transport:w.transport
    ~faults:w.faults ~durability:w.durability ~balance_period:w.balance_period
    ~record_history:false ~trace ()

(** Per-processor operation arrays, generated before any timer starts. *)
type inputs = {
  preload_ops : Workload.op array array;
  measured_ops : Workload.op array array;
}

let inputs w ~seed =
  let rng = Rng.create seed in
  let keys =
    Workload.unique_keys rng ~key_space:(key_space w) ~count:(w.preload + w.ops)
  in
  let loaded = Array.sub keys 0 w.preload in
  let preload_ops =
    Array.map
      (Array.map (fun k -> Workload.Insert (k, Workload.value_for k)))
      (Workload.chunk loaded ~parts:w.procs)
  in
  let next_fresh = ref w.preload in
  let measured_ops =
    Array.init w.procs (fun _ ->
        Array.init (w.ops / w.procs) (fun _ ->
            if Rng.float rng 1.0 < w.search_ratio then
              Workload.Search loaded.(Rng.int rng w.preload)
            else begin
              let k = keys.(!next_fresh) in
              incr next_fresh;
              Workload.Insert (k, Workload.value_for k)
            end))
  in
  { preload_ops; measured_ops }
