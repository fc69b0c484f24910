(* Ring-buffered time series, scraped on simulated time.

   A registry holds named series in registration order; each series is
   backed by one of three sources: a [Gauge] closure sampled at scrape
   time, a [Cell] (an int ref the owning subsystem writes on its own
   schedule), or a [Counter] (an existing interned [Stats] counter ref,
   scraped as-is).  One scrape writes one slot per series into
   preallocated rings — no allocation, no strings, no hashing — so the
   scrape path is safe to drive from the simulator's probe hook.

   Determinism: scrape times come from the simulation clock and sources
   read only simulation state, so the ring contents are a pure function
   of the run.  Rendering (Prometheus text, JSON) happens offline. *)

type source = Gauge of (unit -> int) | Cell of int ref | Counter of int ref

type series = {
  s_name : string;
  source : source;
  values : int array;  (* ring, indexed by scrape index mod capacity *)
}

type t = {
  enabled : bool;
  every : int;  (* scrape cadence in simulated ticks *)
  cap : int;  (* scrape points retained per series *)
  label : string;
  mutable series : series array;
  mutable n : int;
  times : int array;  (* shared timestamp ring — all series scrape together *)
  mutable scrapes : int;  (* total scrape points ever taken *)
}

let default_every = 512
let default_capacity = 64

let create ?(enabled = true) ?(every = default_every)
    ?(capacity = default_capacity) ?(label = "") () =
  if every < 1 then invalid_arg "Series.create: every must be >= 1";
  if capacity < 1 then invalid_arg "Series.create: capacity must be >= 1";
  {
    enabled;
    every;
    cap = capacity;
    label;
    series = Array.make 0 { s_name = ""; source = Cell (ref 0); values = [||] };
    n = 0;
    times = Array.make (if enabled then capacity else 0) 0;
    scrapes = 0;
  }

let disabled = create ~enabled:false ~label:"" ()
let on t = t.enabled
let every t = t.every
let capacity t = t.cap
let label t = t.label
let scrape_count t = t.scrapes

let register t name source =
  if t.enabled then begin
    for i = 0 to t.n - 1 do
      if t.series.(i).s_name = name then
        Fmt.invalid_arg "Series: duplicate series %S" name
    done;
    if t.n = Array.length t.series then begin
      let grown =
        Array.make (max 8 (2 * t.n))
          { s_name = ""; source = Cell (ref 0); values = [||] }
      in
      Array.blit t.series 0 grown 0 t.n;
      t.series <- grown
    end;
    t.series.(t.n) <- { s_name = name; source; values = Array.make t.cap 0 };
    t.n <- t.n + 1
  end

let gauge t name f = register t name (Gauge f)

let cell t name =
  let r = ref 0 in
  register t name (Cell r);
  r

let counter t name r = register t name (Counter r)

let[@inline] sample = function
  | Gauge f -> f ()
  | Cell r -> !r
  | Counter r -> !r

(* One scrape point: a timestamp slot plus one value slot per series.
   Preallocated rings only — this runs between simulation events. *)
let scrape t ~now =
  if t.enabled then begin
    let slot = t.scrapes mod t.cap in
    t.times.(slot) <- now;
    for i = 0 to t.n - 1 do
      let s = Array.unsafe_get t.series i in
      s.values.(slot) <- sample s.source
    done;
    t.scrapes <- t.scrapes + 1
  end

(* ------------------------------------------------------------------ *)
(* Reading (offline)                                                   *)

let names t = List.init t.n (fun i -> t.series.(i).s_name)

let find t name =
  let rec go i =
    if i >= t.n then None
    else if t.series.(i).s_name = name then Some t.series.(i)
    else go (i + 1)
  in
  go 0

let retained t = min t.scrapes t.cap

let points t name =
  match find t name with
  | None -> []
  | Some s ->
    let k = retained t in
    List.init k (fun j ->
        let idx = t.scrapes - k + j in
        let slot = idx mod t.cap in
        (t.times.(slot), s.values.(slot)))

let last t name =
  match points t name with
  | [] -> None
  | pts -> Some (List.nth pts (List.length pts - 1))

(* ------------------------------------------------------------------ *)
(* Rendering (offline)                                                 *)

(* Prometheus metric names admit [a-zA-Z0-9_:]; the registry's dotted
   names map dots (and anything else) to underscores. *)
let prom_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let source_type = function
  | Gauge _ | Cell _ -> "gauge"
  | Counter _ -> "counter"

let pp_prometheus ppf t =
  let k = retained t in
  for i = 0 to t.n - 1 do
    let s = t.series.(i) in
    let pn = "dbtree_" ^ prom_name s.s_name in
    Fmt.pf ppf "# TYPE %s %s@." pn (source_type s.source);
    let v =
      if k = 0 then sample s.source
      else s.values.((t.scrapes - 1) mod t.cap)
    in
    if t.label = "" then Fmt.pf ppf "%s %d@." pn v
    else Fmt.pf ppf "%s{run=%S} %d@." pn t.label v
  done

let to_json t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"label\":\"%s\",\"every\":%d,\"scrapes\":%d,\"series\":["
       (Export.escape t.label) t.every t.scrapes);
  for i = 0 to t.n - 1 do
    if i > 0 then Buffer.add_char buf ',';
    let s = t.series.(i) in
    Buffer.add_string buf
      (Printf.sprintf "\n{\"name\":\"%s\",\"type\":\"%s\",\"points\":["
         (Export.escape s.s_name) (source_type s.source));
    List.iteri
      (fun j (time, v) ->
        if j > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "[%d,%d]" time v))
      (points t s.s_name);
    Buffer.add_string buf "]}"
  done;
  Buffer.add_string buf "\n]}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Global force switch                                                 *)

(* Mirror of [Obs]'s forced-tracing switch, for `dbtree metrics` and any
   CLI path that cannot thread a telemetry flag through an experiment's
   internal configs: when forced, every cluster-owned registry created
   afterwards is enabled (at [forced_every] cadence) and recorded here
   for a merged dump after the run.

   Registry creation is par-reachable (E17 cells build clusters in
   domains), so this is cross-domain state: the switch and cadence are
   Atomics read once per create, and the collection list is guarded by
   [registry_mu] — complete under [Par.map], ordered by the caller. *)

let force_on = Atomic.make false
let force_every = Atomic.make default_every
let registry_mu = Mutex.create ()

(* dbrace: guarded -- every touch below is inside Mutex.protect registry_mu *)
let registry : t list ref = ref []

let force_enable ?(every = default_every) () =
  Atomic.set force_every every;
  Atomic.set force_on true

let force_disable () = Atomic.set force_on false
let forced () = Atomic.get force_on
let forced_every () = Atomic.get force_every

let note_registered t =
  Mutex.protect registry_mu (fun () -> registry := t :: !registry)

let registered () = List.rev (Mutex.protect registry_mu (fun () -> !registry))
let clear_registered () = Mutex.protect registry_mu (fun () -> registry := [])
