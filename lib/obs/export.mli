(** Chrome trace-event JSON exporter ([chrome://tracing] / Perfetto).

    Mapping: chrome [pid] = recorder index (one process group per
    cluster), chrome [tid] = simulated processor, [ts] = simulator
    ticks.  Client operations are async spans ([ph:"b"]/[ph:"e"] keyed
    by op id), message traffic becomes instants joined by flow arrows
    ([ph:"s"] at the send keyed by the send event id, [ph:"f"] at the
    receive keyed by its parent), and protocol events (splits, AAS,
    relays, ...) are instants with their operands in [args].

    Output is a pure function of ring contents: same seed, same file,
    byte for byte. *)

val escape : string -> string
(** Escape a string for embedding in a JSON string literal. *)

val to_string : Obs.t list -> string

val write : path:string -> Obs.t list -> unit

val validate : string -> (int, string) result
(** Structural self-check of an exported trace: valid JSON with a
    [traceEvents] array whose events all carry [name]/[ph]/[pid]/[tid]
    (+ [ts] outside metadata) with a known phase, async begin/end
    balanced per (cat, id), and every flow finish matching a start.
    Returns the event count. *)
