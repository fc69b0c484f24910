(** E19 — the live telemetry plane: probe-driven scrape overhead (gated
    at zero event drift), per-window hotspot timeline, SLO alert rules
    on clean vs retransmission-storm runs, and critical-path phase
    attribution per update discipline. *)

val id : string
val title : string
val run : ?quick:bool -> unit -> unit

val metrics : ?quick:bool -> unit -> (string * float) list
(** [<discipline>.stall_pct / .net_pct / .proc_pct] from traced runs of
    the three disciplines: the critical-path table's shares as flat
    pairs. *)
