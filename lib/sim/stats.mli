(** Named counters and summaries for simulation runs.

    A [Stats.t] is a mutable bag of metrics keyed by string.  Protocol code
    increments counters ("msg.relay_insert", "split.blocked", ...) and the
    experiment harness reads them back after the run.  Two metric shapes are
    supported: integer counters and log-bucketed histograms, the latter
    used for latencies and queue lengths and also read back as scalar
    summaries (count / sum / min / max).

    Hot paths should not pay a hash + string compare per increment: resolve
    the counter once with {!counter} and bump the returned handle with
    {!tick}/{!add}.  {!incr} remains for cold paths and one-off bumps. *)

type t

type counter = int ref
(** A pre-resolved counter handle: a plain [int ref] interned in the stats
    table.  Bumping one is a load, an add, and a store — no hashing. *)

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
}

val create : unit -> t

val counter : t -> string -> counter
(** [counter t name] is the interned handle for [name], created at 0 if
    absent.  Repeated calls return the same ref.  A counter that is interned
    but never bumped stays invisible to {!counters}/{!pp}. *)

val tick : counter -> unit
(** Bump a pre-resolved counter by 1. *)

val add : counter -> int -> unit
(** Bump a pre-resolved counter by an arbitrary amount. *)

val value : counter -> int

val incr : ?by:int -> t -> string -> unit
(** Bump counter [name] by [by] (default 1), creating it at 0 if absent.
    String-keyed: one hashtable lookup per call — fine off the hot path. *)

val get : t -> string -> int
(** Counter value, 0 if never incremented. *)

val summary : t -> string -> summary option
(** The count/sum/min/max of {!hist} [name], if it has samples. *)

val mean : summary -> float

(** {2 Log-bucketed histograms}

    16 sub-buckets per octave (≤ 6.25% relative error on percentiles);
    integer samples (ticks, bytes, queue lengths).  They keep the whole
    distribution, so tail latency (p90/p99) is recoverable.  Resolve the handle once with {!hist} off the hot path;
    {!hist_observe} is a branch, a shift and two array operations. *)

type hist

val hist : t -> string -> hist
(** Interned handle for histogram [name], created empty if absent.
    Repeated calls return the same histogram.  An empty histogram stays
    invisible to {!hists}/{!summaries}/{!pp}. *)

val hist_observe : hist -> int -> unit
(** Record one sample (negative values clamp to 0). *)

val hist_count : hist -> int
val hist_sum : hist -> float
val hist_mean : hist -> float

val hist_min : hist -> int
(** Exact (not bucketed); 0 when empty. *)

val hist_max : hist -> int
(** Exact (not bucketed); 0 when empty. *)

val hist_percentile : hist -> float -> int
(** [hist_percentile h p] for [p] in [\[0, 100\]]: nearest-rank
    percentile over bucket lower bounds, clamped to the exact
    [\[min, max\]].  0 when empty.

    Two percentile definitions coexist in this repo.  This bucketed one
    (≤ 6.25% relative error) is what BENCH.json's [latency] section and
    the telemetry sketches report; experiment latency columns (e.g.
    E17's [search_p99]) use [Opstate.latency_percentile], the exact
    nearest-rank over per-op samples.  A qcheck property in
    [test/test_telemetry.ml] pins their divergence to at most one
    log-bucket. *)

val hists : t -> (string * hist) list
(** All non-empty histograms, sorted by name. *)

val sorted_bindings : ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings of any hash table, sorted by key (polymorphic compare).
    This is the sanctioned deterministic replacement for
    [Hashtbl.iter]/[Hashtbl.fold], whose order is unspecified — the
    [no-nondeterminism] lint rule points here.  Keys are assumed unique
    per table. *)

val counters : t -> (string * int) list
(** All nonzero counters, sorted by name. *)

val counter_handles : t -> (string * counter) list
(** Every interned counter handle (still-zero ones included), sorted by
    name.  For telemetry registration: the scrape path reads the refs
    directly, so handles interned after registration need another
    registration pass by the owner. *)

val summaries : t -> (string * summary) list
(** The {!summary} of each non-empty {!hist}, sorted by name. *)

val get_prefix : t -> string -> int
(** [get_prefix t p] sums every counter whose name starts with [p]. *)

val reset : t -> unit
(** Zero every counter and histogram.  Interned handles from
    {!counter}/{!hist} remain valid (they are zeroed in place, not
    discarded). *)

val pp : t Fmt.t
(** Render all metrics, one per line, for debugging. *)
