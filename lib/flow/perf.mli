(** dbperf: whole-program hot-path cost rules over the {!Graph} call
    graph.

    The hot set is the call-graph closure from the hot roots: every
    handler registered with [Sim.register_handler], the [Sim.set_probe]
    callback (closures handed inline or through a local binding are cut
    into pseudo-nodes), the event-loop core and wheel drain, the
    telemetry/stats/series/sketch hot hooks, and every binding carrying
    a [dbperf: hot -- why] annotation.  The rules check nothing in the
    hot set allocates (without a justified [dbperf: alloc-ok -- why] on
    the site) or performs a polymorphic comparison, and that every
    annotation is attached and justified. *)

type annot = { an_line : int; an_keyword : string; an_why : string }

val scan_annots : string -> annot list
(** Every [hot]/[alloc-ok] annotation in a source, with its
    justification (empty when the ' -- why' part is missing). *)

val builtin_roots : string list
(** The built-in hot-root ids, intersected with the graph at analysis
    time; the [Gc.minor_words]-proven telemetry hooks are all here. *)

val hot_root_ids : Program.t -> Graph.t -> string list
(** Built-in roots present in the graph, plus every id handed to
    [Sim.register_handler]/[Sim.set_probe], plus annotated bindings. *)

type ctx = {
  prog : Program.t;
  graph : Graph.t;
  roots : string list;
  hot : Graph.node list;  (** the hot closure, deduplicated *)
  annots : (string * annot list) list;  (** per-file annotation scan *)
}

val make_ctx : ?graph:Graph.t -> Program.t -> ctx
(** Builds the graph unless [graph] is given. *)

val alloc_sites : ctx -> Graph.node -> (string * Location.t) list
(** A node's allocation sites: recorded allocation-shaped expressions
    plus partial applications of resolved callees (arity table). *)

type rule = {
  name : string;
  doc : string;
  check : ctx -> Dbtree_lint.Rule.violation list;
}

val all_rules : rule list
val rule_names : string list

val check :
  rule list -> Program.t -> Graph.t -> Dbtree_lint.Rule.violation list
(** Compute the hot set and run the rules; unsuppressed and unsorted
    ({!Check} applies the [dbperf] allow comments). *)

val pp_hot : Format.formatter -> Program.t -> unit
(** The [--hot] audit view: one line per hot-set member with its
    allocation-site and poly-compare counts, roots flagged. *)
