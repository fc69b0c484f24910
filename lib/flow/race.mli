(** dbrace: whole-program domain-safety rules over the {!Graph} call
    graph.

    Pass 1 inventories toplevel mutable state (refs, arrays, hash
    tables, bytes, buffers, Atomic cells, and module-level values whose
    record fields are assigned).  Pass 2 computes par-reachability: the
    call-graph closure from every function handed to
    [Par.map]/[Par.run_cells]/[Sim.register_handler].  The rules check
    the two sets only meet through Atomic operations or a justified
    [dbrace: domain-local -- why] / [dbrace: guarded -- why] annotation
    on the binding. *)

type kind =
  | K_ref
  | K_array
  | K_hashtbl
  | K_bytes
  | K_buffer
  | K_atomic
  | K_mutex
  | K_record

val kind_name : kind -> string

type global = {
  g_id : string;  (** node id, e.g. ["Obs.registry"] *)
  g_unit : string;
  g_file : string;
  g_line : int;
  g_kind : kind;
  g_allow : (string * string) option;
      (** binding-site annotation as [(keyword, justification)];
          an empty justification is itself reported *)
}

val inventory : Program.t -> Graph.t -> global list
(** The pass-1 result, in unit order then source order; [K_record]
    entries (setfield targets with no recognised maker) come last. *)

type ctx = {
  prog : Program.t;
  graph : Graph.t;
  globals : global list;
  reachable : Graph.node list;  (** the par-reachable closure *)
}

type rule = { name : string; doc : string; check : ctx -> Dbtree_lint.Rule.violation list }

val all_rules : rule list
val rule_names : string list

val check :
  rule list -> Program.t -> Graph.t -> Dbtree_lint.Rule.violation list
(** Inventory the globals, compute the par-reachable closure and run the
    rules; unsuppressed and unsorted ({!Check} applies the [dbrace]
    allow comments). *)

val pp_inventory : Format.formatter -> Program.t -> unit
(** The [--inventory] audit view: one line per toplevel mutable global,
    flagged [par-reachable] when any worker-reachable function touches
    it and with its annotation state when one is present. *)
