(** E17 — million-op scale: throughput, root traffic and AAS stalls at
    64–256 processors, with cells distributed over domains by
    {!Dbtree_sim.Par.map}. *)

val id : string
val title : string

val run : ?quick:bool -> unit -> unit

val run_with : ?quick:bool -> ?domains:int -> unit -> unit
(** [run] with an explicit domain count, for the sequential-vs-parallel
    byte-identity tests ([domains:1] spawns no domain at all). *)
