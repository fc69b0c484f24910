(** Reading and parsing [.ml] sources for {!Dbtree_flow.Program}, the
    one parse every rule family of [dbcheck] runs over, so all families
    agree on locations and encoding. *)

val read_file : string -> string
(** Whole file as a string, read in binary mode (byte offsets in
    [Location.t] then match the on-disk file exactly). *)

val parse : file:string -> string -> Parsetree.structure
(** Parse source text as if it lived at [file]; locations carry [file].
    @raise Syntaxerr.Error on unparseable input. *)
