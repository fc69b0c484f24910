(* Whole-program extraction: one pass over every parsed unit builds
   - a call graph of top-level (and module-nested) functions,
   - per-node protocol facts: which [Msg.t] constructors the node
     builds, which [Obs] event kinds it emits at an emit site, whether
     it touches the AAS machinery, whether it reads a primary-copy
     gate, and where it constructs an initial-update reply,
   - the handler dispatch of each protocol kernel, split into one
     pseudo-node per arm (the dispatch [match] in [handle] is the cut
     point: [handle] itself gets no outgoing edges, so reachability
     from one arm never leaks through re-entrant dispatch like the
     [Batch] arm),
   - every interned [Stats.counter]/[Stats.hist] creation, every
     literal-named [Series] registration (cell/gauge/counter), and a
     global tally of identifier/field mentions to pair them against.

   Everything is syntactic (no typing pass), like dblint: the rules
   compensate by scoping to the kernel unit and erring silent. *)

open Dbtree_lint

type access_kind =
  | Deref  (** [!x] *)
  | Assign  (** [x := e], [incr x], a mutating stdlib call on [x] *)
  | Setfield  (** [x.f <- e] *)
  | Atomic_op of string  (** [Atomic.op x ...] *)
  | Use  (** any other mention: [x] passed around or aliased *)

type node = {
  id : string;
  unit_name : string;
  file : string;
  loc : Location.t;
  mutable calls : string list;
  mutable constructs : (string * Location.t) list;
  mutable emits : (string * Location.t) list;
  mutable reply_sites : Location.t list;
  mutable pc_gates : Location.t list;
  mutable aas_marked : bool;
  mutable accesses : (string * access_kind * Location.t) list;
  mutable par_roots : string list;
  mutable allocs : (string * Location.t) list;
  mutable polys : (string * Location.t) list;
  mutable apps : (string * int * Location.t) list;
  mutable hot_roots : string list;
}

type arm = {
  arm_constructors : (string * Location.t) list;
  arm_node : node;
  arm_rejecting : bool;
  arm_line : int;
}

type kernel = {
  k_unit : string;
  k_file : string;
  k_arms : arm list;
}

type counter_def = {
  cd_key : string;
      (** record label or let-bound name holding the handle; [""] for
          handle-free registrations *)
  cd_name : string;  (** interned metric name *)
  cd_kind : [ `Counter | `Hist | `Cell | `Gauge | `Scounter ];
  cd_unit : string;
  cd_file : string;
  cd_loc : Location.t;
}

type t = {
  nodes : (string, node) Hashtbl.t;
  node_order : string list;
  kernels : kernel list;
  counters : counter_def list;
  uses : (string, int) Hashtbl.t;
  hot_subnodes : node list;
  arities : (string, int) Hashtbl.t;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)

let last_comp lid =
  match Rule.lident_components (Rule.strip_stdlib lid) with
  | [] -> ""
  | comps -> List.nth comps (List.length comps - 1)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let is_lower_ident s = s <> "" && s.[0] >= 'a' && s.[0] <= 'z'
let is_upper_ident s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(* Search and scan replies are exempt from the AAS-discipline rule
   (Theorem 1 blocks only the initial updates); the kernels build those
   replies inline under a [Search]/[Scan] dispatch arm. *)
let exempt_ctors = [ "Search"; "Scan"; "K_search"; "K_scan" ]

let pattern_ctors (p : Parsetree.pattern) =
  let acc = ref [] in
  let pat (it : Ast_iterator.iterator) (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_construct ({ txt; loc }, _) ->
      let name = last_comp txt in
      if is_upper_ident name then acc := (txt, name, loc) :: !acc
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  List.rev !acc

let pattern_mentions_exempt p =
  List.exists (fun (_, name, _) -> List.mem name exempt_ctors) (pattern_ctors p)

let msg_pattern_ctors p =
  List.filter_map
    (fun (lid, name, loc) ->
      if Rule.mentions_module lid "Msg" then Some (name, loc) else None)
    (pattern_ctors p)

(* A rejecting arm refuses the kind at runtime instead of handling it:
   its body is a direct failwith/invalid_arg application. *)
let arm_rejects (body : Parsetree.expression) =
  let rec strip (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_constraint (e, _) -> strip e
    | _ -> e
  in
  match (strip body).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match last_comp txt with
    | "failwith" | "invalid_arg" -> true
    | _ -> false)
  | _ -> false

let emit_callees = [ "event"; "emit"; "emit_here" ]

(* ------------------------------------------------------------------ *)
(* Per-unit binding discovery                                          *)

(* Collect value bindings recursively through plain/functor module
   structures, so kernels wrapped in functors (Net.Make style) and
   local modules still contribute nodes.  First binding of a name wins
   the unqualified node id; later shadows are skipped (deterministic,
   and shadowing of top-level names does not occur in this codebase). *)
let collect_bindings structure =
  let acc = ref [] and aliases = ref [] in
  let rec str_item (item : Parsetree.structure_item) =
    match item.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } ->
            if not (List.mem_assoc txt !acc) then
              acc := !acc @ [ (txt, vb.pvb_expr) ]
          | _ -> ())
        vbs
    | Pstr_module mb -> module_binding mb
    | Pstr_recmodule mbs -> List.iter module_binding mbs
    | _ -> ()
  and module_binding (mb : Parsetree.module_binding) =
    (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
    | Some name, Pmod_ident { txt; _ } ->
      aliases := (name, last_comp txt) :: !aliases
    | ( Some name,
        Pmod_apply ({ pmod_desc = Pmod_ident { txt = Ldot (unit, _); _ }; _ }, _)
      ) ->
      (* [module Core = Kernel_core.Make (...)]: the functor body's
         bindings are collected flat under their unit, so calls through
         the instance resolve there. *)
      aliases := (name, last_comp unit) :: !aliases
    | _ -> ());
    module_expr mb.pmb_expr
  and module_expr (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_structure items -> List.iter str_item items
    | Pmod_functor (_, body) -> module_expr body
    | Pmod_constraint (me, _) -> module_expr me
    | _ -> ()
  in
  List.iter str_item structure;
  (!acc, !aliases)

(* ------------------------------------------------------------------ *)
(* Node body walk                                                      *)

type env = {
  e_unit : string;
  e_file : string;
  e_top_names : string list;
  e_aliases : (string * string) list;
  e_unit_names : string list;
  e_uses : (string, int) Hashtbl.t;
  e_counters : counter_def list ref;
}

let count_use env name =
  Hashtbl.replace env.e_uses name
    (1 + Option.value (Hashtbl.find_opt env.e_uses name) ~default:0)

(* Resolve a value path to a node id: a bare name against this unit's
   top-level bindings, a qualified one against the program's units
   (through module aliases).  Shared by the call graph and the
   global-access facts dbrace layers on top. *)
let resolve_target env lid =
  (* An explicitly [Stdlib.]-qualified name is never a repo binding, even
     when a same-unit binding shadows the stdlib one ([Stats.incr]). *)
  if List.mem "Stdlib" (Rule.lident_components lid) then None
  else
  let comps = Rule.lident_components (Rule.strip_stdlib lid) in
  match comps with
  | [] -> None
  | [ f ] ->
    if List.mem f env.e_top_names then Some (env.e_unit ^ "." ^ f) else None
  | comps ->
    let n = List.length comps in
    let f = List.nth comps (n - 1) in
    let m = List.nth comps (n - 2) in
    let m =
      match List.assoc_opt m env.e_aliases with Some m' -> m' | None -> m
    in
    if List.mem m env.e_unit_names && is_lower_ident f then Some (m ^ "." ^ f)
    else None

let resolve_call env node lid =
  match resolve_target env lid with
  | Some id -> if not (List.mem id node.calls) then node.calls <- node.calls @ [ id ]
  | None -> ()

let string_lit (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | _ -> None

(* [Stats.counter bag] / [Stats.hist bag]: a partially applied maker. *)
let maker_kind (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, [ (_, arg) ])
    when string_lit arg = None -> (
    match Rule.lident_components (Rule.strip_stdlib txt) with
    | [ "Stats"; "counter" ] -> Some `Counter
    | [ "Stats"; "hist" ] -> Some `Hist
    | _ -> None)
  | _ -> None

(* Is [e] the creation of a named metric handle?  A full literal call
   [Stats.counter bag "name"] / [Series.cell reg "name"] or an
   application of an in-scope maker [c "name"]. *)
let creation ~makers (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
    let lits = List.filter_map (fun (_, a) -> string_lit a) args in
    match (Rule.lident_components (Rule.strip_stdlib txt), lits) with
    | [ "Stats"; "counter" ], [ name ] when List.length args = 2 ->
      Some (`Counter, name)
    | [ "Stats"; "hist" ], [ name ] when List.length args = 2 ->
      Some (`Hist, name)
    | [ "Series"; "cell" ], [ name ] when List.length args = 2 ->
      Some (`Cell, name)
    | [ v ], [ name ] when List.length args = 1 -> (
      match List.assoc_opt v makers with
      | Some kind -> Some (kind, name)
      | None -> None)
    | _ -> None)
  | _ -> None

(* A handle-free [Series] registration: [Series.gauge reg "name" f] or
   [Series.counter reg "name" r].  Only literal names register a
   definition — computed names (the per-processor [Fmt.str] gauges) have
   nothing for the lifecycle rule to check.  [Series.counter] shares a
   head with [Stats.counter]; the argument count separates them
   (3 arguments against 2). *)
let series_registration (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
    when List.length args = 3 -> (
    let lits = List.filter_map (fun (_, a) -> string_lit a) args in
    match (Rule.lident_components (Rule.strip_stdlib txt), lits) with
    | [ "Series"; "gauge" ], [ name ] -> Some (`Gauge, name)
    | [ "Series"; "counter" ], [ name ] -> Some (`Scounter, name)
    | _ -> None)
  | _ -> None

(* Calls whose first unlabelled argument is mutated in place: enough to
   classify [Hashtbl.add tbl ...] on a toplevel table as a write rather
   than a generic use.  (A global in any *other* argument position of
   such a call still surfaces as a [Use] — dbrace treats both as shared
   access; only the rule attribution differs.) *)
let mutating_first_arg lid =
  match Rule.lident_components (Rule.strip_stdlib lid) with
  | [ m; f ] -> (
    match m with
    | "Hashtbl" ->
      List.mem f [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ]
    | "Array" -> List.mem f [ "set"; "fill"; "unsafe_set"; "blit" ]
    | "Bytes" -> List.mem f [ "set"; "fill"; "unsafe_set"; "blit" ]
    | "Buffer" ->
      List.mem f
        [ "add_string"; "add_char"; "add_bytes"; "add_substring";
          "add_buffer"; "clear"; "reset"; "truncate" ]
    | "Queue" -> List.mem f [ "push"; "add"; "pop"; "take"; "clear"; "transfer" ]
    | _ -> false)
  | _ -> false

(* Which unlabelled argument of a call becomes a domain-worker entry
   point: the function handed to [Par.map]/[Par.run_cells], and the
   handler registered with [Sim.register_handler] (handlers run inside
   [Sim.run], which the parallel cells drive). *)
let par_fn_index lid =
  let f = last_comp lid in
  if Rule.mentions_module lid "Par" && (f = "map" || f = "run_cells") then
    Some 0
  else if Rule.mentions_module lid "Sim" && f = "register_handler" then Some 1
  else None

(* ------------------------------------------------------------------ *)
(* Allocation- and boxing-shaped expressions (dbperf's raw material)    *)

let rec skip_constraint (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> skip_constraint e
  | _ -> e

(* Stdlib entry points that build a fresh block per call.  Syntactic and
   deliberately shallow: only the makers/mappers that show up in this
   codebase, so a hot-set hit is almost always a real allocation. *)
let alloc_call comps =
  match comps with
  | [ "ref" ] -> Some "ref cell"
  | [ "^" ] -> Some "string append (^)"
  | [ "@" ] -> Some "list append (@)"
  | [ ("failwith" | "invalid_arg") ] -> Some "exception construction"
  | [ "Fmt"; ("str" | "strf" | "failwith" | "invalid_arg" | "error_msg") ] ->
    Some "Fmt string build"
  | [ "Printf"; "sprintf" ] | [ "Format"; ("sprintf" | "asprintf") ] ->
    Some "sprintf string build"
  | [ "String"; ("concat" | "sub" | "make" | "init" | "map" | "cat"
                | "split_on_char" | "of_bytes" | "to_bytes" | "uppercase_ascii"
                | "lowercase_ascii" | "capitalize_ascii") ] ->
    Some "String build"
  | [ "Bytes"; ("create" | "make" | "sub" | "copy" | "cat" | "extend"
               | "of_string" | "to_string") ] ->
    Some "Bytes build"
  | [ "Array"; ("make" | "init" | "copy" | "append" | "sub" | "concat"
               | "of_list" | "to_list" | "map" | "mapi" | "make_matrix"
               | "create_float" | "of_seq" | "to_seq") ] ->
    Some "Array build"
  | [ "List"; ("map" | "mapi" | "init" | "rev" | "append" | "rev_append"
              | "concat" | "concat_map" | "flatten" | "filter" | "filter_map"
              | "partition" | "sort" | "sort_uniq" | "stable_sort"
              | "fast_sort" | "merge" | "split" | "combine" | "cons"
              | "of_seq" | "to_seq") ] ->
    Some "List build"
  | [ "Hashtbl"; ("create" | "copy" | "to_seq" | "to_seq_keys"
                 | "to_seq_values") ] ->
    Some "Hashtbl build"
  | [ "Buffer"; ("create" | "contents" | "to_bytes" | "sub") ] ->
    Some "Buffer build"
  | [ "Queue"; ("create" | "copy" | "to_seq") ] -> Some "Queue build"
  | _ -> None

(* Syntactic evidence an argument of [=]/[<>]/[min]/[max] is a boxed
   value, making the comparison a polymorphic C call.  Bare idents stay
   silent (their type is unknowable without inference), so hot int
   compares like [pid = pc] never fire; constant constructors other than
   [true]/[false]/[()] do fire — [x = None] and [disc = Sync] both walk
   the generic equality. *)
let looks_boxed (e : Parsetree.expression) =
  match (skip_constraint e).pexp_desc with
  | Pexp_constant (Pconst_string _ | Pconst_float _) -> true
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_variant _ -> true
  | Pexp_construct ({ txt; _ }, arg) -> (
    match (last_comp txt, arg) with
    | ("true" | "false" | "()"), _ -> false
    | _, _ -> true)
  | _ -> false

(* Leading parameter count of a binding (labelled params count, optional
   ones do not — an omitted optional argument still applies totally), so
   a cross-unit application with fewer arguments is a partial
   application: a closure allocated at the call site. *)
let arity_of (expr : Parsetree.expression) =
  let rec go n (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun (l, _, _, body) ->
      let n = match l with Asttypes.Optional _ -> n | _ -> n + 1 in
      go n body
    | Pexp_newtype (_, body) -> go n body
    | Pexp_function _ -> n + 1
    | _ -> n
  in
  go 0 expr

(* [let x = ref e in body] where [x] is only ever dereferenced,
   assigned, or incr/decr'd is the compiler's own criterion for
   eliminating the cell ([Simplif.eliminate_ref]): the ref becomes a
   mutable local variable and never reaches the heap, so dbperf must
   not charge the site as an allocation. *)
let ref_stays_local x body =
  let escaped = ref false in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_apply
        ( {
            pexp_desc =
              Pexp_ident { txt = Longident.Lident ("!" | "incr" | "decr"); _ };
            _;
          },
          [
            ( Asttypes.Nolabel,
              { pexp_desc = Pexp_ident { txt = Longident.Lident y; _ }; _ } );
          ] )
      when y = x ->
      ()
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Longident.Lident ":="; _ }; _ },
          [
            ( Asttypes.Nolabel,
              { pexp_desc = Pexp_ident { txt = Longident.Lident y; _ }; _ } );
            (Asttypes.Nolabel, rhs);
          ] )
      when y = x ->
      it.expr it rhs
    | Pexp_ident { txt = Longident.Lident y; _ } when y = x -> escaped := true
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it body;
  not !escaped

(* Which unlabelled argument of a call becomes a hot-path entry point
   for dbperf: the handler registered with [Sim.register_handler] runs
   once per simulated event, and the [Sim.set_probe] callback (its last
   unlabelled argument) runs on every scrape boundary. *)
let hot_fn_slot lid ~nolabel_count =
  let f = last_comp lid in
  if Rule.mentions_module lid "Sim" && f = "register_handler" then Some 1
  else if Rule.mentions_module lid "Sim" && f = "set_probe" then
    Some (nolabel_count - 1)
  else None

let walk_node env (node : node) (expr0 : Parsetree.expression)
    ~(skip_cases : Parsetree.case list option)
    ~(on_hot_fn : (string -> Parsetree.expression -> string) option) =
  let exempt = ref 0 in
  let makers = ref [] in
  (* Identifier occurrences already folded into a specialised access
     ([!x], [x := e], [Atomic.get x], ...) must not re-surface as a
     generic [Use] when the iterator descends into the argument. *)
  let claimed : (Location.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let add_access id kind loc =
    node.accesses <- node.accesses @ [ (id, kind, loc) ]
  in
  let claim_ident kind (a : Parsetree.expression) =
    match a.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      Hashtbl.replace claimed a.pexp_loc ();
      match resolve_target env txt with
      | Some id -> add_access id kind a.pexp_loc
      | None -> ())
    | _ -> ()
  in
  let add_par_root id =
    if not (List.mem id node.par_roots) then
      node.par_roots <- node.par_roots @ [ id ]
  in
  (* The binding's own leading [fun] chain is the function itself, not a
     closure allocated per call; every [fun] below it is. *)
  let spine : (Location.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let rec mark_spine (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) ->
      Hashtbl.replace spine e.pexp_loc ();
      mark_spine body
    | Pexp_function _ -> Hashtbl.replace spine e.pexp_loc ()
    | _ -> ()
  in
  mark_spine expr0;
  (* A tuple immediately under a multi-argument constructor is that
     constructor's argument block, not a second allocation. *)
  let alloc_claimed : (Location.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let add_alloc desc loc =
    if not (Hashtbl.mem alloc_claimed loc) then
      node.allocs <- node.allocs @ [ (desc, loc) ]
  in
  let claim_arg (arg : Parsetree.expression) =
    match (skip_constraint arg).pexp_desc with
    | Pexp_tuple _ -> Hashtbl.replace alloc_claimed (skip_constraint arg).pexp_loc ()
    | _ -> ()
  in
  (* [ref] cells [Simplif.eliminate_ref] turns into mutable variables;
     see [ref_stays_local]. *)
  let safe_refs : (Location.t, unit) Hashtbl.t = Hashtbl.create 8 in
  let add_poly desc loc = node.polys <- node.polys @ [ (desc, loc) ] in
  let local_fns = ref [] in
  let add_hot_root id =
    if not (List.mem id node.hot_roots) then
      node.hot_roots <- node.hot_roots @ [ id ]
  in
  let add_counter ~key ~name kind loc =
    env.e_counters :=
      !(env.e_counters)
      @ [
          {
            cd_key = key;
            cd_name = name;
            cd_kind = kind;
            cd_unit = env.e_unit;
            cd_file = env.e_file;
            cd_loc = loc;
          };
        ]
  in
  let mark_aas_label lbl =
    if lbl = "splitting" || contains_sub lbl "aas" then node.aas_marked <- true
  in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_match (scrut, cases)
      when (match skip_cases with Some sc -> sc == cases | None -> false) ->
      (* The kernel dispatch: the arms are separate pseudo-nodes, so
         only the scrutinee belongs to [handle] itself. *)
      it.expr it scrut
    | _ ->
      (* Allocation- and boxing-shaped facts, recorded on every node;
         dbperf reports only the ones that land in the hot set. *)
      (match e.pexp_desc with
      | Pexp_fun _ | Pexp_newtype _ | Pexp_function _ ->
        if not (Hashtbl.mem spine e.pexp_loc) then begin
          add_alloc "closure" e.pexp_loc;
          (* A nested [fun x -> fun y -> ...] chain is one closure, not
             one allocation per parameter. *)
          let rec claim_chain (e : Parsetree.expression) =
            match e.pexp_desc with
            | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> (
              match body.pexp_desc with
              | Pexp_fun _ | Pexp_newtype _ | Pexp_function _ ->
                Hashtbl.replace alloc_claimed body.pexp_loc ();
                claim_chain body
              | _ -> ())
            | _ -> ()
          in
          claim_chain e
        end
      | Pexp_tuple _ -> add_alloc "tuple" e.pexp_loc
      | Pexp_record _ -> add_alloc "record" e.pexp_loc
      | Pexp_array _ -> add_alloc "array literal" e.pexp_loc
      | Pexp_lazy _ -> add_alloc "lazy block" e.pexp_loc
      | Pexp_construct ({ txt; _ }, Some arg) ->
        let name = last_comp txt in
        if is_upper_ident name || name = "::" then begin
          add_alloc
            (if name = "::" then "list cons (::)"
             else Fmt.str "constructor %s" name)
            e.pexp_loc;
          claim_arg arg
        end
      | Pexp_variant (_, Some arg) ->
        add_alloc "polymorphic variant" e.pexp_loc;
        claim_arg arg
      | Pexp_let (Asttypes.Nonrecursive, vbs, body) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match
              (vb.pvb_pat.ppat_desc, (skip_constraint vb.pvb_expr).pexp_desc)
            with
            | ( Ppat_var { txt = x; _ },
                Pexp_apply
                  ( {
                      pexp_desc =
                        Pexp_ident { txt = Longident.Lident "ref"; _ };
                      _;
                    },
                    [ (Asttypes.Nolabel, _) ] ) )
              when ref_stays_local x body ->
              Hashtbl.replace safe_refs (skip_constraint vb.pvb_expr).pexp_loc
                ()
            | _ -> ())
          vbs
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
        let comps = Rule.lident_components (Rule.strip_stdlib txt) in
        (match alloc_call comps with
        | Some desc ->
          if not (Hashtbl.mem safe_refs e.pexp_loc) then
            add_alloc desc e.pexp_loc
        | None -> ());
        let nolabel =
          List.filter_map
            (fun ((l : Asttypes.arg_label), a) ->
              match l with Asttypes.Nolabel -> Some a | _ -> None)
            args
        in
        (match (comps, nolabel) with
        | [ "compare" ], _ :: _ ->
          add_poly "polymorphic compare" e.pexp_loc
        | [ "Hashtbl"; "hash" ], _ :: _ ->
          add_poly "Hashtbl.hash" e.pexp_loc
        | [ (("=" | "<>" | "min" | "max") as op) ], [ a; b ]
          when looks_boxed a || looks_boxed b ->
          add_poly
            (Fmt.str "polymorphic %s at a boxed-looking type" op)
            e.pexp_loc
        | _ -> ());
        (* Application sites of resolved top-level functions: paired
           against the arity table to flag partial applications. *)
        match resolve_target env txt with
        | Some id ->
          let n_args =
            List.length
              (List.filter
                 (fun ((l : Asttypes.arg_label), _) ->
                   match l with Asttypes.Optional _ -> false | _ -> true)
                 args)
          in
          node.apps <- node.apps @ [ (id, n_args, e.pexp_loc) ]
        | None -> ())
      | _ -> ());
      (match e.pexp_desc with
      | Pexp_ident { txt; _ } ->
        resolve_call env node txt;
        if not (Hashtbl.mem claimed e.pexp_loc) then (
          match resolve_target env txt with
          | Some id -> add_access id Use e.pexp_loc
          | None -> ());
        (match txt with
        | Longident.Lident x ->
          count_use env x;
          if contains_sub x "aas" then node.aas_marked <- true
        | _ ->
          let lbl = last_comp txt in
          if is_lower_ident lbl && contains_sub lbl "aas" then
            node.aas_marked <- true)
      | Pexp_construct ({ txt; _ }, _) when Rule.mentions_module txt "Msg" ->
        let name = last_comp txt in
        if is_upper_ident name then begin
          node.constructs <- node.constructs @ [ (name, e.pexp_loc) ];
          if name = "Op_done" && !exempt = 0 then
            node.reply_sites <- node.reply_sites @ [ e.pexp_loc ]
        end
      | Pexp_field (_, { txt; _ }) ->
        let lbl = last_comp txt in
        count_use env lbl;
        if lbl = "pc" then node.pc_gates <- node.pc_gates @ [ e.pexp_loc ];
        mark_aas_label lbl
      | Pexp_setfield (recv, { txt; _ }, _) ->
        claim_ident Setfield recv;
        mark_aas_label (last_comp txt)
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
        let nolabel =
          List.filter_map
            (fun ((l : Asttypes.arg_label), a) ->
              match l with Asttypes.Nolabel -> Some a | _ -> None)
            args
        in
        (match series_registration e with
        | Some (kind, name) -> add_counter ~key:"" ~name kind e.pexp_loc
        | None -> ());
        (match (Rule.lident_components (Rule.strip_stdlib txt), nolabel) with
        | [ "!" ], [ a ] -> claim_ident Deref a
        | [ ":=" ], a :: _ -> claim_ident Assign a
        | [ ("incr" | "decr") ], [ a ] -> claim_ident Assign a
        | [ "Atomic"; op ], a :: _ -> claim_ident (Atomic_op op) a
        | _, a :: _ when mutating_first_arg txt -> claim_ident Assign a
        | _ -> ());
        (match par_fn_index txt with
        | Some idx -> (
          match List.nth_opt nolabel idx with
          | Some { pexp_desc = Pexp_ident { txt = flid; _ }; _ } ->
            Option.iter add_par_root (resolve_target env flid)
          | Some { pexp_desc = Pexp_fun _ | Pexp_function _; _ } ->
            (* An inline worker closure: its body (and accesses) belong
               to this node, so the node itself becomes a worker entry.
               Conservative — the node's sequential code is swept in
               too; name the worker to scope the analysis tightly. *)
            add_par_root node.id
          | _ -> ())
        | None -> ());
        (match hot_fn_slot txt ~nolabel_count:(List.length nolabel) with
        | Some idx -> (
          match List.nth_opt nolabel idx with
          | Some { pexp_desc = Pexp_ident { txt = flid; _ }; _ } -> (
            match resolve_target env flid with
            | Some id -> add_hot_root id
            | None -> (
              (* A locally bound callback ([let rec cb now = ...]): cut
                 its body into a hot subnode so the hot set covers the
                 callback without sweeping in this whole function. *)
              match flid with
              | Longident.Lident name -> (
                match (List.assoc_opt name !local_fns, on_hot_fn) with
                | Some fexpr, Some cut -> add_hot_root (cut name fexpr)
                | _ -> ())
              | _ -> ()))
          | Some ({ pexp_desc = Pexp_fun _ | Pexp_function _; _ } as fexpr)
            -> (
            match on_hot_fn with
            | Some cut ->
              add_hot_root
                (cut
                   (Fmt.str "h%d"
                      fexpr.pexp_loc.Location.loc_start.Lexing.pos_lnum)
                   fexpr)
            | None -> ())
          | _ -> ())
        | None -> ());
        (if List.mem (last_comp txt) emit_callees then
           List.iter
             (fun ((_, a) : _ * Parsetree.expression) ->
               match a.pexp_desc with
               | Pexp_construct ({ txt = c; _ }, _)
                 when Rule.mentions_module c "Event" ->
                 node.emits <- node.emits @ [ (last_comp c, a.pexp_loc) ]
               | _ -> ())
             args);
        if Rule.mentions_module txt "Msg" then begin
          (* Smart constructors ([Msg.batch]) build a kind without a
             literal constructor application. *)
          let f = last_comp txt in
          if is_lower_ident f then
            node.constructs <-
              node.constructs @ [ (String.capitalize_ascii f, e.pexp_loc) ]
        end
      | Pexp_let (_, vbs, _) ->
        List.iter
          (fun (vb : Parsetree.value_binding) ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt = v; _ } -> (
              (match vb.pvb_expr.pexp_desc with
              | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ ->
                local_fns := (v, vb.pvb_expr) :: !local_fns
              | _ -> ());
              match maker_kind vb.pvb_expr with
              | Some kind -> makers := (v, kind) :: !makers
              | None -> (
                match creation ~makers:!makers vb.pvb_expr with
                | Some (kind, name) ->
                  add_counter ~key:v ~name kind vb.pvb_expr.pexp_loc
                | None -> ()))
            | _ -> ())
          vbs
      | Pexp_record (fields, _) ->
        List.iter
          (fun (({ txt; _ }, value) : _ Asttypes.loc * Parsetree.expression)
             ->
            match creation ~makers:!makers value with
            | Some (kind, name) ->
              add_counter ~key:(last_comp txt) ~name kind value.pexp_loc
            | None -> ())
          fields
      | _ -> ());
      Ast_iterator.default_iterator.expr it e
  in
  let case (it : Ast_iterator.iterator) (c : Parsetree.case) =
    it.pat it c.pc_lhs;
    Option.iter (it.expr it) c.pc_guard;
    if pattern_mentions_exempt c.pc_lhs then begin
      incr exempt;
      it.expr it c.pc_rhs;
      decr exempt
    end
    else it.expr it c.pc_rhs
  in
  let it = { Ast_iterator.default_iterator with expr; case } in
  it.expr it expr0

(* ------------------------------------------------------------------ *)
(* Kernel dispatch discovery                                           *)

let rec find_dispatch (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> find_dispatch body
  | Pexp_newtype (_, body) -> find_dispatch body
  | Pexp_let (_, _, body) -> find_dispatch body
  | Pexp_sequence (_, body) -> find_dispatch body
  | Pexp_match (_, cases)
    when List.exists (fun c -> msg_pattern_ctors c.Parsetree.pc_lhs <> []) cases
    -> Some cases
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Build                                                               *)

let build (prog : Program.t) =
  let nodes = Hashtbl.create 256 in
  let node_order = ref [] in
  let kernels = ref [] in
  let counters = ref [] in
  let uses = Hashtbl.create 1024 in
  let hot_subnodes = ref [] in
  let arities = Hashtbl.create 256 in
  let unit_names = Program.unit_names prog in
  let fresh_node ?(register = true) ~env ~id loc =
    let n =
      {
        id;
        unit_name = env.e_unit;
        file = env.e_file;
        loc;
        calls = [];
        constructs = [];
        emits = [];
        reply_sites = [];
        pc_gates = [];
        aas_marked = false;
        accesses = [];
        par_roots = [];
        allocs = [];
        polys = [];
        apps = [];
        hot_roots = [];
      }
    in
    if register && not (Hashtbl.mem nodes id) then begin
      Hashtbl.add nodes id n;
      node_order := id :: !node_order
    end;
    n
  in
  (* Hot subnodes: closures handed to [Sim.register_handler] /
     [Sim.set_probe] inline or through a local binding, walked into
     pseudo-nodes kept OUT of the main table — the dbflow/dbrace view of
     the enclosing function is unchanged; only dbperf's hot-set
     computation sees them.  The throwaway uses/counters env keeps the
     double walk from double-counting dbflow's mention tallies. *)
  let sub_ids = Hashtbl.create 16 in
  let rec cut_hot env base_id name fexpr =
    let id = base_id ^ "#" ^ name in
    if not (Hashtbl.mem sub_ids id) then begin
      Hashtbl.add sub_ids id ();
      let env' =
        { env with e_uses = Hashtbl.create 8; e_counters = ref [] }
      in
      let sub = fresh_node ~register:false ~env:env' ~id fexpr.Parsetree.pexp_loc in
      hot_subnodes := sub :: !hot_subnodes;
      walk_node env' sub fexpr ~skip_cases:None
        ~on_hot_fn:(Some (cut_hot env' id))
    end;
    id
  in
  List.iter
    (fun (u : Program.unit_info) ->
      let bindings, aliases = collect_bindings u.structure in
      let env =
        {
          e_unit = u.name;
          e_file = u.file;
          e_top_names = List.map fst bindings;
          e_aliases = aliases;
          e_unit_names = unit_names;
          e_uses = uses;
          e_counters = counters;
        }
      in
      List.iter
        (fun (name, (expr : Parsetree.expression)) ->
          let id = u.name ^ "." ^ name in
          Hashtbl.replace arities id (arity_of expr);
          let dispatch = if name = "handle" then find_dispatch expr else None in
          let node = fresh_node ~env ~id expr.pexp_loc in
          walk_node env node expr ~skip_cases:dispatch
            ~on_hot_fn:(Some (cut_hot env id));
          match dispatch with
          | None -> ()
          | Some cases ->
            let arms =
              List.filter_map
                (fun (c : Parsetree.case) ->
                  match msg_pattern_ctors c.pc_lhs with
                  | [] -> None
                  | (first, _) :: _ as ctors ->
                    let arm_id = id ^ "#" ^ first in
                    let arm_node =
                      fresh_node ~env ~id:arm_id c.pc_lhs.ppat_loc
                    in
                    walk_node env arm_node c.pc_rhs ~skip_cases:None
                      ~on_hot_fn:(Some (cut_hot env arm_id));
                    Option.iter
                      (fun g ->
                        walk_node env arm_node g ~skip_cases:None
                          ~on_hot_fn:None)
                      c.pc_guard;
                    Some
                      {
                        arm_constructors = ctors;
                        arm_node;
                        arm_rejecting = arm_rejects c.pc_rhs;
                        arm_line =
                          c.pc_lhs.ppat_loc.Location.loc_start.Lexing.pos_lnum;
                      })
                cases
            in
            if arms <> [] then
              kernels :=
                { k_unit = u.name; k_file = u.file; k_arms = arms }
                :: !kernels)
        bindings)
    prog.Program.units;
  {
    nodes;
    node_order = List.rev !node_order;
    kernels = List.rev !kernels;
    counters = !counters;
    uses;
    hot_subnodes = List.rev !hot_subnodes;
    arities;
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let find_node t id = Hashtbl.find_opt t.nodes id

let closure t roots =
  let visited = Hashtbl.create 64 in
  let order = ref [] in
  let rec go id =
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      match find_node t id with
      | None -> ()
      | Some n ->
        order := n :: !order;
        List.iter go n.calls
    end
  in
  List.iter go roots;
  List.rev !order

let nodes_in_order t =
  List.filter_map (fun id -> find_node t id) t.node_order

let unit_nodes t unit_name =
  List.filter (fun n -> n.unit_name = unit_name) (nodes_in_order t)

let use_count t key =
  Option.value (Hashtbl.find_opt t.uses key) ~default:0

let arity t id = Hashtbl.find_opt t.arities id
