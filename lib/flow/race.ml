(* dbrace: whole-program domain-safety analysis.

   The paper's tables rest on deterministic, byte-identical replay, and
   PR 6 made the scale experiments domain-parallel ([Par.map] over
   self-contained cells).  That combination only holds if nothing
   reachable from a domain worker touches shared unprotected mutable
   state — which is a whole-program property, so it lives here with
   dbflow rather than in the per-file linter.

   Pass 1 inventories *toplevel mutable state*: refs, arrays, hash
   tables, bytes, buffers and [Atomic.t] cells bound at module level,
   plus module-level values whose record fields are assigned anywhere
   in the program.  Pass 2 computes *par-reachability*: the closure of
   the call graph from every function handed to [Par.map],
   [Par.run_cells] or [Sim.register_handler] (handlers run inside
   [Sim.run], which the parallel cells drive).  The rules then check
   that the two sets only meet through [Atomic] operations or an
   explicitly justified annotation.

   Like dbflow, everything is syntactic: aliasing (storing a global in
   a record and mutating it later) escapes the analysis, which is why
   the CI pairs this checker with a ThreadSanitizer run of the same
   parallel subset — the static pass proves the discipline, the dynamic
   pass catches what the syntax hides. *)

open Dbtree_lint

type kind =
  | K_ref
  | K_array
  | K_hashtbl
  | K_bytes
  | K_buffer
  | K_atomic
  | K_mutex
  | K_record

let kind_name = function
  | K_ref -> "ref"
  | K_array -> "array"
  | K_hashtbl -> "hashtbl"
  | K_bytes -> "bytes"
  | K_buffer -> "buffer"
  | K_atomic -> "atomic"
  | K_mutex -> "mutex"
  | K_record -> "record"

type global = {
  g_id : string;  (** node id, e.g. ["Obs.registry"] *)
  g_unit : string;
  g_file : string;
  g_line : int;
  g_kind : kind;
  g_allow : (string * string) option;
      (** binding-site annotation as [(keyword, justification)] *)
}

(* ------------------------------------------------------------------ *)
(* Annotation grammar: a comment on the global's binding line (or the
   line above) reading the tool name, colon-space, then a keyword —

     <tool>: domain-local -- why the state never crosses a domain
     <tool>: guarded -- which lock protects every touch

   where <tool> is this checker's name.  The marker is assembled from
   pieces (and spelled indirectly in this comment) so the textual scan
   never reads this module's own source as annotations. *)

let marker_prefix = "dbrace" ^ ": "
let allow_keywords = [ "domain-local"; "guarded" ]
let marker_of kw = marker_prefix ^ kw

type annot = { an_line : int; an_keyword : string; an_why : string }

let find_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = sub then Some (i + m)
    else go (i + 1)
  in
  go 0

(* The justification is whatever follows [--]; the keyword match already
   consumed everything before it. *)
let why_after line start =
  match find_sub (String.sub line start (String.length line - start)) "--" with
  | None -> ""
  | Some j ->
    let rest = String.sub line (start + j) (String.length line - start - j) in
    let rest =
      match find_sub rest "*)" with
      | Some e -> String.sub rest 0 (e - 2)
      | None -> rest
    in
    String.trim rest

let scan_annots source =
  let lines = String.split_on_char '\n' source in
  List.concat
    (List.mapi
       (fun i line ->
         List.filter_map
           (fun kw ->
             match find_sub line (marker_of kw) with
             | None -> None
             | Some start ->
               Some
                 { an_line = i + 1; an_keyword = kw; an_why = why_after line start })
           allow_keywords)
       lines)

let annot_at annots ~line =
  List.find_opt (fun a -> a.an_line = line || a.an_line = line - 1) annots

(* ------------------------------------------------------------------ *)
(* Pass 1: the toplevel mutable-state inventory                        *)

let classify_rhs (e : Parsetree.expression) =
  let rec strip (e : Parsetree.expression) =
    match e.pexp_desc with Pexp_constraint (e, _) -> strip e | _ -> e
  in
  match (strip e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    match Rule.lident_components (Rule.strip_stdlib txt) with
    | [ "ref" ] -> Some K_ref
    | [ "Array"; ("make" | "init" | "create_float" | "make_matrix") ] ->
      Some K_array
    | [ "Hashtbl"; "create" ] -> Some K_hashtbl
    | [ "Bytes"; ("create" | "make" | "of_string") ] -> Some K_bytes
    | [ "Buffer"; "create" ] -> Some K_buffer
    | [ "Atomic"; "make" ] -> Some K_atomic
    | [ "Mutex"; "create" ] -> Some K_mutex
    | _ -> None)
  | _ -> None

let unit_globals (u : Program.unit_info) =
  let annots = scan_annots u.source in
  let acc = ref [] in
  let add name kind line =
    let allow =
      Option.map
        (fun a -> (a.an_keyword, a.an_why))
        (annot_at annots ~line)
    in
    acc :=
      {
        g_id = u.name ^ "." ^ name;
        g_unit = u.name;
        g_file = u.file;
        g_line = line;
        g_kind = kind;
        g_allow = allow;
      }
      :: !acc
  in
  let rec str_item (item : Parsetree.structure_item) =
    match item.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } -> (
            match classify_rhs vb.pvb_expr with
            | Some kind ->
              add txt kind vb.pvb_pat.ppat_loc.Location.loc_start.Lexing.pos_lnum
            | None -> ())
          | _ -> ())
        vbs
    | Pstr_module mb -> module_expr mb.pmb_expr
    | Pstr_recmodule mbs ->
      List.iter (fun (mb : Parsetree.module_binding) -> module_expr mb.pmb_expr) mbs
    | _ -> ()
  and module_expr (me : Parsetree.module_expr) =
    match me.pmod_desc with
    | Pmod_structure items -> List.iter str_item items
    | Pmod_functor (_, body) -> module_expr body
    | Pmod_constraint (me, _) -> module_expr me
    | _ -> ()
  in
  List.iter str_item u.structure;
  List.rev !acc

(* Module-level values whose record fields are assigned anywhere become
   mutable state even without a recognisable maker on the binding: the
   setfield target names them.  (Kind [K_record]; the defining node's
   location anchors annotation lookup.) *)
let record_globals (prog : Program.t) (g : Graph.t) known =
  let ids = ref [] in
  List.iter
    (fun (n : Graph.node) ->
      List.iter
        (fun (id, (kind : Graph.access_kind), _) ->
          match kind with
          | Graph.Setfield ->
            if
              (not (List.exists (fun gl -> gl.g_id = id) known))
              && not (List.mem id !ids)
            then ids := id :: !ids
          | _ -> ())
        n.Graph.accesses)
    (Graph.nodes_in_order g);
  List.filter_map
    (fun id ->
      match Graph.find_node g id with
      | None -> None
      | Some def ->
        let line = def.Graph.loc.Location.loc_start.Lexing.pos_lnum in
        let allow =
          match Program.find_file prog def.Graph.file with
          | None -> None
          | Some u ->
            Option.map
              (fun a -> (a.an_keyword, a.an_why))
              (annot_at (scan_annots u.source) ~line)
        in
        Some
          {
            g_id = id;
            g_unit = def.Graph.unit_name;
            g_file = def.Graph.file;
            g_line = line;
            g_kind = K_record;
            g_allow = allow;
          })
    (List.rev !ids)

let inventory (prog : Program.t) (g : Graph.t) =
  let direct = List.concat_map unit_globals prog.Program.units in
  direct @ record_globals prog g direct

(* ------------------------------------------------------------------ *)
(* Pass 2: par-reachability                                            *)

let par_roots (g : Graph.t) =
  List.concat_map (fun (n : Graph.node) -> n.Graph.par_roots)
    (Graph.nodes_in_order g)

let par_nodes (g : Graph.t) = Graph.closure g (par_roots g)

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)

type ctx = {
  prog : Program.t;
  graph : Graph.t;
  globals : global list;
  reachable : Graph.node list;
}

type rule = { name : string; doc : string; check : ctx -> Rule.violation list }

let v ~rule ~file ~(loc : Location.t) msg =
  let pos = loc.Location.loc_start in
  {
    Rule.rule;
    file;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    message = msg;
  }

let v_line ~rule ~file ~line msg =
  { Rule.rule; file; line; col = 0; message = msg }

let find_global ctx id = List.find_opt (fun g -> g.g_id = id) ctx.globals

(* An annotation allows the accesses; an *unjustified* annotation still
   allows them but is itself reported (once, at the binding), so the
   gate stays red until the reason is written down. *)
let allowed g = g.g_allow <> None

let dedup xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs
  |> List.rev

(* ---------------- par-shared-state ---------------- *)

let check_shared_state ctx =
  let reads =
    List.concat_map
      (fun (n : Graph.node) ->
        List.filter_map
          (fun (id, (kind : Graph.access_kind), loc) ->
            match find_global ctx id with
            | Some g
              when g.g_kind <> K_atomic && g.g_kind <> K_mutex
                   && not (allowed g) -> (
              match kind with
              | Graph.Deref | Graph.Use | Graph.Atomic_op _ ->
                Some
                  (v ~rule:"par-shared-state" ~file:n.Graph.file ~loc
                     (Fmt.str
                        "%s (par-reachable) reads toplevel mutable %s %s \
                         with no protection: a domain worker can observe \
                         it mid-update — make it Atomic, guard it behind \
                         a lock (annotate '%s -- why'), or confine it \
                         ('%s -- why')"
                        n.Graph.id (kind_name g.g_kind) g.g_id
                        (marker_of "guarded")
                        (marker_of "domain-local")))
              | Graph.Assign | Graph.Setfield -> None (* init-once reports writes *))
            | _ -> None)
          n.Graph.accesses)
      ctx.reachable
  in
  let unjustified =
    List.filter_map
      (fun g ->
        match g.g_allow with
        | Some (kw, "") ->
          Some
            (v_line ~rule:"par-shared-state" ~file:g.g_file ~line:g.g_line
               (Fmt.str
                  "'%s' annotation on %s carries no justification: append \
                   ' -- why' explaining why the state cannot race (which \
                   lock, or why it never crosses a domain)"
                  (marker_of kw) g.g_id))
        | _ -> None)
      ctx.globals
  in
  let orphans =
    List.concat_map
      (fun (u : Program.unit_info) ->
        List.filter_map
          (fun (a : annot) ->
            if
              List.exists
                (fun g ->
                  g.g_file = u.file
                  && (g.g_line = a.an_line || g.g_line = a.an_line + 1))
                ctx.globals
            then None
            else
              Some
                (v_line ~rule:"par-shared-state" ~file:u.file ~line:a.an_line
                   (Fmt.str
                      "'%s' annotation is not attached to a toplevel \
                       mutable binding (it must sit on the binding's line \
                       or the line above)"
                      (marker_of a.an_keyword))))
          (scan_annots u.source))
      ctx.prog.Program.units
  in
  reads @ unjustified @ orphans

(* ---------------- init-once ---------------- *)

let check_init_once ctx =
  List.concat_map
    (fun (n : Graph.node) ->
      List.filter_map
        (fun (id, (kind : Graph.access_kind), loc) ->
          match find_global ctx id with
          | Some g
            when g.g_kind <> K_atomic && g.g_kind <> K_mutex
                 && not (allowed g) -> (
            match kind with
            | Graph.Assign | Graph.Setfield ->
              Some
                (v ~rule:"init-once" ~file:n.Graph.file ~loc
                   (Fmt.str
                      "%s (par-reachable) mutates toplevel %s %s after \
                       module initialization: two domains entering this \
                       path lose updates — use an Atomic, take a lock \
                       (annotate '%s -- why'), or return the data and \
                       merge on the caller's domain"
                      n.Graph.id (kind_name g.g_kind) g.g_id
                      (marker_of "guarded")))
            | _ -> None)
          | _ -> None)
        n.Graph.accesses)
    ctx.reachable

(* ---------------- atomic-discipline ---------------- *)

(* The safe set: single-call read/modify primitives.  [get]+[set] of the
   same cell in one function is the split read-modify-write the rule
   exists to catch — the window between them re-introduces the race the
   Atomic was supposed to remove. *)
let safe_ops =
  [ "make"; "get"; "set"; "exchange"; "compare_and_set"; "compare_exchange";
    "fetch_and_add"; "incr"; "decr" ]

let check_atomic_discipline ctx =
  List.concat_map
    (fun (n : Graph.node) ->
      let ops = ref [] in
      let direct =
        List.filter_map
          (fun (id, (kind : Graph.access_kind), loc) ->
            match find_global ctx id with
            | Some { g_kind = K_atomic; _ } -> (
              match kind with
              | Graph.Atomic_op op when List.mem op safe_ops ->
                ops := (id, op, loc) :: !ops;
                None
              | Graph.Atomic_op op ->
                Some
                  (v ~rule:"atomic-discipline" ~file:n.Graph.file ~loc
                     (Fmt.str
                        "Atomic.%s on toplevel atomic %s is outside the \
                         safe op set (%s)"
                        op id
                        (String.concat ", " safe_ops)))
              | Graph.Deref | Graph.Assign | Graph.Setfield | Graph.Use ->
                Some
                  (v ~rule:"atomic-discipline" ~file:n.Graph.file ~loc
                     (Fmt.str
                        "toplevel atomic %s escapes the safe op set in %s \
                         (aliased, dereferenced or passed around): every \
                         touch must be a direct Atomic operation"
                        id n.Graph.id)))
            | _ -> None)
          n.Graph.accesses
      in
      let split =
        List.filter_map
          (fun (id, op, loc) ->
            if
              op = "set"
              && List.exists (fun (id', op', _) -> id' = id && op' = "get") !ops
            then
              Some
                (v ~rule:"atomic-discipline" ~file:n.Graph.file ~loc
                   (Fmt.str
                      "separate Atomic.get and Atomic.set of %s in %s form \
                       a non-atomic read-modify-write: use fetch_and_add, \
                       exchange or compare_and_set"
                      id n.Graph.id))
            else None)
          (List.rev !ops)
      in
      direct @ split)
    (Graph.nodes_in_order ctx.graph)

(* ------------------------------------------------------------------ *)
(* Registry and driver                                                 *)

let all_rules =
  [
    {
      name = "par-shared-state";
      doc =
        "no function reachable from a domain worker (Par.map / \
         Par.run_cells / Sim.register_handler) reads unprotected \
         toplevel mutable state; Atomics and justified dbrace \
         annotations are the only escapes";
      check = check_shared_state;
    };
    {
      name = "atomic-discipline";
      doc =
        "toplevel Atomic.t cells are touched only through the safe op \
         set, never aliased, and never read-modify-written across \
         separate get/set calls";
      check = check_atomic_discipline;
    };
    {
      name = "init-once";
      doc =
        "toplevel mutable globals are mutated at module initialization \
         only: no par-reachable site assigns a non-Atomic global";
      check = check_init_once;
    };
  ]

let rule_names = List.map (fun r -> r.name) all_rules

let make_ctx (prog : Program.t) graph =
  { prog; graph; globals = inventory prog graph; reachable = par_nodes graph }

let check rules prog graph =
  let ctx = make_ctx prog graph in
  List.concat_map (fun r -> r.check ctx) rules

(* ------------------------------------------------------------------ *)
(* Inventory rendering (the [--inventory] audit view)                  *)

let pp_inventory ppf (prog : Program.t) =
  let ctx = make_ctx prog (Graph.build prog) in
  let reachable_ids =
    List.concat_map
      (fun (n : Graph.node) ->
        List.filter_map
          (fun (id, _, _) ->
            Option.map (fun g -> g.g_id) (find_global ctx id))
          n.Graph.accesses)
      ctx.reachable
    |> dedup
  in
  List.iter
    (fun g ->
      Fmt.pf ppf "%s:%d: %-8s %s%s%s@." g.g_file g.g_line (kind_name g.g_kind)
        g.g_id
        (if List.mem g.g_id reachable_ids then " [par-reachable]" else "")
        (match g.g_allow with
        | Some (kw, why) ->
          Fmt.str " [%s%s]" kw (if why = "" then ", UNJUSTIFIED" else "")
        | None -> ""))
    (List.sort
       (fun a b -> compare (a.g_file, a.g_line) (b.g_file, b.g_line))
       ctx.globals)
