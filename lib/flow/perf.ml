(* dbperf: whole-program hot-path cost analysis.

   The paper's claim is that the lazy hot path does almost nothing per
   operation; the simulator enforces that dynamically at a handful of
   [Gc.minor_words] probe points.  This checker makes the discipline a
   static property: the {!Graph} walk records every allocation-shaped
   expression and polymorphic-comparison site per node, the hot set is
   the call-graph closure from the hot roots (every registered event
   handler, the observation-probe callback, the wheel drain, the
   telemetry/stats hooks, plus explicitly annotated functions), and the
   rules check the hot set is allocation-free and monomorphic except
   where a justified annotation says otherwise.

   Like dbflow and dbrace, everything is syntactic: indirect calls
   through function-valued fields escape the closure (the registered
   handler cut in {!Graph} recovers the important ones), and the
   alloc/poly classifiers are shallow by design.  The dynamic
   [Gc.minor_words] proofs in the test suite remain the ground truth the
   static pass is cross-checked against. *)

open Dbtree_lint

(* ------------------------------------------------------------------ *)
(* Annotation grammar: a comment on the relevant line (or the line
   above) reading the tool name, colon-space, then a keyword —

     <tool>: hot -- why this function is on the per-op path
     <tool>: alloc-ok -- why this allocation is acceptable

   where <tool> is this checker's name.  [hot] sits on a top-level
   binding and adds it to the hot roots; [alloc-ok] sits on an
   allocation site inside the hot set and excuses it.  The marker is
   assembled from pieces (and spelled indirectly in this comment) so
   the textual scan never reads this module's own source as
   annotations. *)

let marker_prefix = "dbperf" ^ ": "
let keywords = [ "hot"; "alloc-ok" ]
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
             (* [hot] is a prefix of nothing else, but guard against a
                keyword match inside a longer token anyway. *)
             match find_sub line (marker_of kw) with
             | None -> None
             | Some start ->
               Some
                 {
                   an_line = i + 1;
                   an_keyword = kw;
                   an_why = why_after line start;
                 })
           keywords)
       lines)

let annot_at annots ~kw ~line =
  List.find_opt
    (fun a -> a.an_keyword = kw && (a.an_line = line || a.an_line = line - 1))
    annots

(* ------------------------------------------------------------------ *)
(* Hot roots and the hot set                                            *)

(* The built-in per-operation entry points, intersected with the graph
   (a program that does not contain them simply has fewer roots): the
   event-loop core and wheel drain, the telemetry hooks the
   [Gc.minor_words] proofs cover, and the interned-stats fast paths. *)
let builtin_roots =
  [
    "Sim.dispatch";
    "Sim.step";
    "Wheel.pop_into";
    "Telemetry.touch";
    "Telemetry.observe_latency";
    "Telemetry.aas_begin";
    "Telemetry.aas_end";
    "Telemetry.scrape";
    "Stats.tick";
    "Stats.add";
    "Stats.hist_observe";
    "Series.scrape";
    "Sketch.observe";
  ]

let dedup xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs
  |> List.rev

let node_line (n : Graph.node) = n.Graph.loc.Location.loc_start.Lexing.pos_lnum

let unit_annots (prog : Program.t) =
  List.map
    (fun (u : Program.unit_info) -> (u.Program.file, scan_annots u.Program.source))
    prog.Program.units

let annots_for annots file =
  Option.value (List.assoc_opt file annots) ~default:[]

(* Every root: the built-ins present in this program, every id handed to
   [Sim.register_handler]/[Sim.set_probe] (including the cut closure
   pseudo-nodes), and every binding carrying a justified-or-not [hot]
   annotation. *)
let hot_root_ids (prog : Program.t) (g : Graph.t) =
  let annots = unit_annots prog in
  let builtin =
    List.filter (fun id -> Graph.find_node g id <> None) builtin_roots
  in
  let handed =
    List.concat_map
      (fun (n : Graph.node) -> n.Graph.hot_roots)
      (Graph.nodes_in_order g @ g.Graph.hot_subnodes)
  in
  let annotated =
    List.filter_map
      (fun (n : Graph.node) ->
        match
          annot_at (annots_for annots n.Graph.file) ~kw:"hot" ~line:(node_line n)
        with
        | Some _ -> Some n.Graph.id
        | None -> None)
      (Graph.nodes_in_order g)
  in
  dedup (builtin @ handed @ annotated)

(* The hot set: the call closure from the roots through the main node
   table, plus the rooted closure pseudo-nodes and everything they
   call.  (Pseudo-nodes live outside the table, so [Graph.closure]
   skips their ids; their [calls] resolve into the table.) *)
let hot_nodes (g : Graph.t) roots =
  let main = Graph.closure g roots in
  let subs =
    List.filter (fun (n : Graph.node) -> List.mem n.Graph.id roots)
      g.Graph.hot_subnodes
  in
  let sub_callees =
    Graph.closure g (List.concat_map (fun (n : Graph.node) -> n.Graph.calls) subs)
  in
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (n : Graph.node) ->
      if Hashtbl.mem seen n.Graph.id then false
      else begin
        Hashtbl.add seen n.Graph.id ();
        true
      end)
    (main @ subs @ sub_callees)

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)

type ctx = {
  prog : Program.t;
  graph : Graph.t;
  roots : string list;
  hot : Graph.node list;
  annots : (string * annot list) list;
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

(* An arity-0 binding is a value computed once at module initialisation:
   its body runs once per process, not once per event, so its
   allocations are not a per-call cost even when hot functions read it.
   Dispatch arms and hot subnodes have no arity entry and stay
   per-call. *)
let per_call ctx (n : Graph.node) = Graph.arity ctx.graph n.Graph.id <> Some 0

(* A node's allocation sites: the recorded allocation-shaped
   expressions plus every resolved application with fewer arguments
   than the callee's arity (a closure allocated at the call site). *)
let alloc_sites ctx (n : Graph.node) =
  if not (per_call ctx n) then []
  else
    n.Graph.allocs
    @ List.filter_map
        (fun (callee, nargs, loc) ->
          match Graph.arity ctx.graph callee with
          | Some ar when ar > 0 && nargs < ar ->
            Some
              ( Fmt.str "partial application of %s (%d of %d arguments)" callee
                  nargs ar,
                loc )
          | _ -> None)
        n.Graph.apps

(* ---------------- hot-alloc ---------------- *)

let check_hot_alloc ctx =
  List.concat_map
    (fun (n : Graph.node) ->
      let annots = annots_for ctx.annots n.Graph.file in
      List.filter_map
        (fun (desc, (loc : Location.t)) ->
          let line = loc.Location.loc_start.Lexing.pos_lnum in
          match annot_at annots ~kw:"alloc-ok" ~line with
          | Some { an_why = ""; _ } ->
            Some
              (v ~rule:"hot-alloc" ~file:n.Graph.file ~loc
                 (Fmt.str
                    "'%s' annotation on this site carries no justification: \
                     append ' -- why' explaining why the allocation is \
                     acceptable on the hot path"
                    (marker_of "alloc-ok")))
          | Some _ -> None
          | None ->
            Some
              (v ~rule:"hot-alloc" ~file:n.Graph.file ~loc
                 (Fmt.str
                    "%s is in the hot set but allocates here (%s): move the \
                     allocation off the per-event path, or justify it with \
                     '%s -- why' on this line or the line above"
                    n.Graph.id desc (marker_of "alloc-ok"))))
        (alloc_sites ctx n))
    ctx.hot

(* ---------------- poly-compare ---------------- *)

let check_poly_compare ctx =
  List.concat_map
    (fun (n : Graph.node) ->
      if not (per_call ctx n) then []
      else
      List.map
        (fun (desc, loc) ->
          v ~rule:"poly-compare" ~file:n.Graph.file ~loc
            (Fmt.str
               "%s is in the hot set but performs %s: polymorphic \
                comparison walks the value through a C call — use the \
                monomorphic Int/String comparators or match on the \
                constructor instead"
               n.Graph.id desc))
        n.Graph.polys)
    ctx.hot

(* ---------------- stray-annot ---------------- *)

(* Annotation hygiene, dbrace-style: a [hot] mark must sit on a
   top-level binding and carry a justification; an [alloc-ok] mark must
   sit on an allocation site of a hot function (when the code goes
   cold, the stale annotation is reported rather than silently kept). *)
let check_stray_annot ctx =
  let hot_alloc_lines file =
    List.concat_map
      (fun (n : Graph.node) ->
        if n.Graph.file <> file then []
        else
          List.map
            (fun ((_, loc) : string * Location.t) ->
              loc.Location.loc_start.Lexing.pos_lnum)
            (alloc_sites ctx n))
      ctx.hot
  in
  List.concat_map
    (fun (u : Program.unit_info) ->
      let binding_lines =
        List.map node_line
          (List.filter
             (fun (n : Graph.node) -> n.Graph.file = u.Program.file)
             (Graph.nodes_in_order ctx.graph))
      in
      let alloc_lines = hot_alloc_lines u.Program.file in
      List.filter_map
        (fun (a : annot) ->
          let attached lines =
            List.exists (fun l -> l = a.an_line || l = a.an_line + 1) lines
          in
          match a.an_keyword with
          | "hot" ->
            if not (attached binding_lines) then
              Some
                (v_line ~rule:"stray-annot" ~file:u.Program.file ~line:a.an_line
                   (Fmt.str
                      "'%s' annotation is not attached to a top-level \
                       binding (it must sit on the binding's line or the \
                       line above)"
                      (marker_of "hot")))
            else if a.an_why = "" then
              Some
                (v_line ~rule:"stray-annot" ~file:u.Program.file ~line:a.an_line
                   (Fmt.str
                      "'%s' annotation carries no justification: append \
                       ' -- why' explaining why this function is on the \
                       per-op path"
                      (marker_of "hot")))
            else None
          | _ ->
            if not (attached alloc_lines) then
              Some
                (v_line ~rule:"stray-annot" ~file:u.Program.file ~line:a.an_line
                   (Fmt.str
                      "'%s' annotation is not attached to an allocation \
                       site of a hot function: the code may have gone cold \
                       or moved — remove or re-site the annotation"
                      (marker_of "alloc-ok")))
            else None)
        (annots_for ctx.annots u.Program.file))
    ctx.prog.Program.units

(* ------------------------------------------------------------------ *)
(* Registry and driver                                                 *)

let all_rules =
  [
    {
      name = "hot-alloc";
      doc =
        "no function in the hot set (closure from registered handlers, \
         the probe callback, wheel drain, telemetry/stats hooks and \
         dbperf-hot annotations) allocates without a justified alloc-ok \
         annotation on the site";
      check = check_hot_alloc;
    };
    {
      name = "poly-compare";
      doc =
        "no polymorphic compare/equality/min/max/hash at a boxed-looking \
         type in the hot set: use the monomorphic comparators or match \
         on the constructor";
      check = check_poly_compare;
    };
    {
      name = "stray-annot";
      doc =
        "every dbperf annotation is attached (hot to a top-level \
         binding, alloc-ok to a hot allocation site) and carries a \
         ' -- why' justification";
      check = check_stray_annot;
    };
  ]

let rule_names = List.map (fun r -> r.name) all_rules

let make_ctx ?graph (prog : Program.t) =
  let graph = match graph with Some g -> g | None -> Graph.build prog in
  let roots = hot_root_ids prog graph in
  { prog; graph; roots; hot = hot_nodes graph roots; annots = unit_annots prog }

let check rules prog graph =
  let ctx = make_ctx ~graph prog in
  List.concat_map (fun r -> r.check ctx) rules

(* ------------------------------------------------------------------ *)
(* Hot-set rendering (the [--hot] audit view)                          *)

let pp_hot ppf (prog : Program.t) =
  let ctx = make_ctx prog in
  List.iter
    (fun (n : Graph.node) ->
      Fmt.pf ppf "%s:%d: %s (%d alloc site(s), %d poly-compare(s))%s@."
        n.Graph.file (node_line n) n.Graph.id
        (List.length (alloc_sites ctx n))
        (List.length n.Graph.polys)
        (if List.mem n.Graph.id ctx.roots then " [root]" else ""))
    (List.sort
       (fun (a : Graph.node) b ->
         compare (a.Graph.file, node_line a, a.Graph.id)
           (b.Graph.file, node_line b, b.Graph.id))
       ctx.hot)
