(* dbflow rules: graph-level checks over the whole-program view.  Each
   rule mirrors a structural property the paper's correctness argument
   leans on; see LINTS.md for the catalogue with rationale. *)

open Dbtree_lint

type rule = {
  name : string;
  doc : string;
  check : Program.t -> Graph.t -> Rule.violation list;
}

let v ~rule ~file ~(loc : Location.t) msg =
  let pos = loc.Location.loc_start in
  {
    Rule.rule;
    file;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    message = msg;
  }

let dedup xs =
  List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs
  |> List.rev

let node_emits_kind (n : Graph.node) kind =
  List.exists (fun (k, _) -> k = kind) n.Graph.emits

(* The unit holding the B-link machine the kernels share.  Kernel code
   that moved there still belongs to each kernel that calls it. *)
let core_unit = "Kernel_core"

(* A kernel's own nodes plus the shared-core nodes reachable from them
   through the call graph. *)
let kernel_scope (g : Graph.t) (k : Graph.kernel) =
  let own = Graph.unit_nodes g k.k_unit in
  own
  @ List.filter
      (fun (n : Graph.node) -> n.unit_name = core_unit)
      (Graph.closure g (List.concat_map (fun (n : Graph.node) -> n.calls) own))

(* ------------------------------------------------------------------ *)
(* send-handle: every kind a kernel sends must have a real handler arm
   in that kernel, and every real arm must correspond to a kind the
   kernel actually sends.  [-warn-error +8] already forces every kind
   to appear in the dispatch, so the runtime hazard hides in the
   *rejecting* arms (failwith): constructing a kind whose arm rejects
   it is a crash wired in at a distance, and a non-rejecting arm for a
   kind nothing constructs is dead protocol surface. *)

let check_send_handle _prog (g : Graph.t) =
  List.concat_map
    (fun (k : Graph.kernel) ->
      let arm_ctors sel =
        List.concat_map
          (fun (a : Graph.arm) ->
            if sel a.arm_rejecting then List.map fst a.arm_constructors else [])
          k.k_arms
      in
      let universe = dedup (arm_ctors (fun _ -> true)) in
      let handled = dedup (arm_ctors (fun r -> not r)) in
      let constructed =
        List.concat_map (fun (n : Graph.node) -> n.constructs)
          (kernel_scope g k)
        |> List.filter (fun (c, _) -> List.mem c universe)
      in
      let constructed_names = dedup (List.map fst constructed) in
      let sent_unhandled =
        List.filter_map
          (fun ctor ->
            if List.mem ctor handled then None
            else
              Option.map
                (fun (_, loc) ->
                  v ~rule:"send-handle" ~file:k.k_file ~loc
                    (Fmt.str
                       "Msg.%s is constructed in %s but its handler arm \
                        rejects it (failwith): add a real handler or stop \
                        sending it"
                       ctor k.k_unit))
                (List.find_opt (fun (c, _) -> c = ctor) constructed))
          universe
      in
      let dead_arms =
        List.concat_map
          (fun (a : Graph.arm) ->
            if a.arm_rejecting then []
            else
              List.filter_map
                (fun (ctor, loc) ->
                  if List.mem ctor constructed_names then None
                  else
                    Some
                      (v ~rule:"send-handle" ~file:k.k_file ~loc
                         (Fmt.str
                            "dead handler arm: Msg.%s is never constructed \
                             in %s — remove the arm or the protocol lost \
                             its sender"
                            ctor k.k_unit)))
                a.arm_constructors)
          k.k_arms
      in
      sent_unhandled @ dead_arms)
    g.kernels

(* ------------------------------------------------------------------ *)
(* aas-discipline: nothing reachable from the Split_start handler may
   construct an initial-update reply (Msg.Op_done outside a
   Search/Scan dispatch arm).  Theorem 1's proof needs the AAS window
   to block exactly the initial updates — searches and relayed updates
   continue — so a reply path reachable from AAS enrolment would let an
   update complete inside the window. *)

let check_aas_discipline _prog (g : Graph.t) =
  List.concat_map
    (fun (k : Graph.kernel) ->
      List.concat_map
        (fun (a : Graph.arm) ->
          if
            a.arm_rejecting
            || not (List.mem_assoc "Split_start" a.arm_constructors)
          then []
          else
            let reach = a.arm_node :: Graph.closure g a.arm_node.calls in
            List.concat_map
              (fun (n : Graph.node) ->
                List.map
                  (fun loc ->
                    v ~rule:"aas-discipline" ~file:n.file ~loc
                      (Fmt.str
                         "initial-update reply (Msg.Op_done) reachable from \
                          the Split_start handler via %s: the AAS window \
                          must block initial updates until release \
                          (Theorem 1); search/scan replies are exempt"
                         n.id))
                  n.reply_sites)
              (dedup reach))
        k.k_arms)
    g.kernels

(* ------------------------------------------------------------------ *)
(* ordering-class: every real handler arm carries a class annotation,
   sync-class kinds are only constructed by code that touches the AAS
   machinery, and lazy-class arms never reach a primary-copy gate in
   their own kernel (a lazy path that branches on [pc] is
   semi-synchronous in disguise). *)

let classes = [ "lazy"; "semi"; "sync" ]

let check_ordering_class (prog : Program.t) (g : Graph.t) =
  let kernel_files = List.map (fun (k : Graph.kernel) -> k.k_file) g.kernels in
  let per_kernel =
    List.concat_map
      (fun (k : Graph.kernel) ->
        let annots =
          match Program.find_file prog k.k_file with
          | Some u -> Annot.scan u.source
          | None -> []
        in
        let used = ref [] in
        let arm_vs =
          List.concat_map
            (fun (a : Graph.arm) ->
              if a.arm_rejecting then []
              else
                let names =
                  String.concat "|" (List.map fst a.arm_constructors)
                in
                match Annot.at annots ~line:a.arm_line with
                | None ->
                  [
                    v ~rule:"ordering-class" ~file:k.k_file ~loc:a.arm_node.loc
                      (Fmt.str
                         "handler arm for Msg.%s has no ordering-class \
                          annotation: add a class comment (lazy, semi or \
                          sync, with a reason) on or above the arm — see \
                          LINTS.md for the marker syntax"
                         names);
                  ]
                | Some ann ->
                  used := ann.Annot.a_line :: !used;
                  if not (List.mem ann.a_class classes) then
                    [
                      v ~rule:"ordering-class" ~file:k.k_file
                        ~loc:a.arm_node.loc
                        (Fmt.str
                           "unknown ordering class %S on the Msg.%s arm \
                            (expected lazy, semi or sync)"
                           ann.a_class names);
                    ]
                  else if ann.a_class = "sync" then
                    List.concat_map
                      (fun (ctor, _) ->
                        List.concat_map
                          (fun (n : Graph.node) ->
                            List.filter_map
                              (fun (c, loc) ->
                                if c = ctor && not n.aas_marked then
                                  Some
                                    (v ~rule:"ordering-class" ~file:n.file
                                       ~loc
                                       (Fmt.str
                                          "Msg.%s is classed sync but %s \
                                           constructs it without touching \
                                           the AAS machinery (splitting \
                                           flag / aas state): synchronous \
                                           kinds exist only inside an AAS \
                                           window"
                                          ctor n.id))
                                else None)
                              n.constructs)
                          (kernel_scope g k))
                      a.arm_constructors
                  else if ann.a_class = "lazy" then
                    let reach =
                      a.arm_node :: Graph.closure g a.arm_node.calls
                    in
                    List.concat_map
                      (fun (n : Graph.node) ->
                        if n.unit_name <> k.k_unit && n.unit_name <> core_unit
                        then []
                        else
                          match n.pc_gates with
                          | [] -> []
                          | loc :: _ ->
                            [
                              v ~rule:"ordering-class" ~file:n.file ~loc
                                (Fmt.str
                                   "Msg.%s is classed lazy but reaches a \
                                    primary-copy gate in %s: lazy kinds \
                                    must apply identically at every copy \
                                    (reclass as semi or drop the pc \
                                    branch)"
                                   names n.id);
                            ])
                      (dedup reach)
                  else [])
            k.k_arms
        in
        let stray =
          List.filter_map
            (fun (ann : Annot.entry) ->
              if List.mem ann.a_line !used then None
              else
                Some
                  (v ~rule:"ordering-class" ~file:k.k_file
                     ~loc:
                       {
                         Location.none with
                         loc_start =
                           {
                             Lexing.pos_fname = k.k_file;
                             pos_lnum = ann.a_line;
                             pos_bol = 0;
                             pos_cnum = 0;
                           };
                       }
                     "ordering-class annotation is not attached to a \
                      handler arm (it must sit on the arm's first pattern \
                      line or the line above)"))
            annots
        in
        arm_vs @ stray)
      g.kernels
  in
  (* Annotations in units with no kernel dispatch bind to nothing. *)
  let orphaned =
    List.concat_map
      (fun (u : Program.unit_info) ->
        if List.mem u.file kernel_files then []
        else
          List.map
            (fun (ann : Annot.entry) ->
              v ~rule:"ordering-class" ~file:u.file
                ~loc:
                  {
                    Location.none with
                    loc_start =
                      {
                        Lexing.pos_fname = u.file;
                        pos_lnum = ann.a_line;
                        pos_bol = 0;
                        pos_cnum = 0;
                      };
                  }
                "ordering-class annotation in a unit with no Msg dispatch: \
                 nothing to bind it to")
            (Annot.scan u.source))
      prog.units
  in
  per_kernel @ orphaned

(* ------------------------------------------------------------------ *)
(* counter-lifecycle: an interned Stats.counter/hist or Series.cell
   that is created but never referenced again can never be ticked or
   rendered (zero-valued counters are skipped by Stats.counters), so it
   is dead weight that silently vanishes from every report; and one
   metric name interned into two handles in the same unit aliases a
   single ref under two fields, which is almost always an editing
   mistake.  Handle-free Series registrations (gauge / scraped counter)
   have nothing to go unused, but a duplicate name raises at runtime
   only when telemetry is actually on, so the duplicate check covers
   them statically. *)

let counter_kind_name = function
  | `Counter -> "counter"
  | `Hist -> "histogram"
  | `Cell -> "series cell"
  | `Gauge -> "gauge"
  | `Scounter -> "scraped counter"

let check_counter_lifecycle _prog (g : Graph.t) =
  let unused =
    List.filter_map
      (fun (cd : Graph.counter_def) ->
        if cd.Graph.cd_key = "" || Graph.use_count g cd.cd_key > 0 then None
        else
          Some
            (v ~rule:"counter-lifecycle" ~file:cd.cd_file ~loc:cd.cd_loc
               (Fmt.str
                  "interned %s %S is bound to %s but never ticked, observed \
                   or read: zero-valued metrics are invisible in reports, \
                   so wire it up or delete it"
                  (counter_kind_name cd.cd_kind) cd.cd_name cd.cd_key)))
      g.counters
  in
  let dups =
    (* Stats and Series names live in different registries, so a Stats
       counter and a Series gauge may legitimately share a name; only a
       collision within the same registry aliases state. *)
    let registry (cd : Graph.counter_def) =
      match cd.cd_kind with
      | `Counter | `Hist -> "stats"
      | `Cell | `Gauge | `Scounter -> "series"
    in
    let seen = ref [] in
    List.filter_map
      (fun (cd : Graph.counter_def) ->
        let key = (cd.cd_unit, registry cd, cd.cd_name) in
        if List.mem key !seen then
          Some
            (v ~rule:"counter-lifecycle" ~file:cd.cd_file ~loc:cd.cd_loc
               (Fmt.str
                  "metric name %S is %s more than once in %s: both \
                   registrations alias one %s, which double-counts every \
                   tick (Series rejects the duplicate only at runtime, and \
                   only when telemetry is enabled)"
                  cd.cd_name
                  (match registry cd with
                  | "stats" -> "interned"
                  | _ -> "registered")
                  cd.cd_unit
                  (match registry cd with "stats" -> "ref" | _ -> "series")))
        else begin
          seen := key :: !seen;
          None
        end)
      g.counters
  in
  unused @ dups

(* ------------------------------------------------------------------ *)
(* span-pairing: a node that emits a span-opening event kind must be
   able to reach the matching close, or the trace shows a split/AAS
   window that never ends and every span query over it degenerates. *)

let span_pairs =
  [
    ("Split_start", "Split_end");
    ("Aas_block", "Aas_release");
    (* A crash span must always close: the recovery driver that downs a
       processor must be able to reach the restart that brings it back. *)
    ("Crash", "Restart");
  ]

let check_span_pairing _prog (g : Graph.t) =
  List.concat_map
    (fun (n : Graph.node) ->
      List.filter_map
        (fun (open_k, close_k) ->
          match List.find_opt (fun (k, _) -> k = open_k) n.Graph.emits with
          | None -> None
          | Some (_, loc) ->
            let reach = n :: Graph.closure g n.calls in
            if List.exists (fun m -> node_emits_kind m close_k) reach then
              None
            else
              Some
                (v ~rule:"span-pairing" ~file:n.file ~loc
                   (Fmt.str
                      "Event.%s is emitted in %s but Event.%s is not \
                       reachable from it: the span can never close on this \
                       path"
                      open_k n.id close_k)))
        span_pairs)
    (Graph.nodes_in_order g)

(* ------------------------------------------------------------------ *)
(* Registry and driver                                                 *)

let all_rules =
  [
    {
      name = "send-handle";
      doc =
        "every Msg kind a kernel constructs has a non-rejecting handler \
         arm there, and no real arm handles a kind the kernel never sends";
      check = check_send_handle;
    };
    {
      name = "aas-discipline";
      doc =
        "no initial-update reply is reachable from the Split_start \
         handler: the AAS window blocks exactly the initial updates \
         (Theorem 1)";
      check = check_aas_discipline;
    };
    {
      name = "ordering-class";
      doc =
        "every handler arm is annotated lazy/semi/sync; sync kinds are \
         only constructed under AAS state, lazy arms never reach a \
         primary-copy gate";
      check = check_ordering_class;
    };
    {
      name = "counter-lifecycle";
      doc =
        "every interned Stats counter/histogram and Series cell is \
         referenced after creation, and no metric name is registered \
         twice in one unit's registry (Stats and Series checked \
         separately)";
      check = check_counter_lifecycle;
    };
    {
      name = "span-pairing";
      doc =
        "every span-opening Obs event (Split_start, Aas_block) can reach \
         its closing kind (Split_end, Aas_release)";
      check = check_span_pairing;
    };
  ]

let rule_names = List.map (fun r -> r.name) all_rules
let find_rule name = List.find_opt (fun r -> r.name = name) all_rules

type report = {
  violations : Rule.violation list;
  suppressed : int;
  files : int;
}

let sort_violations vs =
  List.sort
    (fun (a : Rule.violation) b ->
      compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule))
    vs

let analyze ?(rules = all_rules) (prog : Program.t) =
  let g = Graph.build prog in
  let raw = dedup (List.concat_map (fun r -> r.check prog g) rules) in
  let supps =
    List.map
      (fun (u : Program.unit_info) ->
        (u.file, Suppress.scan ~tool:"dbflow" ~known:rule_names u.source))
      prog.units
  in
  let suppressed, kept =
    List.partition
      (fun (viol : Rule.violation) ->
        match List.assoc_opt viol.file supps with
        | Some s -> Suppress.active s ~rule:viol.rule ~line:viol.line
        | None -> false)
      raw
  in
  let unknown =
    List.concat_map
      (fun (file, s) ->
        List.map
          (fun (line, tok) ->
            {
              Rule.rule = "unknown-rule";
              file;
              line;
              col = 0;
              message =
                Fmt.str
                  "dbflow allow comment names unknown rule %S (known: %s): \
                   fix the name or the comment suppresses nothing"
                  tok
                  (String.concat ", " rule_names);
            })
          (Suppress.unknown_rules s))
      supps
  in
  {
    violations = sort_violations (unknown @ kept);
    suppressed = List.length suppressed;
    files = List.length prog.units;
  }
