(* dbrace rule fixtures: each domain-safety rule must fire on a minimal
   bad program and stay silent on its clean counterpart, the annotation
   grammar must demand justifications, suppression must work under the
   dbrace marker, and the repo itself must analyze clean.  The heart of
   the suite is the pinned pre-fix [Obs] fixture: the real
   force_on/registry race this PR fixed, proving par-shared-state
   catches it.

   All dbrace markers in fixtures are assembled with [Fmt.str] so this
   file's own source never carries one (dbrace and Suppress both scan
   textually). *)

open Dbtree_flow
open Dbtree_lint

let kern src = Program.of_sources [ ("lib/fix/kern.ml", src) ]
let only name = [ name ]
let analyze ?(rules = Race.rule_names) prog = Check.analyze ~rules prog

let rules_of (r : Check.report) =
  List.map (fun (v : Rule.violation) -> v.Rule.rule) r.Check.violations

let messages_of (r : Check.report) =
  List.map (fun (v : Rule.violation) -> v.Rule.message) r.Check.violations

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_fires ?(count = 1) name ~sub prog =
  let r = analyze ~rules:(only name) prog in
  Alcotest.(check (list string))
    (name ^ " fires")
    (List.init count (fun _ -> name))
    (rules_of r);
  let msg = List.hd (messages_of r) in
  Alcotest.(check bool)
    (Fmt.str "message mentions %S" sub)
    true (contains msg sub)

let check_clean name prog =
  let r = analyze ~rules:(only name) prog in
  Alcotest.(check (list string)) (name ^ " silent") [] (rules_of r)

(* Assembled annotation: [(* dbrace: <kw> -- <why> *)]. *)
let ann kw why = Fmt.str "(* %s %s -- %s *)" "dbrace:" kw why
let ann_bare kw = Fmt.str "(* %s %s *)" "dbrace:" kw

(* ---------------------------------------------------------------- *)
(* par-shared-state *)

let test_shared_par_map_fires () =
  check_fires "par-shared-state" ~sub:"Kern.hits"
    (kern
       "let hits = ref 0\n\
        let cell x = !hits + x\n\
        let grid xs = Par.map cell xs\n")

let test_shared_annotated_clean () =
  check_clean "par-shared-state"
    (kern
       (Fmt.str
          "%s\n\
           let hits = ref 0\n\
           let cell x = !hits + x\n\
           let grid xs = Par.map cell xs\n"
          (ann "domain-local" "fixture: pretend it is confined")))

let test_shared_unjustified_fires () =
  (* The annotation still silences the access, but its missing [-- why]
     is itself one violation at the binding. *)
  check_fires "par-shared-state" ~sub:"no justification"
    (kern
       (Fmt.str
          "%s\n\
           let hits = ref 0\n\
           let cell x = !hits + x\n\
           let grid xs = Par.map cell xs\n"
          (ann_bare "guarded")))

let test_shared_orphan_annotation_fires () =
  check_fires "par-shared-state" ~sub:"not attached"
    (kern (Fmt.str "%s\nlet x = 1\n" (ann "domain-local" "binds to nothing")))

let test_shared_not_par_reachable_clean () =
  (* Same read, but nothing roots a domain worker: single-domain code may
     use globals freely. *)
  check_clean "par-shared-state"
    (kern "let hits = ref 0\nlet cell x = !hits + x\n")

let test_shared_inline_closure_roots_caller () =
  (* A literal [fun] handed to Sim.register_handler makes the enclosing
     function the par root (conservative: the closure body is walked as
     part of it). *)
  check_fires "par-shared-state" ~sub:"Kern.seen"
    (kern
       "let seen = ref 0\n\
        let setup sim = Sim.register_handler sim (fun x -> !seen + x)\n")

let test_shared_named_handler_roots_it () =
  check_fires "par-shared-state" ~sub:"Kern.seen"
    (kern
       "let seen = ref 0\n\
        let on_msg x = !seen + x\n\
        let setup sim = Sim.register_handler sim on_msg\n")

(* ---------------------------------------------------------------- *)
(* init-once *)

let test_init_once_assign_fires () =
  check_fires "init-once" ~sub:"Kern.hits"
    (kern
       "let hits = ref 0\n\
        let cell x = hits := x\n\
        let grid xs = Par.run_cells cell xs 4 2\n")

let test_init_once_hashtbl_add_fires () =
  (* A mutating stdlib call on the global counts as a write. *)
  check_fires "init-once" ~sub:"Kern.tbl"
    (kern
       "let tbl = Hashtbl.create 7\n\
        let cell x = Hashtbl.add tbl x x\n\
        let grid xs = Par.map cell xs\n")

let test_init_once_module_init_clean () =
  (* Mutation at module-initialization time (not par-reachable) is the
     whole point of the rule's name. *)
  check_clean "init-once"
    (kern
       "let tbl = Hashtbl.create 7\n\
        let () = Hashtbl.add tbl 0 0\n\
        let cell x = Hashtbl.find tbl x\n")

let test_init_once_atomic_clean () =
  check_clean "init-once"
    (kern
       "let hits = Atomic.make 0\n\
        let cell x = Atomic.fetch_and_add hits x\n\
        let grid xs = Par.map cell xs\n")

(* ---------------------------------------------------------------- *)
(* atomic-discipline *)

let test_atomic_split_rmw_fires () =
  check_fires "atomic-discipline" ~sub:"read-modify-write"
    (kern
       "let ctr = Atomic.make 0\n\
        let bump () = Atomic.set ctr (Atomic.get ctr + 1)\n")

let test_atomic_escape_fires () =
  (* Passing the cell around defeats the per-site analysis, so it is the
     violation. *)
  check_fires "atomic-discipline" ~sub:"escapes"
    (kern "let ctr = Atomic.make 0\nlet leak f = f ctr\n")

let test_atomic_exchange_clean () =
  check_clean "atomic-discipline"
    (kern
       "let once = Atomic.make false\n\
        let first () = not (Atomic.exchange once true)\n\
        let read () = Atomic.get once\n\
        let arm () = Atomic.set once false\n")

(* ---------------------------------------------------------------- *)
(* suppression and unknown rules under the dbrace marker *)

let test_suppress_dbrace_line () =
  let r =
    analyze ~rules:(only "par-shared-state")
      (kern
         (Fmt.str
            "let hits = ref 0\n\
             %s\n\
             let cell x = !hits + x\n\
             let grid xs = Par.map cell xs\n"
            (Fmt.str "(* %s allow par-shared-state -- fixture *)" "dbrace:")))
  in
  Alcotest.(check (list string)) "suppressed" [] (rules_of r);
  Alcotest.(check int) "counted" 1 r.Check.suppressed

let test_suppress_dbrace_file_and_line_mix () =
  (* allow-file silences one rule everywhere; the line allow silences the
     other only at its site — a second unsuppressed site must survive. *)
  let r =
    analyze
      (kern
         (Fmt.str
            "%s\n\
             let hits = ref 0\n\
             let misses = ref 0\n\
             %s\n\
             let cell x = hits := !hits + x; !misses + x\n\
             let far y = !misses + y\n\
             let grid xs = Par.map cell xs\n\
             let grid2 xs = Par.map far xs\n"
            (Fmt.str "(* %s allow-file init-once *)" "dbrace:")
            (Fmt.str "(* %s allow par-shared-state -- this line only *)"
               "dbrace:")))
  in
  List.iter
    (fun (v : Rule.violation) ->
      Alcotest.(check string) "only the uncovered site" "par-shared-state"
        v.Rule.rule;
      Alcotest.(check int) "at the far read" 6 v.Rule.line)
    r.Check.violations;
  Alcotest.(check bool) "something survived" true (r.Check.violations <> []);
  Alcotest.(check bool) "something suppressed" true (r.Check.suppressed > 0)

let test_dbflow_marker_inert_for_dbrace () =
  let r =
    analyze ~rules:(only "par-shared-state")
      (kern
         (Fmt.str
            "let hits = ref 0\n\
             %s\n\
             let cell x = !hits + x\n\
             let grid xs = Par.map cell xs\n"
            (Fmt.str "(* %s allow par-shared-state *)" "dbflow:")))
  in
  Alcotest.(check (list string))
    "still fires" [ "par-shared-state" ] (rules_of r)

let test_unknown_rule_warns () =
  let r =
    analyze
      (kern
         (Fmt.str "%s\nlet x = 1\n"
            (Fmt.str "(* %s allow no-such-rule *)" "dbrace:")))
  in
  Alcotest.(check (list string)) "pseudo-rule" [ "unknown-rule" ] (rules_of r)

(* ---------------------------------------------------------------- *)
(* the pinned pre-fix Obs race: what this PR actually fixed *)

(* Trimmed from lib/obs/obs.ml as it stood before the fix: plain refs
   for the force switch and registry, double-read of the flag in
   [create].  The cell unit reaches [create] through Par.map exactly the
   way E17's cells reach it through Cluster.create. *)
let pre_fix_obs =
  "let force_on = ref false\n\
   let force_capacity = ref 65536\n\
   let registry = ref []\n\
   let force_enable () = force_on := true\n\
   let create ~capacity ~label =\n\
  \  let enabled = !force_on in\n\
  \  let capacity = if !force_on then max capacity !force_capacity else capacity in\n\
  \  let t = (enabled, capacity, label) in\n\
  \  if !force_on then registry := t :: !registry;\n\
  \  t\n"

let pre_fix_cell =
  "let run_cell i = Obs.create ~capacity:1024 ~label:i\n\
   let metrics cells = Par.map run_cell cells\n"

let test_pre_fix_obs_race_caught () =
  let prog =
    Program.of_sources
      [ ("lib/fix/obs.ml", pre_fix_obs); ("lib/fix/cell.ml", pre_fix_cell) ]
  in
  let r = analyze ~rules:(only "par-shared-state") prog in
  let on_force_on =
    List.filter (fun m -> contains m "Obs.force_on") (messages_of r)
  in
  Alcotest.(check bool)
    "par-shared-state catches the force_on reads" true (on_force_on <> []);
  Alcotest.(check bool)
    "and the registry read" true
    (List.exists (fun m -> contains m "Obs.registry") (messages_of r));
  let ri = analyze ~rules:(only "init-once") prog in
  Alcotest.(check bool)
    "init-once catches the registry push" true
    (List.exists (fun m -> contains m "Obs.registry") (messages_of ri))

(* ---------------------------------------------------------------- *)
(* the inventory pass *)

let test_inventory () =
  let prog =
    kern
      "let a = ref 0\n\
       let b = Hashtbl.create 7\n\
       let c = Atomic.make 0\n\
       let d = Bytes.create 8\n\
       let mu = Mutex.create ()\n\
       let e = 1\n"
  in
  let g = Graph.build prog in
  let inv = Race.inventory prog g in
  Alcotest.(check (list (pair string string)))
    "kinds"
    [
      ("Kern.a", "ref");
      ("Kern.b", "hashtbl");
      ("Kern.c", "atomic");
      ("Kern.d", "bytes");
      ("Kern.mu", "mutex");
    ]
    (List.map (fun gl -> (gl.Race.g_id, Race.kind_name gl.Race.g_kind)) inv)

let test_registry () =
  Alcotest.(check (list string))
    "dbrace registry"
    [ "par-shared-state"; "atomic-discipline"; "init-once" ]
    Race.rule_names;
  List.iter
    (fun (ru : Race.rule) ->
      Alcotest.(check bool)
        (ru.Race.name ^ " documented")
        true
        (String.length ru.Race.doc > 0))
    Race.all_rules

(* ---------------------------------------------------------------- *)
(* full-tree gate: the repo itself must analyze clean *)

let test_repo_clean () =
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    let prog, errs = Program.load [ "lib"; "bin" ] in
    Alcotest.(check (list string))
      "no parse errors" []
      (List.map fst errs);
    let r = analyze prog in
    Alcotest.(check (list string))
      "zero unsuppressed dbrace violations in lib/ and bin/" []
      (List.map
         (fun (v : Rule.violation) ->
           Fmt.str "%s:%d %s" v.Rule.file v.Rule.line v.Rule.rule)
         r.Check.violations)
  end

let suite =
  [
    Alcotest.test_case "shared: Par.map worker read fires" `Quick
      test_shared_par_map_fires;
    Alcotest.test_case "shared: justified annotation clean" `Quick
      test_shared_annotated_clean;
    Alcotest.test_case "shared: unjustified annotation fires" `Quick
      test_shared_unjustified_fires;
    Alcotest.test_case "shared: orphan annotation fires" `Quick
      test_shared_orphan_annotation_fires;
    Alcotest.test_case "shared: not par-reachable clean" `Quick
      test_shared_not_par_reachable_clean;
    Alcotest.test_case "shared: inline closure roots caller" `Quick
      test_shared_inline_closure_roots_caller;
    Alcotest.test_case "shared: named handler rooted" `Quick
      test_shared_named_handler_roots_it;
    Alcotest.test_case "init-once: assign fires" `Quick
      test_init_once_assign_fires;
    Alcotest.test_case "init-once: Hashtbl.add fires" `Quick
      test_init_once_hashtbl_add_fires;
    Alcotest.test_case "init-once: module init clean" `Quick
      test_init_once_module_init_clean;
    Alcotest.test_case "init-once: Atomic clean" `Quick
      test_init_once_atomic_clean;
    Alcotest.test_case "atomic: split RMW fires" `Quick
      test_atomic_split_rmw_fires;
    Alcotest.test_case "atomic: escape fires" `Quick test_atomic_escape_fires;
    Alcotest.test_case "atomic: exchange clean" `Quick
      test_atomic_exchange_clean;
    Alcotest.test_case "suppress: dbrace line marker" `Quick
      test_suppress_dbrace_line;
    Alcotest.test_case "suppress: file+line mix" `Quick
      test_suppress_dbrace_file_and_line_mix;
    Alcotest.test_case "suppress: dbflow marker inert" `Quick
      test_dbflow_marker_inert_for_dbrace;
    Alcotest.test_case "suppress: unknown rule warns" `Quick
      test_unknown_rule_warns;
    Alcotest.test_case "pre-fix Obs race caught" `Quick
      test_pre_fix_obs_race_caught;
    Alcotest.test_case "inventory kinds" `Quick test_inventory;
    Alcotest.test_case "registry complete" `Quick test_registry;
    Alcotest.test_case "repo races clean" `Quick test_repo_clean;
  ]
