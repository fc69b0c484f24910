(* dbperf rule fixtures: each hot-path cost rule must fire on a minimal
   bad program and stay silent on its clean counterpart, the annotation
   grammar must demand justifications, suppression must work under the
   dbperf marker, and the repo itself must analyze clean.  The heart of
   the suite is the set of pinned pre-fix fixtures — the real hot-path
   allocations this PR fixed (the Logbucket.msb closure, the
   Telemetry.touch doubling closure, the shadow-resolved Stats.tick) —
   plus the cross-check that the functions the dynamic [Gc.minor_words]
   proofs cover are members of dbperf's statically hot-clean set.

   All dbperf markers in fixtures are assembled with [Fmt.str] so this
   file's own source never carries one (dbperf and Suppress both scan
   textually). *)

open Dbtree_flow
open Dbtree_lint

let kern src = Program.of_sources [ ("lib/fix/kern.ml", src) ]
let only name = [ name ]
let analyze ?(rules = Perf.rule_names) prog = Check.analyze ~rules prog

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

(* Assembled annotation: [(* dbperf: <kw> -- <why> *)]. *)
let ann kw why = Fmt.str "(* %s %s -- %s *)" "dbperf:" kw why
let ann_bare kw = Fmt.str "(* %s %s *)" "dbperf:" kw

(* A handler registration that makes [on_msg] hot. *)
let rooted body = body ^ "let setup sim = Sim.register_handler sim on_msg\n"

(* ---------------------------------------------------------------- *)
(* hot-alloc: firing shapes *)

let test_alloc_named_handler_fires () =
  check_fires "hot-alloc" ~sub:"Kern.on_msg"
    (kern (rooted "let on_msg x = Some x\n"))

let test_alloc_inline_closure_cut () =
  (* A literal [fun] handed to Sim.register_handler becomes its own
     hot pseudo-node; the allocation inside it is charged there. *)
  check_fires "hot-alloc" ~sub:"Kern.setup#h"
    (kern "let setup sim = Sim.register_handler sim (fun x -> (x, x))\n")

let test_alloc_local_binding_cut () =
  check_fires "hot-alloc" ~sub:"Kern.setup#cb"
    (kern
       "let setup sim =\n\
       \  let cb x = Some x in\n\
       \  Sim.register_handler sim cb\n")

let test_alloc_probe_callback_rooted () =
  (* The last unlabelled argument of Sim.set_probe is the scrape
     callback. *)
  check_fires "hot-alloc" ~sub:"list cons"
    (kern
       "let on_tick () = [ 1 ]\n\
        let setup sim = Sim.set_probe sim ~at:9 on_tick\n")

let test_alloc_transitive_callee_fires () =
  (* The violation lands in the callee the hot closure reaches, not the
     handler itself. *)
  check_fires "hot-alloc" ~sub:"Kern.build"
    (kern (rooted "let build x = Some x\nlet on_msg x = build x\n"))

let test_alloc_partial_application_fires () =
  check_fires "hot-alloc" ~sub:"partial application of Kern.add3"
    (kern (rooted "let add3 a b c = a + b + c\nlet on_msg x = add3 x 1\n"))

let test_alloc_nested_fun_counts_once () =
  (* [fun a -> fun b -> ...] is one closure, not one per parameter. *)
  check_fires ~count:1 "hot-alloc" ~sub:"closure"
    (kern (rooted "let on_msg x = (fun a b -> a + b) x x\n"))

(* ---------------------------------------------------------------- *)
(* hot-alloc: shapes that must stay silent *)

let test_alloc_cold_function_clean () =
  (* Allocating freely off the hot path is the whole point of the
     lazy/eager split. *)
  check_clean "hot-alloc" (kern "let build x = Some x\n")

let test_alloc_safe_local_ref_clean () =
  (* A non-escaping [let i = ref _] compiles to a mutable variable
     (Simplif.eliminate_ref): no heap allocation to report. *)
  check_clean "hot-alloc"
    (kern
       (rooted
          "let on_msg x =\n\
          \  let i = ref 0 in\n\
          \  while !i < x do\n\
          \    i := !i + 1\n\
          \  done;\n\
          \  !i\n"))

let test_alloc_escaping_ref_fires () =
  check_fires "hot-alloc" ~sub:"ref cell"
    (kern (rooted "let on_msg x = let i = ref x in i\n"))

let test_alloc_init_once_binding_clean () =
  (* An arity-0 binding runs once at module init; reading it from a hot
     function does not make its construction a per-event cost. *)
  check_clean "hot-alloc"
    (kern
       (rooted
          "let table = Hashtbl.create 7\n\
           let on_msg x = Hashtbl.find table x\n"))

let test_alloc_annotated_clean () =
  let src =
    Fmt.str
      "let on_msg x =\n\
      \  %s\n\
      \  Some x\n\
       let setup sim = Sim.register_handler sim on_msg\n"
      (ann "alloc-ok" "fixture: pretend it is amortized")
  in
  check_clean "hot-alloc" (kern src);
  (* ... and the annotation is attached, so stray-annot stays silent
     too. *)
  check_clean "stray-annot" (kern src)

let test_alloc_unjustified_annotation_fires () =
  check_fires "hot-alloc" ~sub:"no justification"
    (kern
       (Fmt.str
          "let on_msg x =\n\
          \  %s\n\
          \  Some x\n\
           let setup sim = Sim.register_handler sim on_msg\n"
          (ann_bare "alloc-ok")))

(* ---------------------------------------------------------------- *)
(* poly-compare *)

let test_poly_compare_fires () =
  check_fires "poly-compare" ~sub:"polymorphic compare"
    (kern (rooted "let on_msg a = compare a 0\n"))

let test_poly_boxed_equality_fires () =
  check_fires "poly-compare" ~sub:"boxed-looking"
    (kern (rooted "let on_msg x = x = None\n"))

let test_poly_bare_idents_clean () =
  (* [pid = pc]-style integer compares must never fire: bare idents are
     unknowable without typing and assumed immediate. *)
  check_clean "poly-compare" (kern (rooted "let on_msg a b = a = b\n"))

let test_poly_cold_function_clean () =
  check_clean "poly-compare" (kern "let order a = compare a 0\n")

(* ---------------------------------------------------------------- *)
(* the hot annotation as a root *)

let test_hot_annotation_roots_binding () =
  (* No registration in sight: the annotation alone pulls [pump] (and
     its callees) into the hot set. *)
  check_fires "hot-alloc" ~sub:"Kern.pump"
    (kern
       (Fmt.str "%s\nlet pump x = Some x\n"
          (ann "hot" "fixture: driven through a function pointer")))

let test_hot_annotation_unjustified_fires () =
  check_fires "stray-annot" ~sub:"no justification"
    (kern (Fmt.str "%s\nlet pump x = x\n" (ann_bare "hot")))

let test_hot_annotation_orphan_fires () =
  check_fires "stray-annot" ~sub:"not attached"
    (kern (Fmt.str "%s\n\nlet pump x = x\n" (ann "hot" "binds to nothing")))

let test_alloc_ok_gone_cold_fires () =
  (* The site it excuses is not in the hot set: report the stale
     annotation instead of keeping it silently. *)
  check_fires "stray-annot" ~sub:"gone cold"
    (kern (Fmt.str "%s\nlet build x = Some x\n" (ann "alloc-ok" "stale")))

(* ---------------------------------------------------------------- *)
(* suppression and unknown rules under the dbperf marker *)

let test_suppress_dbperf_line () =
  let r =
    analyze ~rules:(only "hot-alloc")
      (kern
         (Fmt.str
            "let on_msg x =\n\
            \  %s\n\
            \  Some x\n\
             let setup sim = Sim.register_handler sim on_msg\n"
            (Fmt.str "(* %s allow hot-alloc -- fixture *)" "dbperf:")))
  in
  Alcotest.(check (list string)) "suppressed" [] (rules_of r);
  Alcotest.(check int) "counted" 1 r.Check.suppressed

let test_dbrace_marker_inert_for_dbperf () =
  check_fires "hot-alloc" ~sub:"Kern.on_msg"
    (kern
       (Fmt.str
          "let on_msg x =\n\
          \  %s\n\
          \  Some x\n\
           let setup sim = Sim.register_handler sim on_msg\n"
          (Fmt.str "(* %s allow hot-alloc *)" "dbrace:")))

let test_unknown_rule_warns () =
  let r =
    analyze
      (kern
         (Fmt.str "%s\nlet x = 1\n"
            (Fmt.str "(* %s allow no-such-rule *)" "dbperf:")))
  in
  Alcotest.(check (list string)) "pseudo-rule" [ "unknown-rule" ] (rules_of r)

(* ---------------------------------------------------------------- *)
(* the annotation scanner *)

let test_scan_annots () =
  let src =
    Fmt.str "let a = 1\n%s\nlet b = 2\n%s\n"
      (ann "alloc-ok" "because reasons")
      (ann_bare "hot")
  in
  Alcotest.(check (list (triple int string string)))
    "scan"
    [ (2, "alloc-ok", "because reasons"); (4, "hot", "") ]
    (List.map
       (fun (a : Perf.annot) -> (a.Perf.an_line, a.Perf.an_keyword, a.Perf.an_why))
       (Perf.scan_annots src))

(* ---------------------------------------------------------------- *)
(* pinned pre-fix fixtures: the real hot-path findings this PR fixed *)

(* Trimmed from lib/obs/logbucket.ml as it stood before the fix: the
   msb loop was a local [let rec], one closure per histogram
   observation.  [Stats.hist_observe] is a built-in root, so the
   fixture reaches it exactly the way the real sketch path does. *)
let test_pre_fix_logbucket_msb_caught () =
  let prog =
    Program.of_sources
      [
        ( "lib/obs/logbucket.ml",
          "let msb v =\n\
          \  let rec go v m = if v <= 1 then m else go (v lsr 1) (m + 1) in\n\
          \  go v 0\n\
           let index v = if v < 16 then v else msb v\n" );
        ("lib/sim/stats.ml", "let hist_observe h v = ignore h; Logbucket.index v\n");
      ]
  in
  let r = analyze ~rules:(only "hot-alloc") prog in
  Alcotest.(check bool)
    "the msb closure is caught" true
    (List.exists
       (fun m -> contains m "Logbucket.msb" && contains m "closure")
       (messages_of r))

let test_post_fix_logbucket_msb_clean () =
  check_clean "hot-alloc"
    (Program.of_sources
       [
         ( "lib/obs/logbucket.ml",
           "let rec msb_loop v m = if v <= 1 then m else msb_loop (v lsr 1) (m + 1)\n\
            let msb v = msb_loop v 0\n\
            let index v = if v < 16 then v else msb v\n" );
         ("lib/sim/stats.ml", "let hist_observe h v = ignore h; Logbucket.index v\n");
       ])

(* Trimmed from lib/dbtree/telemetry.ml before the fix: the arena
   doubling built its capacity with a local [let rec go] closure and an
   unannotated Array.make, both inside the built-in root
   [Telemetry.touch]. *)
let test_pre_fix_telemetry_touch_caught () =
  let r =
    analyze ~rules:(only "hot-alloc")
      (Program.of_sources
         [
           ( "lib/dbtree/telemetry.ml",
             "let touch t ~node =\n\
             \  let cap =\n\
             \    let rec go c = if node < c then c else go (2 * c) in\n\
             \    go 2\n\
             \  in\n\
             \  ignore (Array.make cap 0);\n\
             \  ignore t\n" );
         ])
  in
  Alcotest.(check (list string))
    "closure and arena growth both caught"
    [ "hot-alloc"; "hot-alloc" ] (rules_of r);
  Alcotest.(check bool)
    "one is the doubling closure" true
    (List.exists (fun m -> contains m "closure") (messages_of r));
  Alcotest.(check bool)
    "one is the Array build" true
    (List.exists (fun m -> contains m "Array build") (messages_of r))

(* lib/sim/stats.ml before the fix: [let tick c = incr c] where a bare
   [incr] resolves against the 2-argument [Stats.incr] defined below —
   flagged as a closure-allocating partial application.  The fix spells
   out [Stdlib.incr], which is never a repo binding. *)
let pre_fix_stats_tail =
  "let add c by = ignore c; ignore by\n\
   let incr ?(by = 1) t name = ignore by; ignore t; ignore name\n"

let test_pre_fix_stats_tick_caught () =
  check_fires "hot-alloc" ~sub:"partial application of Stats.incr"
    (Program.of_sources
       [ ("lib/sim/stats.ml", "let tick c = incr c\n" ^ pre_fix_stats_tail) ])

let test_post_fix_stats_tick_clean () =
  check_clean "hot-alloc"
    (Program.of_sources
       [
         ( "lib/sim/stats.ml",
           "let tick c = Stdlib.incr c\n" ^ pre_fix_stats_tail );
       ])

(* ---------------------------------------------------------------- *)
(* registry *)

let test_registry () =
  Alcotest.(check (list string))
    "dbperf registry"
    [ "hot-alloc"; "poly-compare"; "stray-annot" ]
    Perf.rule_names;
  List.iter
    (fun (ru : Perf.rule) ->
      Alcotest.(check bool)
        (ru.Perf.name ^ " documented")
        true
        (String.length ru.Perf.doc > 0))
    Perf.all_rules

(* ---------------------------------------------------------------- *)
(* full-tree gates: the repo itself must analyze clean, and the
   functions the dynamic Gc.minor_words proofs cover must be members of
   the statically hot-clean set (so the static gate really does stand
   behind the dynamic claim). *)

let gc_proven =
  [
    "Telemetry.touch";
    "Telemetry.observe_latency";
    "Telemetry.aas_begin";
    "Telemetry.aas_end";
    "Telemetry.scrape";
    "Series.scrape";
  ]

let test_repo_clean () =
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    let prog, errs = Program.load [ "lib"; "bin" ] in
    Alcotest.(check (list string)) "no parse errors" [] (List.map fst errs);
    let r = analyze prog in
    Alcotest.(check (list string))
      "zero unsuppressed dbperf violations in lib/ and bin/" []
      (List.map
         (fun (v : Rule.violation) ->
           Fmt.str "%s:%d %s" v.Rule.file v.Rule.line v.Rule.rule)
         r.Check.violations)
  end

let test_gc_proven_statically_hot () =
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    let prog, _ = Program.load [ "lib"; "bin" ] in
    let ctx = Perf.make_ctx prog in
    let hot_ids = List.map (fun (n : Graph.node) -> n.Graph.id) ctx.Perf.hot in
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (id ^ " is in the hot set")
          true (List.mem id hot_ids))
      gc_proven;
    (* The built-in roots double as the proof subjects: each proven hook
       is a root, not just a transitively reached node. *)
    List.iter
      (fun id ->
        Alcotest.(check bool)
          (id ^ " is a hot root")
          true (List.mem id ctx.Perf.roots))
      gc_proven
  end

let suite =
  [
    Alcotest.test_case "alloc: named handler fires" `Quick
      test_alloc_named_handler_fires;
    Alcotest.test_case "alloc: inline closure cut" `Quick
      test_alloc_inline_closure_cut;
    Alcotest.test_case "alloc: local binding cut" `Quick
      test_alloc_local_binding_cut;
    Alcotest.test_case "alloc: probe callback rooted" `Quick
      test_alloc_probe_callback_rooted;
    Alcotest.test_case "alloc: transitive callee fires" `Quick
      test_alloc_transitive_callee_fires;
    Alcotest.test_case "alloc: partial application fires" `Quick
      test_alloc_partial_application_fires;
    Alcotest.test_case "alloc: nested fun counts once" `Quick
      test_alloc_nested_fun_counts_once;
    Alcotest.test_case "alloc: cold function clean" `Quick
      test_alloc_cold_function_clean;
    Alcotest.test_case "alloc: safe local ref clean" `Quick
      test_alloc_safe_local_ref_clean;
    Alcotest.test_case "alloc: escaping ref fires" `Quick
      test_alloc_escaping_ref_fires;
    Alcotest.test_case "alloc: init-once binding clean" `Quick
      test_alloc_init_once_binding_clean;
    Alcotest.test_case "alloc: justified annotation clean" `Quick
      test_alloc_annotated_clean;
    Alcotest.test_case "alloc: unjustified annotation fires" `Quick
      test_alloc_unjustified_annotation_fires;
    Alcotest.test_case "poly: compare fires" `Quick test_poly_compare_fires;
    Alcotest.test_case "poly: boxed equality fires" `Quick
      test_poly_boxed_equality_fires;
    Alcotest.test_case "poly: bare idents clean" `Quick
      test_poly_bare_idents_clean;
    Alcotest.test_case "poly: cold function clean" `Quick
      test_poly_cold_function_clean;
    Alcotest.test_case "hot annotation roots binding" `Quick
      test_hot_annotation_roots_binding;
    Alcotest.test_case "hot annotation unjustified fires" `Quick
      test_hot_annotation_unjustified_fires;
    Alcotest.test_case "hot annotation orphan fires" `Quick
      test_hot_annotation_orphan_fires;
    Alcotest.test_case "alloc-ok gone cold fires" `Quick
      test_alloc_ok_gone_cold_fires;
    Alcotest.test_case "suppress: dbperf line marker" `Quick
      test_suppress_dbperf_line;
    Alcotest.test_case "suppress: dbrace marker inert" `Quick
      test_dbrace_marker_inert_for_dbperf;
    Alcotest.test_case "suppress: unknown rule warns" `Quick
      test_unknown_rule_warns;
    Alcotest.test_case "annotation scanner" `Quick test_scan_annots;
    Alcotest.test_case "pre-fix Logbucket.msb caught" `Quick
      test_pre_fix_logbucket_msb_caught;
    Alcotest.test_case "post-fix Logbucket.msb clean" `Quick
      test_post_fix_logbucket_msb_clean;
    Alcotest.test_case "pre-fix Telemetry.touch caught" `Quick
      test_pre_fix_telemetry_touch_caught;
    Alcotest.test_case "pre-fix Stats.tick caught" `Quick
      test_pre_fix_stats_tick_caught;
    Alcotest.test_case "post-fix Stats.tick clean" `Quick
      test_post_fix_stats_tick_clean;
    Alcotest.test_case "registry complete" `Quick test_registry;
    Alcotest.test_case "repo hot paths clean" `Quick test_repo_clean;
    Alcotest.test_case "Gc-proven hooks statically hot" `Quick
      test_gc_proven_statically_hot;
  ]
