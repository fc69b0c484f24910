(* dbflow rule fixtures: each graph-level rule must fire on a minimal
   bad program and stay silent on its clean counterpart, suppression
   must work under the dbflow marker, and the repo itself must analyze
   clean.  Fixtures are in-memory programs ([Program.of_sources]); the
   path [lib/fix/kern.ml] makes the unit [Kern]. *)

open Dbtree_flow
open Dbtree_lint

let kern src = Program.of_sources [ ("lib/fix/kern.ml", src) ]
let only name = [ name ]
let analyze ?(rules = Flow.rule_names) prog = Check.analyze ~rules prog

let rules_of (r : Check.report) =
  List.map (fun (v : Rule.violation) -> v.Rule.rule) r.Check.violations

let messages_of (r : Check.report) =
  List.map (fun (v : Rule.violation) -> v.Rule.message) r.Check.violations

let check_fires name ~sub prog =
  let r = analyze ~rules:(only name) prog in
  Alcotest.(check (list string)) (name ^ " fires") [ name ] (rules_of r);
  let msg = List.hd (messages_of r) in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool)
    (Fmt.str "message mentions %S" sub)
    true (contains msg sub)

let check_clean name prog =
  let r = analyze ~rules:(only name) prog in
  Alcotest.(check (list string)) (name ^ " silent") [] (rules_of r)

(* ---------------------------------------------------------------- *)
(* send-handle *)

let test_send_handle_unhandled () =
  (* Msg.Bad is constructed in the unit but its dispatch arm rejects. *)
  check_fires "send-handle" ~sub:"Bad"
    (kern
       "let poke send = send (Msg.Bad 1)\n\
        let ping send = send Msg.Ping\n\
        let handle t msg =\n\
       \  match msg with\n\
       \  | Msg.Ping -> ignore t\n\
       \  | Msg.Bad _ -> Fmt.failwith \"Kern: unexpected\"\n")

let test_send_handle_dead_arm () =
  (* Msg.Quiet has a real handler arm but no construction site. *)
  check_fires "send-handle" ~sub:"Quiet"
    (kern
       "let ping send = send Msg.Ping\n\
        let handle t msg =\n\
       \  match msg with\n\
       \  | Msg.Ping -> ignore t\n\
       \  | Msg.Quiet -> ignore t\n")

let test_send_handle_clean () =
  check_clean "send-handle"
    (kern
       "let ping send = send Msg.Ping\n\
        let quiet send = send Msg.Quiet\n\
        let handle t msg =\n\
       \  match msg with\n\
       \  | Msg.Ping -> ignore t\n\
       \  | Msg.Quiet -> ignore t\n")

(* The shared kernel core: a second unit, [Kernel_core], whose functor
   instance the kernel calls, as the real kernels do. *)
let with_core ~core src =
  Program.of_sources
    [ ("lib/fix/kernel_core.ml", core); ("lib/fix/kern.ml", src) ]

let test_send_handle_core_construction () =
  (* Kern's only Op_done construction sits in a shared-core helper it
     reaches through [Core]: the Op_done arm is live. *)
  check_clean "send-handle"
    (with_core
       ~core:
         "module Make (K : sig val name : string end) = struct\n\
         \  let read send = send (Msg.Op_done K.name)\n\
          end\n"
       "module Core = Kernel_core.Make (struct let name = \"kern\" end)\n\
        let ping send = send Msg.Ping\n\
        let perform send = Core.read send\n\
        let handle t msg =\n\
       \  match msg with\n\
       \  | Msg.Ping -> ignore t\n\
       \  | Msg.Op_done _ -> ignore t\n")

let test_send_handle_core_unreached () =
  (* A core construction the kernel never calls is not the kernel's. *)
  check_fires "send-handle" ~sub:"Op_done"
    (with_core ~core:"let reply send = send (Msg.Op_done 0)\n"
       "let ping send = send Msg.Ping\n\
        let handle t msg =\n\
       \  match msg with\n\
       \  | Msg.Ping -> ignore t\n\
       \  | Msg.Op_done _ -> ignore t\n")

(* ---------------------------------------------------------------- *)
(* aas-discipline *)

let test_aas_reply_reachable () =
  (* The Split_start arm calls [reply], which constructs an
     initial-update completion — exactly what the AAS window must
     block (Theorem 1). *)
  check_fires "aas-discipline" ~sub:"Op_done"
    (kern
       "let reply send = send (Msg.Op_done 0)\n\
        let handle t msg =\n\
       \  match msg with\n\
       \  | Msg.Split_start _ -> reply t\n\
       \  | Msg.Op_done _ -> ignore t\n")

let test_aas_search_exempt () =
  (* A search reply under a Search arm is not an initial update;
     reaching it from Split_start enrolment is fine. *)
  check_clean "aas-discipline"
    (kern
       "let answer op send =\n\
       \  match op with\n\
       \  | Op.Search k -> send (Msg.Op_done k)\n\
       \  | _ -> ()\n\
        let handle t msg =\n\
       \  match msg with\n\
       \  | Msg.Split_start _ -> answer t t\n\
       \  | Msg.Op_done _ -> ignore t\n")

let test_aas_clean () =
  check_clean "aas-discipline"
    (kern
       "let enroll st = st.splitting <- true\n\
        let handle t msg =\n\
       \  match msg with\n\
       \  | Msg.Split_start _ -> enroll t\n\
       \  | Msg.Op_done _ -> ignore t\n")

(* ---------------------------------------------------------------- *)
(* ordering-class *)

(* The annotation marker is assembled so this test file never carries a
   stray marker itself (dbflow scans textually, same as Suppress). *)
let cls c = Fmt.str "(* dbflow: %s %s -- fixture *)" "class" c

let test_class_missing () =
  check_fires "ordering-class" ~sub:"no ordering-class"
    (kern
       "let handle t msg =\n\
       \  match msg with\n\
       \  | Msg.Ping -> ignore t\n")

let test_class_unknown () =
  check_fires "ordering-class" ~sub:"unknown ordering class"
    (kern
       (Fmt.str
          "let handle t msg =\n\
          \  match msg with\n\
          \  %s\n\
          \  | Msg.Ping -> ignore t\n"
          (cls "eventually")))

let test_class_sync_outside_aas () =
  (* Msg.Lock is classed sync but a construction site never touches the
     AAS machinery. *)
  check_fires "ordering-class" ~sub:"sync"
    (kern
       (Fmt.str
          "let bad_send send = send (Msg.Lock 1)\n\
           let handle t msg =\n\
          \  match msg with\n\
          \  %s\n\
          \  | Msg.Lock _ -> ignore t\n"
          (cls "sync")))

let test_class_sync_under_aas_clean () =
  check_clean "ordering-class"
    (kern
       (Fmt.str
          "let good_send st send = if st.splitting then send (Msg.Lock 1)\n\
           let handle t msg =\n\
          \  match msg with\n\
          \  %s\n\
          \  | Msg.Lock _ -> ignore t\n"
          (cls "sync")))

let test_class_lazy_reaches_pc () =
  check_fires "ordering-class" ~sub:"primary-copy"
    (kern
       (Fmt.str
          "let gate t = t.pc = 0\n\
           let handle t msg =\n\
          \  match msg with\n\
          \  %s\n\
          \  | Msg.Ping -> ignore (gate t)\n"
          (cls "lazy")))

let test_class_lazy_clean () =
  check_clean "ordering-class"
    (kern
       (Fmt.str
          "let apply t = t.count <- t.count + 1\n\
           let handle t msg =\n\
          \  match msg with\n\
          \  %s\n\
          \  | Msg.Ping -> apply t\n"
          (cls "lazy")))

let test_class_lazy_reaches_core_pc () =
  (* The pc gate moved into the shared core; the lazy arm still reaches
     it through the functor instance. *)
  check_fires "ordering-class" ~sub:"primary-copy"
    (with_core
       ~core:
         "module Make (K : sig val name : string end) = struct\n\
         \  let gate c = c.pc = 0\n\
          end\n"
       (Fmt.str
          "module Core = Kernel_core.Make (struct let name = \"kern\" end)\n\
           let handle t msg =\n\
          \  match msg with\n\
          \  %s\n\
          \  | Msg.Ping -> ignore (Core.gate t)\n"
          (cls "lazy")))

let test_class_orphaned () =
  (* An annotation in a unit with no Msg dispatch binds to nothing. *)
  check_fires "ordering-class" ~sub:"no Msg dispatch"
    (kern (Fmt.str "%s\nlet id x = x\n" (cls "lazy")))

(* ---------------------------------------------------------------- *)
(* counter-lifecycle *)

let test_counter_unused () =
  check_fires "counter-lifecycle" ~sub:"never ticked"
    (kern "let make st = let c_lost = Stats.counter st \"lost\" in 0\n")

let test_counter_duplicate () =
  check_fires "counter-lifecycle" ~sub:"more than once"
    (kern
       "let make st =\n\
       \  let a = Stats.counter st \"ops\" in\n\
       \  let b = Stats.counter st \"ops\" in\n\
       \  Stats.tick a; Stats.tick b\n")

let test_counter_clean () =
  check_clean "counter-lifecycle"
    (kern
       "let make st =\n\
       \  let c_ops = Stats.counter st \"ops\" in\n\
       \  Stats.tick c_ops\n")

let test_series_cell_unused () =
  check_fires "counter-lifecycle" ~sub:"series cell"
    (kern "let make reg = let touches = Series.cell reg \"heat\" in 0\n")

let test_series_duplicate_gauge () =
  check_fires "counter-lifecycle" ~sub:"registered more than once"
    (kern
       "let wire reg st =\n\
       \  Series.gauge reg \"depth\" (fun () -> 1);\n\
       \  Series.counter reg \"depth\" st\n")

(* Stats and Series are separate registries: one name in both is not a
   collision, and computed Series names register nothing to collide. *)
let test_series_registries_distinct () =
  check_clean "counter-lifecycle"
    (kern
       "let wire reg st pids =\n\
       \  let c_retx = Stats.counter st \"retx\" in\n\
       \  Stats.tick c_retx;\n\
       \  Series.counter reg \"retx\" c_retx;\n\
       \  List.iter\n\
       \    (fun p -> Series.gauge reg (Fmt.str \"net.inbox.p%d\" p)\n\
       \      (fun () -> p))\n\
       \    pids\n")

(* ---------------------------------------------------------------- *)
(* span-pairing *)

let test_span_unbalanced () =
  check_fires "span-pairing" ~sub:"Split_end"
    (kern "let start cl = Cluster.event cl Event.Split_start\n")

let test_span_paired_clean () =
  (* The close is reachable through a call, not necessarily inline. *)
  check_clean "span-pairing"
    (kern
       "let finish cl = Cluster.event cl Event.Split_end\n\
        let start cl = Cluster.event cl Event.Split_start; finish cl\n")

(* ---------------------------------------------------------------- *)
(* suppression and unknown rules under the dbflow marker *)

let test_suppress_dbflow () =
  let r =
    analyze ~rules:(only "span-pairing")
      (kern
         "(* dbflow: allow span-pairing -- fixture *)\n\
          let start cl = Cluster.event cl Event.Split_start\n")
  in
  Alcotest.(check (list string)) "suppressed" [] (rules_of r);
  Alcotest.(check int) "counted" 1 r.Check.suppressed

let test_dblint_marker_inert_for_dbflow () =
  (* A dblint-marked allow must not silence a dbflow violation.  The
     marker is assembled so dblint's own textual scan of this test file
     does not read the fixture's comment. *)
  let r =
    analyze ~rules:(only "span-pairing")
      (kern
         (Fmt.str
            "(* %s: allow span-pairing *)\n\
             let start cl = Cluster.event cl Event.Split_start\n"
            "dblint"))
  in
  Alcotest.(check (list string)) "still fires" [ "span-pairing" ] (rules_of r)

let test_unknown_rule_warns () =
  let r = analyze (kern "(* dbflow: allow no-such-rule *)\nlet x = 1\n") in
  Alcotest.(check (list string)) "pseudo-rule" [ "unknown-rule" ] (rules_of r)

(* ---------------------------------------------------------------- *)
(* SARIF output is well-formed and complete *)

let test_sarif_well_formed () =
  let r =
    analyze ~rules:(only "span-pairing")
      (kern "let start cl = Cluster.event cl Event.Split_start\n")
  in
  let buf = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer buf in
  Sarif.pp ppf ~tool:"dbflow"
    ~rules:(List.map (fun (ru : Flow.rule) -> (ru.Flow.name, ru.Flow.doc)) Flow.all_rules)
    r.Check.violations;
  Format.pp_print_flush ppf ();
  let module J = Dbtree_obs.Json in
  let json = J.parse (Buffer.contents buf) in
  let get o k = Option.get (J.member k o) in
  Alcotest.(check (option string))
    "version" (Some "2.1.0")
    (J.to_string (get json "version"));
  let run = List.hd (Option.get (J.to_list (get json "runs"))) in
  let driver = get (get run "tool") "driver" in
  Alcotest.(check (option string))
    "tool name" (Some "dbflow")
    (J.to_string (get driver "name"));
  let rules = Option.get (J.to_list (get driver "rules")) in
  Alcotest.(check int) "all rules listed" (List.length Flow.all_rules)
    (List.length rules);
  let results = Option.get (J.to_list (get run "results")) in
  Alcotest.(check int) "one result per violation"
    (List.length r.Check.violations) (List.length results);
  let result = List.hd results in
  Alcotest.(check (option string))
    "ruleId" (Some "span-pairing")
    (J.to_string (get result "ruleId"));
  let loc = List.hd (Option.get (J.to_list (get result "locations"))) in
  let region = get (get loc "physicalLocation") "region" in
  Alcotest.(check (option (float 0.0)))
    "startLine" (Some 1.0)
    (J.to_float (get region "startLine"));
  (* dbflow columns are 0-based; SARIF's are 1-based: [Event.…] starts
     at byte 32 of the fixture line. *)
  Alcotest.(check (option (float 0.0)))
    "startColumn is 1-based" (Some 33.0)
    (J.to_float (get region "startColumn"))

(* ---------------------------------------------------------------- *)
(* registries: both CLIs expose a complete, documented rule list *)

let test_registries () =
  Alcotest.(check (list string))
    "dbflow registry"
    [
      "send-handle";
      "aas-discipline";
      "ordering-class";
      "counter-lifecycle";
      "span-pairing";
    ]
    Flow.rule_names;
  List.iter
    (fun (ru : Flow.rule) ->
      Alcotest.(check bool)
        (ru.Flow.name ^ " documented")
        true
        (String.length ru.Flow.doc > 0))
    Flow.all_rules;
  List.iter
    (fun (ru : Rule.t) ->
      Alcotest.(check bool)
        (ru.Rule.name ^ " documented")
        true
        (String.length ru.Rule.doc > 0))
    Lint.all_rules;
  Alcotest.(check int) "dblint registry size" 5 (List.length Lint.rule_names)

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
      "zero unsuppressed flow violations in lib/ and bin/" []
      (List.map
         (fun (v : Rule.violation) ->
           Fmt.str "%s:%d %s" v.Rule.file v.Rule.line v.Rule.rule)
         r.Check.violations)
  end

let suite =
  [
    Alcotest.test_case "send-handle: rejected kind fires" `Quick
      test_send_handle_unhandled;
    Alcotest.test_case "send-handle: dead arm fires" `Quick
      test_send_handle_dead_arm;
    Alcotest.test_case "send-handle: clean" `Quick test_send_handle_clean;
    Alcotest.test_case "send-handle: core construction counts" `Quick
      test_send_handle_core_construction;
    Alcotest.test_case "send-handle: unreached core construction" `Quick
      test_send_handle_core_unreached;
    Alcotest.test_case "aas: reply reachable fires" `Quick
      test_aas_reply_reachable;
    Alcotest.test_case "aas: search reply exempt" `Quick
      test_aas_search_exempt;
    Alcotest.test_case "aas: clean" `Quick test_aas_clean;
    Alcotest.test_case "class: missing fires" `Quick test_class_missing;
    Alcotest.test_case "class: unknown fires" `Quick test_class_unknown;
    Alcotest.test_case "class: sync outside AAS fires" `Quick
      test_class_sync_outside_aas;
    Alcotest.test_case "class: sync under AAS clean" `Quick
      test_class_sync_under_aas_clean;
    Alcotest.test_case "class: lazy pc-gate fires" `Quick
      test_class_lazy_reaches_pc;
    Alcotest.test_case "class: lazy clean" `Quick test_class_lazy_clean;
    Alcotest.test_case "class: lazy core pc-gate fires" `Quick
      test_class_lazy_reaches_core_pc;
    Alcotest.test_case "class: orphaned fires" `Quick test_class_orphaned;
    Alcotest.test_case "counter: unused fires" `Quick test_counter_unused;
    Alcotest.test_case "counter: duplicate fires" `Quick
      test_counter_duplicate;
    Alcotest.test_case "counter: clean" `Quick test_counter_clean;
    Alcotest.test_case "counter: series cell unused fires" `Quick
      test_series_cell_unused;
    Alcotest.test_case "counter: duplicate gauge fires" `Quick
      test_series_duplicate_gauge;
    Alcotest.test_case "counter: registries distinct" `Quick
      test_series_registries_distinct;
    Alcotest.test_case "span: unbalanced fires" `Quick test_span_unbalanced;
    Alcotest.test_case "span: paired clean" `Quick test_span_paired_clean;
    Alcotest.test_case "suppress: dbflow marker" `Quick test_suppress_dbflow;
    Alcotest.test_case "suppress: dblint marker inert" `Quick
      test_dblint_marker_inert_for_dbflow;
    Alcotest.test_case "suppress: unknown rule warns" `Quick
      test_unknown_rule_warns;
    Alcotest.test_case "sarif: well-formed" `Quick test_sarif_well_formed;
    Alcotest.test_case "registries complete" `Quick test_registries;
    Alcotest.test_case "repo flows clean" `Quick test_repo_clean;
  ]
