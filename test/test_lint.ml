(* dblint rule fixtures: each rule must fire on a minimal bad snippet and
   stay silent on a clean one, and the suppression comments must silence
   exactly the annotated line / file. *)

open Dbtree_lint
open Dbtree_flow

let rules_of (r : Check.report) =
  List.map (fun (v : Rule.violation) -> v.Rule.rule) r.Check.violations

(* Every fixture lints as if it lived at this path: inside [lib/], not a
   protocol module, not allowlisted.  The path is fictitious, which also
   means the mli-coverage rule fires (no sibling .mli on disk) — so tests
   for the other rules run with an explicit rule list. *)
let fixture_path = "lib/fixtures/snippet.ml"

let lint_source ?(rules = Lint.rule_names) ~file src =
  Check.analyze ~rules (Program.of_sources [ (file, src) ])

let lint_file ?rules file = lint_source ?rules ~file (Srcfile.read_file file)
let lint ?rules src = lint_source ?rules ~file:fixture_path src
let only name = [ name ]

(* ---------------------------------------------------------------- *)
(* no-nondeterminism *)

let test_nondet_fires () =
  let r =
    lint ~rules:(only "no-nondeterminism")
      "let x () = Random.int 10\nlet y tbl = Hashtbl.iter ignore tbl\n"
  in
  Alcotest.(check (list string))
    "both sites flagged"
    [ "no-nondeterminism"; "no-nondeterminism" ]
    (rules_of r)

let test_nondet_clean () =
  let r =
    lint ~rules:(only "no-nondeterminism")
      "let x rng = Rng.int rng 10\n\
       let y tbl = List.iter ignore (Stats.sorted_bindings tbl)\n"
  in
  Alcotest.(check (list string)) "clean snippet silent" [] (rules_of r)

let test_nondet_allowlisted_path () =
  (* rng.ml itself may use raw randomness. *)
  let r =
    lint_source
      ~rules:(only "no-nondeterminism")
      ~file:"lib/sim/rng.ml" "let x () = Random.int 10\n"
  in
  Alcotest.(check (list string)) "rng.ml exempt" [] (rules_of r);
  (* Only rng.ml is exempt: a [bench/] path is linted like any other. *)
  let r =
    lint_source
      ~rules:(only "no-nondeterminism")
      ~file:"bench/x.ml" "let x () = Random.int 10\n"
  in
  Alcotest.(check (list string))
    "bench/ not exempt" [ "no-nondeterminism" ] (rules_of r)

(* ---------------------------------------------------------------- *)
(* exhaustive-dispatch *)

let dispatch_bad =
  "let handle msg =\n\
  \  match msg with\n\
  \  | Msg.Route _ -> ()\n\
  \  | _ -> failwith \"unexpected\"\n"

let test_dispatch_fires () =
  let r =
    lint_source
      ~rules:(only "exhaustive-dispatch")
      ~file:"lib/dbtree/variable.ml" dispatch_bad
  in
  Alcotest.(check (list string))
    "wildcard Msg arm flagged" [ "exhaustive-dispatch" ] (rules_of r)

let test_dispatch_fires_in_core () =
  (* The shared kernel core is protocol code too. *)
  let r =
    lint_source
      ~rules:(only "exhaustive-dispatch")
      ~file:"lib/dbtree/kernel_core.ml" dispatch_bad
  in
  Alcotest.(check (list string))
    "wildcard Msg arm flagged in the core" [ "exhaustive-dispatch" ]
    (rules_of r)

let test_dispatch_non_protocol_silent () =
  (* Same snippet outside the protocol kernels is not subject to the rule. *)
  let r = lint ~rules:(only "exhaustive-dispatch") dispatch_bad in
  Alcotest.(check (list string)) "non-protocol file silent" [] (rules_of r)

let test_dispatch_explicit_clean () =
  let r =
    lint_source
      ~rules:(only "exhaustive-dispatch")
      ~file:"lib/dbtree/fixed.ml"
      "let handle msg =\n\
      \  match msg with\n\
      \  | Msg.Route _ -> ()\n\
      \  | Msg.Op_done _ -> ()\n"
  in
  Alcotest.(check (list string)) "explicit arms silent" [] (rules_of r)

(* ---------------------------------------------------------------- *)
(* interned-stats *)

let test_stats_fires () =
  let r =
    lint ~rules:(only "interned-stats")
      "let f stats name = Stats.counter stats (\"prefix.\" ^ name)\n"
  in
  Alcotest.(check (list string))
    "computed counter name flagged" [ "interned-stats" ] (rules_of r)

let test_stats_clean () =
  let r =
    lint ~rules:(only "interned-stats")
      "let f stats =\n\
      \  let c = Stats.counter stats in\n\
      \  let hits = Stats.counter stats \"cache.hits\" in\n\
      \  ignore (c \"late\"); hits\n"
  in
  Alcotest.(check (list string))
    "literal + intern-once idiom silent" [] (rules_of r)

(* ---------------------------------------------------------------- *)
(* guarded-trace *)

let test_trace_fires () =
  let r =
    lint ~rules:(only "guarded-trace")
      "let f obs time = Obs.emit_here obs ~time (Fmt.str \"op %d\" time)\n"
  in
  Alcotest.(check (list string))
    "eager Fmt.str in emit argument flagged" [ "guarded-trace" ] (rules_of r)

let test_trace_concat_fires () =
  let r =
    lint ~rules:(only "guarded-trace")
      "let f tr a b = Trace.emit tr (a ^ b)\n"
  in
  Alcotest.(check (list string))
    "string concatenation in emit argument flagged" [ "guarded-trace" ]
    (rules_of r)

let test_trace_clean () =
  let r =
    lint ~rules:(only "guarded-trace")
      "let f obs ~time ~pid ~op ~parent ~kind ~a ~b =\n\
      \  ignore (Obs.emit obs ~time ~pid ~op ~parent ~kind ~a ~b)\n\
       let g tr a b = Trace.emit tr (lazy (a ^ b))\n\
       let h s = Fmt.str \"not an emit call: %s\" s\n"
  in
  Alcotest.(check (list string))
    "int args, lazy-deferred, and non-emit sites silent" [] (rules_of r)

(* ---------------------------------------------------------------- *)
(* mli-coverage *)

let test_mli_fires () =
  (* No sibling .mli exists for the fictitious path. *)
  let r = lint ~rules:(only "mli-coverage") "let x = 1\n" in
  Alcotest.(check (list string))
    "lib module without interface flagged" [ "mli-coverage" ] (rules_of r)

let test_mli_clean_with_interface () =
  let dir = Filename.temp_file "dblint" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Unix.mkdir (Filename.concat dir "lib") 0o755;
  let ml = Filename.concat dir "lib/covered.ml" in
  let mli = Filename.concat dir "lib/covered.mli" in
  let write path s =
    let oc = open_out path in
    output_string oc s;
    close_out oc
  in
  write ml "let x = 1\n";
  write mli "val x : int\n";
  let r = lint_file ~rules:(only "mli-coverage") ml in
  Sys.remove ml;
  Sys.remove mli;
  Unix.rmdir (Filename.concat dir "lib");
  Unix.rmdir dir;
  Alcotest.(check (list string)) "interface present: silent" [] (rules_of r)

let test_mli_skips_bin () =
  let r =
    lint_source ~rules:(only "mli-coverage") ~file:"bin/tool.ml"
      "let x = 1\n"
  in
  Alcotest.(check (list string)) "bin/ exempt" [] (rules_of r)

(* ---------------------------------------------------------------- *)
(* suppression *)

let test_suppress_line () =
  let r =
    lint ~rules:(only "no-nondeterminism")
      "(* dblint: allow no-nondeterminism -- test fixture *)\n\
       let x () = Random.int 10\n\
       let y () = Random.int 10\n"
  in
  Alcotest.(check int) "one suppressed" 1 r.Check.suppressed;
  Alcotest.(check (list string))
    "unannotated line still flagged" [ "no-nondeterminism" ] (rules_of r)

let test_suppress_file () =
  let r =
    lint ~rules:(only "no-nondeterminism")
      "(* dblint: allow-file no-nondeterminism *)\n\
       let x () = Random.int 10\n\
       let y () = Random.int 10\n"
  in
  Alcotest.(check int) "both suppressed" 2 r.Check.suppressed;
  Alcotest.(check (list string)) "nothing reported" [] (rules_of r)

let test_suppress_wrong_rule () =
  let r =
    lint ~rules:(only "no-nondeterminism")
      "(* dblint: allow interned-stats *)\nlet x () = Random.int 10\n"
  in
  Alcotest.(check (list string))
    "allow for another rule does not apply" [ "no-nondeterminism" ]
    (rules_of r)

let test_suppress_file_and_line_mix () =
  (* A file-wide allow for one rule composes with a same-line allow for
     another: each suppresses only its own rule, and a third violation
     covered by neither still fires. *)
  let rules =
    [
      "no-nondeterminism";
      "interned-stats";
    ]
  in
  let r =
    lint ~rules
      "(* dblint: allow-file no-nondeterminism *)\n\
       let x () = Random.int 10\n\
       let c stats name = Stats.counter stats name (* dblint: allow \
       interned-stats *)\n\
       \n\
       let d stats name = Stats.counter stats name\n"
  in
  Alcotest.(check int) "two suppressed" 2 r.Check.suppressed;
  Alcotest.(check (list string))
    "only the uncovered interning fires" [ "interned-stats" ] (rules_of r)

let test_suppress_final_line_no_newline () =
  (* A trailing allow on the file's last line, with no final newline,
     must still cover its own line. *)
  let r =
    lint ~rules:(only "no-nondeterminism")
      "let x () = Random.int 10 (* dblint: allow no-nondeterminism *)"
  in
  Alcotest.(check int) "suppressed" 1 r.Check.suppressed;
  Alcotest.(check (list string)) "nothing reported" [] (rules_of r)

let test_unknown_rule_name_warns () =
  (* A typoed allow comment must warn instead of silently suppressing
     nothing: dblint reports it under the [unknown-rule] pseudo-rule.
     The marker is assembled so dblint's own scan of this test file
     does not read the fixture's comment. *)
  let r =
    lint ~rules:(only "no-nondeterminism")
      (Fmt.str "(* %s: allow no-such-rule *)\nlet x = 1\n" "dblint")
  in
  Alcotest.(check (list string)) "pseudo-rule" [ "unknown-rule" ] (rules_of r)

(* ---------------------------------------------------------------- *)
(* full-tree gate: the repo itself must lint clean *)

let test_repo_clean () =
  (* dune runs tests in a sandbox rooted at the build dir; only run the
     self-lint when the sources are visible from here. *)
  if Sys.file_exists "lib" && Sys.is_directory "lib" then begin
    let prog, _ = Program.load [ "lib"; "bin" ] in
    let dirty = (Check.analyze ~rules:Lint.rule_names prog).Check.violations in
    Alcotest.(check (list string))
      "zero unsuppressed violations in lib/ and bin/" []
      (List.map
         (fun (v : Rule.violation) ->
           Fmt.str "%s:%d %s" v.Rule.file v.Rule.line v.Rule.rule)
         dirty)
  end

let suite =
  [
    Alcotest.test_case "nondet: fires" `Quick test_nondet_fires;
    Alcotest.test_case "nondet: clean" `Quick test_nondet_clean;
    Alcotest.test_case "nondet: rng.ml exempt" `Quick
      test_nondet_allowlisted_path;
    Alcotest.test_case "dispatch: fires" `Quick test_dispatch_fires;
    Alcotest.test_case "dispatch: fires in kernel core" `Quick
      test_dispatch_fires_in_core;
    Alcotest.test_case "dispatch: non-protocol silent" `Quick
      test_dispatch_non_protocol_silent;
    Alcotest.test_case "dispatch: explicit clean" `Quick
      test_dispatch_explicit_clean;
    Alcotest.test_case "stats: fires" `Quick test_stats_fires;
    Alcotest.test_case "stats: clean" `Quick test_stats_clean;
    Alcotest.test_case "trace: eager format fires" `Quick test_trace_fires;
    Alcotest.test_case "trace: concat fires" `Quick test_trace_concat_fires;
    Alcotest.test_case "trace: clean" `Quick test_trace_clean;
    Alcotest.test_case "mli: fires" `Quick test_mli_fires;
    Alcotest.test_case "mli: interface present" `Quick
      test_mli_clean_with_interface;
    Alcotest.test_case "mli: bin exempt" `Quick test_mli_skips_bin;
    Alcotest.test_case "suppress: line scope" `Quick test_suppress_line;
    Alcotest.test_case "suppress: file scope" `Quick test_suppress_file;
    Alcotest.test_case "suppress: wrong rule inert" `Quick
      test_suppress_wrong_rule;
    Alcotest.test_case "suppress: file+line mix" `Quick
      test_suppress_file_and_line_mix;
    Alcotest.test_case "suppress: final line" `Quick
      test_suppress_final_line_no_newline;
    Alcotest.test_case "suppress: unknown rule warns" `Quick
      test_unknown_rule_name_warns;
    Alcotest.test_case "repo lints clean" `Quick test_repo_clean;
  ]
