(* The merged analysis behind dbcheck: one seeded violation per rule
   family must come back in one list sorted by (file, line, col, rule),
   and each family's allow marker must silence only that family.
   Markers are assembled with [Fmt.str] so this file's own source never
   carries one (the suppression scan is textual). *)

open Dbtree_flow
open Dbtree_lint

(* Lines 1-2 seed dbperf's hot-alloc, 3 dblint's no-nondeterminism, 5
   dbrace's par-shared-state and 7 dbflow's span-pairing: the sorted
   order interleaves the families. *)
let seeded =
  [
    "let on_msg x = Some x";
    "let setup sim = Sim.register_handler sim on_msg";
    "let roll () = Random.int 10";
    "let hits = ref 0";
    "let cell x = !hits + x";
    "let grid xs = Par.map cell xs";
    "let start cl = Cluster.event cl Event.Split_start";
  ]

let expected =
  [
    ("dbperf", "hot-alloc", 1);
    ("dblint", "no-nondeterminism", 3);
    ("dbrace", "par-shared-state", 5);
    ("dbflow", "span-pairing", 7);
  ]

let analyze lines =
  Check.analyze
    ~rules:(List.map (fun (_, rule, _) -> rule) expected)
    (Program.of_sources [ ("lib/fix/kern.ml", String.concat "\n" lines) ])

let found (r : Check.report) =
  List.map (fun (v : Rule.violation) -> (v.rule, v.line)) r.violations

let test_merged () =
  let r = analyze seeded in
  Alcotest.(check (list (pair string int)))
    "all four families, one sorted list"
    (List.map (fun (_, rule, line) -> (rule, line)) expected)
    (found r);
  Alcotest.(check int) "nothing suppressed" 0 r.suppressed;
  (* Each marker naming each seeded rule at its site: the family's own
     marker silences it and nothing else; any other marker leaves it
     standing and is reported as naming an unknown rule. *)
  List.iter
    (fun (family, rule, line) ->
      List.iter
        (fun (marker, _, _) ->
          let lines =
            List.mapi
              (fun i l ->
                if i + 1 = line then
                  Fmt.str "%s (* %s: allow %s *)" l marker rule
                else l)
              seeded
          in
          let r = analyze lines in
          let rest = List.filter (fun v -> v <> (rule, line)) (found r) in
          let tag = Fmt.str "%s marker on %s" marker rule in
          if marker = family then begin
            Alcotest.(check int) (tag ^ ": suppressed") 1 r.suppressed;
            Alcotest.(check int) (tag ^ ": others stand") 3 (List.length rest);
            Alcotest.(check bool) (tag ^ ": silenced") false
              (List.mem (rule, line) (found r))
          end
          else begin
            Alcotest.(check int) (tag ^ ": suppressed") 0 r.suppressed;
            Alcotest.(check bool) (tag ^ ": still fires") true
              (List.mem (rule, line) (found r));
            Alcotest.(check bool) (tag ^ ": unknown rule") true
              (List.mem ("unknown-rule", line) (found r))
          end)
        expected)
    expected

let suite =
  [
    Alcotest.test_case "merged families: sorted, own markers" `Quick
      test_merged;
  ]
