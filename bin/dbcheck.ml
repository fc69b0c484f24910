(* dbcheck — the repository's static checker: four rule families over one
   parse.

   Usage: dbcheck [--format text|json|sarif] [--rules r1,r2] [--list-rules]
                  [--inventory] [--hot] [PATH...]

   Parses every .ml under the given paths (default: lib bin) once, runs
   the per-file rules (marker dblint) on each unit and the whole-program
   protocol-flow (dbflow), domain-safety (dbrace) and hot-path cost
   (dbperf) rules over one call graph, and filters the result through
   each family's allow comments (LINTS.md).  [--rules] picks any subset
   of the registry, families mixed freely.  [--inventory] prints the
   toplevel mutable-state inventory and [--hot] the hot set instead of
   running the rules.  Exit code: 0 clean, 1 violations found, 2
   parse/usage errors. *)

open Dbtree_lint
open Dbtree_flow

type format = Text | Json | Sarif

let () =
  let format = ref Text and rules = ref None and list_rules = ref false in
  let inventory = ref false and hot = ref false and paths = ref [] in
  let set_format = function
    | "text" -> format := Text
    | "json" -> format := Json
    | "sarif" -> format := Sarif
    | f -> raise (Arg.Bad (Fmt.str "unknown format %S (text|json|sarif)" f))
  in
  let known name =
    let name = String.trim name in
    if List.mem_assoc name Check.registry then name
    else raise (Arg.Bad (Fmt.str "unknown rule %S" name))
  in
  let set_rules names =
    rules := Some (List.map known (String.split_on_char ',' names))
  in
  Arg.parse
    [
      ( "--format",
        Arg.String set_format,
        "FMT Report format: text (default), json or sarif" );
      ( "--rules",
        Arg.String set_rules,
        "NAMES Comma-separated subset of rules to run (any family)" );
      ( "--list-rules",
        Arg.Set list_rules,
        " List the registered rules and exit" );
      ( "--inventory",
        Arg.Set inventory,
        " Print the toplevel mutable-state inventory and exit" );
      ("--hot", Arg.Set hot, " Print the hot-set audit view and exit");
    ]
    (fun p -> paths := p :: !paths)
    "dbcheck [--format text|json|sarif] [--rules NAMES] [--list-rules] \
     [--inventory] [--hot] [PATH...]";
  if !list_rules then begin
    List.iter (fun (name, doc) -> Fmt.pr "%-20s %s@." name doc) Check.registry;
    exit 0
  end;
  let paths = match List.rev !paths with [] -> [ "lib"; "bin" ] | ps -> ps in
  (match List.find_opt (fun p -> not (Sys.file_exists p)) paths with
  | Some p ->
    Fmt.epr "dbcheck: no such file or directory: %s@." p;
    exit 2
  | None -> ());
  let prog, errors = Program.load paths in
  List.iter
    (fun (file, err) -> Fmt.epr "dbcheck: cannot parse %s: %s@." file err)
    errors;
  let status clean = if errors <> [] then 2 else if clean then 0 else 1 in
  if !inventory || !hot then begin
    if !inventory then Race.pp_inventory Fmt.stdout prog;
    if !hot then Perf.pp_hot Fmt.stdout prog;
    exit (status true)
  end;
  let r = Check.analyze ?rules:!rules prog in
  (match !format with
  | Text ->
    List.iter (Lint.pp_text Fmt.stdout) r.violations;
    Fmt.epr "dbcheck: %d file(s), %d violation(s), %d suppressed@." r.files
      (List.length r.violations) r.suppressed
  | Json ->
    Lint.pp_json Fmt.stdout ~files:r.files ~suppressed:r.suppressed
      r.violations
  | Sarif ->
    Sarif.pp Fmt.stdout ~tool:"dbcheck" ~rules:Check.registry r.violations);
  exit (status (r.violations = []))
