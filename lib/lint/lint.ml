let all_rules =
  [
    Rule_nondet.rule; Rule_dispatch.rule; Rule_stats.rule; Rule_mli.rule;
    Rule_trace.rule;
  ]

let rule_names = List.map (fun r -> r.Rule.name) all_rules

let check rules ~file ~source structure =
  let ctx = Rule.make_ctx ~file ~source in
  List.concat_map (fun r -> r.Rule.check ctx structure) rules

(* ------------------------------------------------------------------ *)
(* File discovery                                                      *)

let rec collect_path acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare (* Sys.readdir order is unspecified *)
    |> List.filter (fun name -> name <> "" && name.[0] <> '.' && name <> "_build")
    |> List.fold_left (fun acc name -> collect_path acc (Filename.concat path name)) acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let collect_files paths = List.rev (List.fold_left collect_path [] paths)

(* ------------------------------------------------------------------ *)
(* Reporters                                                           *)

let pp_text ppf (v : Rule.violation) =
  Fmt.pf ppf "%s:%d:%d: [%s] %s@." v.file v.line v.col v.rule v.message

let pp_json ppf ~files ~suppressed violations =
  let pp_violation ppf (v : Rule.violation) =
    Fmt.pf ppf
      {|{"rule":"%s","file":"%s","line":%d,"col":%d,"message":"%s"}|}
      (Dbtree_obs.Export.escape v.rule)
      (Dbtree_obs.Export.escape v.file)
      v.line v.col
      (Dbtree_obs.Export.escape v.message)
  in
  Fmt.pf ppf {|{"files":%d,"suppressed":%d,"violations":[%a]}@.|} files
    suppressed
    (Fmt.list ~sep:(Fmt.any ",") pp_violation)
    violations
