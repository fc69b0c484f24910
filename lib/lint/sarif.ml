(* SARIF artifact URIs are relative paths with forward slashes. *)
let uri_of_file file =
  String.map (fun c -> if c = '\\' then '/' else c) file

let pp_rule ppf (name, doc) =
  Fmt.pf ppf
    {|{"id":"%s","shortDescription":{"text":"%s"},"defaultConfiguration":{"level":"error"}}|}
    (Dbtree_obs.Export.escape name) (Dbtree_obs.Export.escape doc)

let pp_result ppf (v : Rule.violation) =
  (* SARIF regions are 1-based in both coordinates; our columns are
     0-based (compiler convention), so shift. *)
  Fmt.pf ppf
    {|{"ruleId":"%s","level":"error","message":{"text":"%s"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"%s"},"region":{"startLine":%d,"startColumn":%d}}}]}|}
    (Dbtree_obs.Export.escape v.rule)
    (Dbtree_obs.Export.escape v.message)
    (Dbtree_obs.Export.escape (uri_of_file v.file))
    v.line (v.col + 1)

let pp ppf ~tool ~rules violations =
  Fmt.pf ppf
    {|{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","version":"2.1.0","runs":[{"tool":{"driver":{"name":"%s","informationUri":"https://example.invalid/dbtree","rules":[%a]}},"results":[%a]}]}@.|}
    (Dbtree_obs.Export.escape tool)
    (Fmt.list ~sep:(Fmt.any ",") pp_rule)
    rules
    (Fmt.list ~sep:(Fmt.any ",") pp_result)
    violations
