open Dbtree_lint

let registry =
  List.map (fun (r : Rule.t) -> (r.name, r.doc)) Lint.all_rules
  @ List.map (fun (r : Flow.rule) -> (r.name, r.doc)) Flow.all_rules
  @ List.map (fun (r : Race.rule) -> (r.name, r.doc)) Race.all_rules
  @ List.map (fun (r : Perf.rule) -> (r.name, r.doc)) Perf.all_rules

let families =
  [
    { Suppress.marker = "dblint"; rules = Lint.rule_names };
    { marker = "dbflow"; rules = Flow.rule_names };
    { marker = "dbrace"; rules = Race.rule_names };
    { marker = "dbperf"; rules = Perf.rule_names };
  ]

type report = {
  violations : Rule.violation list;
  suppressed : int;
  files : int;
}

let analyze ?(rules = List.map fst registry) (prog : Program.t) =
  List.iter
    (fun name ->
      if not (List.mem_assoc name registry) then
        invalid_arg ("Check.analyze: unknown rule " ^ name))
    rules;
  let pick name_of = List.filter (fun r -> List.mem (name_of r) rules) in
  let graph = lazy (Graph.build prog) in
  let whole_program check = function
    | [] -> []
    | selected -> check selected prog (Lazy.force graph)
  in
  let lint = pick (fun (r : Rule.t) -> r.name) Lint.all_rules in
  let raw =
    List.concat_map
      (fun (u : Program.unit_info) ->
        Lint.check lint ~file:u.file ~source:u.source u.structure)
      prog.units
    @ whole_program Flow.check
        (pick (fun (r : Flow.rule) -> r.name) Flow.all_rules)
    @ whole_program Race.check
        (pick (fun (r : Race.rule) -> r.name) Race.all_rules)
    @ whole_program Perf.check
        (pick (fun (r : Perf.rule) -> r.name) Perf.all_rules)
  in
  let selected (f : Suppress.family) =
    List.exists (fun r -> List.mem r rules) f.rules
  in
  let violations, suppressed =
    Suppress.filter
      (List.filter selected families)
      (List.map (fun (u : Program.unit_info) -> (u.file, u.source)) prog.units)
      raw
  in
  { violations; suppressed; files = List.length prog.units }
