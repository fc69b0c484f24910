type family = { marker : string; rules : string list }

type scan = {
  file_rules : string list;
  line_rules : (int * string list) list;
  unknown : (int * string) list;
}

let is_rule_token tok =
  tok <> ""
  && String.exists (fun c -> c >= 'a' && c <= 'z') tok
  && String.for_all (fun c -> (c >= 'a' && c <= 'z') || c = '-') tok

(* Rule names follow the marker, separated by spaces or commas; anything
   from the first non-rule-shaped token on (conventionally after [--]) is
   the justification and is ignored. *)
let rules_after line marker =
  match
    let mlen = String.length marker in
    let rec find i =
      if i + mlen > String.length line then None
      else if String.sub line i mlen = marker then Some (i + mlen)
      else find (i + 1)
    in
    find 0
  with
  | None -> None
  | Some start ->
    let rest = String.sub line start (String.length line - start) in
    let tokens =
      String.split_on_char ' ' rest
      |> List.concat_map (String.split_on_char ',')
      |> List.filter (fun t -> t <> "")
    in
    let rec leading = function
      | tok :: rest when is_rule_token tok -> tok :: leading rest
      | _ -> []
    in
    Some (leading tokens)

let scan family source =
  let lines = String.split_on_char '\n' source in
  let file_rules = ref [] and line_rules = ref [] and unknown = ref [] in
  let check_known lnum rules =
    List.iter
      (fun r ->
        if not (List.mem r family.rules) then unknown := (lnum, r) :: !unknown)
      rules
  in
  List.iteri
    (fun i line ->
      let lnum = i + 1 in
      match rules_after line (family.marker ^ ": allow-file") with
      | Some rules ->
        check_known lnum rules;
        file_rules := rules @ !file_rules
      | None -> (
        match rules_after line (family.marker ^ ": allow") with
        | Some rules when rules <> [] ->
          check_known lnum rules;
          line_rules := (lnum, rules) :: !line_rules
        | Some _ | None -> ()))
    lines;
  {
    file_rules = !file_rules;
    line_rules = !line_rules;
    unknown = List.rev !unknown;
  }

(* A line-scoped allow covers its own line and the next one, so it works
   both as a trailing comment and as a comment of its own above the
   flagged expression. *)
let active s ~rule ~line =
  List.mem rule s.file_rules
  || List.exists
       (fun (l, rules) -> (l = line || l + 1 = line) && List.mem rule rules)
       s.line_rules

let filter families sources violations =
  let scans =
    List.concat_map
      (fun (file, source) ->
        List.map (fun f -> ((file, f), scan f source)) families)
      sources
  in
  let silenced (v : Rule.violation) =
    List.exists
      (fun ((file, f), s) ->
        file = v.file && List.mem v.rule f.rules
        && active s ~rule:v.rule ~line:v.line)
      scans
  in
  let suppressed, kept =
    List.partition silenced (List.sort_uniq compare violations)
  in
  let unknown =
    List.concat_map
      (fun ((file, f), s) ->
        List.map
          (fun (line, tok) ->
            {
              Rule.rule = "unknown-rule";
              file;
              line;
              col = 0;
              message =
                Fmt.str
                  "%s allow comment names unknown rule %S (known: %s): fix \
                   the name or the comment suppresses nothing"
                  f.marker tok
                  (String.concat ", " f.rules);
            })
          s.unknown)
      scans
  in
  let key (v : Rule.violation) = (v.file, v.line, v.col, v.rule) in
  ( List.stable_sort (fun a b -> compare (key a) (key b)) (unknown @ kept),
    List.length suppressed )
