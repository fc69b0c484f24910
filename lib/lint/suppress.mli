(** Suppression comments, one filter for all four rule families.

    [(* <marker>: allow <rule> [<rule>...] -- justification *)] silences
    the named rules on the comment's own line and the line below it, so
    it can be written trailing the flagged expression or on its own line
    above.  [(* <marker>: allow-file <rule> *)] anywhere in a file
    silences the rule for the whole file.  Scanning is textual
    (line-based): the marker is recognised wherever it appears, including
    inside string literals.

    Each family has its own marker ([dblint], [dbflow], [dbrace],
    [dbperf]) and a marker silences only its own family's rules, so the
    families' suppressions never shadow each other: a [dbflow: allow
    hot-alloc] silences nothing and is itself reported. *)

type family = {
  marker : string;  (** comment prefix, e.g. ["dbflow"] *)
  rules : string list;  (** the family's whole registry *)
}

val filter :
  family list ->
  (string * string) list ->
  Rule.violation list ->
  Rule.violation list * int
(** [filter families sources vs] drops duplicates from [vs], silences
    each violation whose rule belongs to a family with an active allow
    comment in that file's source ([sources] is [(file, source)] pairs),
    and returns the survivors plus one [unknown-rule] pseudo-violation
    per allow-comment token that names no rule of its marker's family
    (typos must not suppress silently), sorted by
    [(file, line, col, rule)], together with the silenced count.  Only
    the markers of [families] are scanned. *)
