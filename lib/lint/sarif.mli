(** SARIF 2.1.0 rendering for [dbcheck], so every rule family feeds
    GitHub code-scanning (inline PR annotations) from one writer.  Only the slice of the format those consumers read is
    emitted: one run, the tool driver with its rule catalogue, and one
    result per violation with a physical location. *)

val pp :
  Format.formatter ->
  tool:string ->
  rules:(string * string) list ->
  Rule.violation list ->
  unit
(** [pp ppf ~tool ~rules vs] writes a complete SARIF log.  [rules] is
    the full registry as [(name, one-line doc)] pairs — listed even when
    a subset ran, so result [ruleId]s always resolve.  Columns are
    converted from the repo's 0-based convention to SARIF's 1-based. *)
