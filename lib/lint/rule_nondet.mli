(** no-nondeterminism: forbid seed-uncontrolled randomness ([Random.*]),
    wall-clock reads ([Sys.time], [Unix.gettimeofday], [Unix.time]) and
    unspecified-order hash iteration ([Hashtbl.iter]/[Hashtbl.fold])
    everywhere except [lib/sim/rng.ml]. *)

val rule : Rule.t
