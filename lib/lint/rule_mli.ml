(* mli-coverage: every library module carries an interface file.  The
   [.mli] is where replication invariants and protocol contracts are
   documented (see store.mli, msg.mli), and it keeps the linkable surface
   of each module deliberate — growth PRs refactor freely, and an absent
   interface lets incidental helpers become load-bearing exports.
   Executables ([bin/], [test/]) are exempt: they export nothing. *)

let check ctx (_ : Parsetree.structure) =
  if
    ctx.Rule.in_lib
    && Filename.check_suffix ctx.Rule.file ".ml"
    && not (Sys.file_exists (Filename.chop_suffix ctx.Rule.file ".ml" ^ ".mli"))
  then
    [
      {
        Rule.rule = "mli-coverage";
        file = ctx.Rule.file;
        line = 1;
        col = 0;
        message =
          "library module has no interface file: add a sibling .mli \
           declaring (and documenting) the intended exports";
      };
    ]
  else []

let rule =
  {
    Rule.name = "mli-coverage";
    doc = "every module under lib/ has a sibling .mli";
    check;
  }
