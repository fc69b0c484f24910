(* Behavioural contract: render every experiment table of a quick run.

   Runs each experiment in [Experiments.all] with [~quick:true] and table
   capture on, then writes the captured tables, rendered, to the file
   named by the first argument.  The root [dune] file diffs that file
   against the committed [tables.expected]; a refactor that moves a
   single simulated count shows up as that diff.  Only captured tables
   are written: the experiments' own stdout (which repeats them) and
   E17's wall-clock CPU line on stderr are left out, so the output is
   seed-deterministic.  Regenerate with
   [dune build @runtest --auto-promote] after a deliberate change. *)

let () =
  let out = Sys.argv.(1) in
  Dbtree_experiments.Table.set_capture true;
  List.iter
    (fun (e : Dbtree_experiments.Experiments.t) ->
      e.Dbtree_experiments.Experiments.run ~quick:true ())
    Dbtree_experiments.Experiments.all;
  let tables = Dbtree_experiments.Table.captured () in
  Dbtree_experiments.Table.set_capture false;
  Out_channel.with_open_text out (fun oc ->
      List.iter
        (fun t -> output_string oc (Dbtree_experiments.Table.render t ^ "\n"))
        tables)
