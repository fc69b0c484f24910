(* no-nondeterminism: the simulator's bit-for-bit reproducibility per seed
   is the foundation of every experiment table and regression pin.  Wall
   clocks, the global [Random] state, and unspecified-order hash-table
   iteration all break it (OCaml's [Hashtbl] order is stable for a fixed
   insertion sequence, but changes under [~random:true], [OCAMLRUNPARAM=R]
   or a stdlib upgrade — and it leaks schedule decisions that should come
   only from [Rng]).  Raw randomness lives in [lib/sim/rng.ml]; everything
   else draws from a seeded [Rng.t] and iterates hash tables through a
   sorted-keys helper such as [Stats.sorted_bindings]. *)

let forbidden (lid : Longident.t) =
  match Rule.strip_stdlib lid with
  | Longident.Ldot (Longident.Lident "Random", fn) ->
    Some
      (Fmt.str
         "Random.%s uses global, seed-uncontrolled randomness; draw from a \
          seeded Rng.t instead"
         fn)
  | Longident.Ldot (Longident.Lident "Sys", "time")
  | Longident.Ldot (Longident.Lident "Unix", ("gettimeofday" | "time")) ->
    Some
      "wall-clock time is nondeterministic; use simulated time (Sim.now) \
       instead"
  | Longident.Ldot (Longident.Lident "Hashtbl", (("iter" | "fold") as fn)) ->
    Some
      (Fmt.str
         "Hashtbl.%s visits bindings in unspecified order; iterate \
          sorted bindings (e.g. Stats.sorted_bindings) or justify with a \
          dblint allow comment"
         fn)
  | _ -> None

let check ctx structure =
  if ctx.Rule.nondet_allowlisted then []
  else begin
    let acc = ref [] in
    let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
      (match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
        match forbidden txt with
        | Some msg ->
          acc :=
            Rule.violation ctx ~rule:"no-nondeterminism" ~loc msg :: !acc
        | None -> ())
      | _ -> ());
      Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.structure it structure;
    List.rev !acc
  end

let rule =
  {
    Rule.name = "no-nondeterminism";
    doc =
      "forbid Random.*, wall clocks and unordered Hashtbl iteration \
       outside lib/sim/rng.ml";
    check;
  }
