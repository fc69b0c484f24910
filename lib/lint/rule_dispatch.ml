(* exhaustive-dispatch: in the protocol kernels, a [match] over [Msg.t]
   (or its payload types) with a wildcard arm silently swallows every
   message constructor added later — PR 1's Add_child-relay crash was a
   mishandled message hiding behind exactly such an arm.  Enumerating the
   constructors turns "new message kind" into a compile-time exhaustiveness
   event instead of a run-time [Fmt.failwith] (or worse, a silent drop). *)

(* The whole arm is a catch-all: [_], possibly aliased, constrained, or a
   branch of an or-pattern.  Wildcards nested inside constructors
   ([Some _]) are fine. *)
let rec is_catch_all (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> is_catch_all p
  | Ppat_or (a, b) -> is_catch_all a || is_catch_all b
  | _ -> false

let pattern_mentions_msg p =
  let found = ref false in
  let pat (it : Ast_iterator.iterator) (p : Parsetree.pattern) =
    (match p.ppat_desc with
    | Ppat_construct ({ txt; _ }, _) when Rule.mentions_module txt "Msg" ->
      found := true
    | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  !found

let expr_mentions_msg e =
  let found = ref false in
  let check_lid (lid : Longident.t) =
    if Rule.mentions_module lid "Msg" then found := true
  in
  let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ }
    | Pexp_construct ({ txt; _ }, _)
    | Pexp_field (_, { txt; _ }) ->
      check_lid txt
    | _ -> ());
    Ast_iterator.default_iterator.expr it e
  in
  let typ (it : Ast_iterator.iterator) (t : Parsetree.core_type) =
    (match t.ptyp_desc with
    | Ptyp_constr ({ txt; _ }, _) -> check_lid txt
    | _ -> ());
    Ast_iterator.default_iterator.typ it t
  in
  let it = { Ast_iterator.default_iterator with expr; typ } in
  it.expr it e;
  !found

let check_cases ctx acc scrutinee (cases : Parsetree.case list) =
  let about_msg =
    List.exists (fun c -> pattern_mentions_msg c.Parsetree.pc_lhs) cases
    || match scrutinee with Some e -> expr_mentions_msg e | None -> false
  in
  if about_msg then
    List.iter
      (fun (c : Parsetree.case) ->
        if c.pc_guard = None && is_catch_all c.pc_lhs then
          acc :=
            Rule.violation ctx ~rule:"exhaustive-dispatch"
              ~loc:c.pc_lhs.ppat_loc
              "wildcard arm in a Msg dispatch: enumerate the remaining \
               constructors so new message kinds fail at compile time"
            :: !acc)
      cases

let check ctx structure =
  if not ctx.Rule.protocol then []
  else begin
    let acc = ref [] in
    let expr (it : Ast_iterator.iterator) (e : Parsetree.expression) =
      (match e.pexp_desc with
      | Pexp_match (scrutinee, cases) ->
        check_cases ctx acc (Some scrutinee) cases
      | Pexp_function cases -> check_cases ctx acc None cases
      | _ -> ());
      Ast_iterator.default_iterator.expr it e
    in
    let it = { Ast_iterator.default_iterator with expr } in
    it.structure it structure;
    List.rev !acc
  end

let rule =
  {
    Rule.name = "exhaustive-dispatch";
    doc =
      "no wildcard arms in Msg matches inside the protocol kernels \
       (fixed/variable/mobile/kernel_core/cluster)";
    check;
  }
