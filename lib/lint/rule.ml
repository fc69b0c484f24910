type violation = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

type ctx = {
  file : string;
  source : string;
  in_lib : bool;
  nondet_allowlisted : bool;
  protocol : bool;
}

type t = {
  name : string;
  doc : string;
  check : ctx -> Parsetree.structure -> violation list;
}

let protocol_basenames =
  [ "fixed.ml"; "variable.ml"; "mobile.ml"; "kernel_core.ml"; "cluster.ml" ]

let path_components file =
  String.split_on_char '/' file
  |> List.concat_map (String.split_on_char '\\')
  |> List.filter (fun c -> c <> "" && c <> ".")

let make_ctx ~file ~source =
  let comps = path_components file in
  let base = Filename.basename file in
  {
    file;
    source;
    in_lib = List.mem "lib" comps;
    nondet_allowlisted = base = "rng.ml";
    protocol = List.mem base protocol_basenames;
  }

let violation ctx ~rule ~loc message =
  let pos = loc.Location.loc_start in
  {
    rule;
    file = ctx.file;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    message;
  }

(* [Longident] helpers shared by the AST-walking rules. *)

(* Normalise away an explicit [Stdlib.] qualifier so that
   [Stdlib.Hashtbl.iter] and [Hashtbl.iter] look the same. *)
let rec strip_stdlib (lid : Longident.t) : Longident.t =
  match lid with
  | Longident.Ldot (Longident.Lident "Stdlib", s) -> Longident.Lident s
  | Longident.Ldot (l, s) -> Longident.Ldot (strip_stdlib l, s)
  | Longident.Lident _ | Longident.Lapply _ -> lid

let rec lident_components (lid : Longident.t) =
  match lid with
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> lident_components l @ [ s ]
  | Longident.Lapply _ -> []

let mentions_module lid m = List.mem m (lident_components (strip_stdlib lid))
