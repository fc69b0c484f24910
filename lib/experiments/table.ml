type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;  (* newest first *)
  mutable notes : string list;  (* newest first *)
}

let create ~title ~columns = { title; columns; rows = []; notes = [] }
let rows t = List.rev t.rows

(* Optional capture of every printed table, so test/quick_tables.exe can
   render them into the golden tables.expected and tests can read their
   rows back. *)
(* dbrace: domain-local -- tables are built and printed on the caller's domain only; Par workers return row data, never a Table *)
let capture_enabled = ref false
(* dbrace: domain-local -- same: captured during single-domain rendering, after any Par.map has joined *)
let captured_rev : t list ref = ref []

let set_capture on =
  capture_enabled := on;
  if on then captured_rev := []

let captured () = List.rev !captured_rev

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: wrong arity";
  t.rows <- row :: t.rows

let add_note t note = t.notes <- note :: t.notes
let cell_f x = Fmt.str "%.2f" x
let cell_i = string_of_int

let render t =
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i col ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length col) rows)
      t.columns
  in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let line row = String.concat "  " (List.map2 pad row widths) in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Fmt.str "== %s ==\n" t.title);
  Buffer.add_string buf (line t.columns);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length (line t.columns)) '-');
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (line row);
      Buffer.add_char buf '\n')
    rows;
  List.iter
    (fun n -> Buffer.add_string buf (Fmt.str "   note: %s\n" n))
    (List.rev t.notes);
  Buffer.contents buf

let print t =
  if !capture_enabled then captured_rev := t :: !captured_rev;
  Fmt.pr "@.%s@?" (render t)
