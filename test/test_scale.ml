(* Million-op scale machinery: the domain-parallel cell map, the arena
   store against a hash-table reference model, and the packed-clock
   budget that million-event runs must stay inside. *)
open Dbtree_core
open Dbtree_sim
open Dbtree_blink

(* ---------------------------------------------------------------- *)
(* Par.map: deterministic merge, exception order, actual parallelism-
   agnostic results. *)

let test_par_map_order () =
  let xs = Array.init 200 (fun i -> i) in
  let f i = (i * i) + 1 in
  Alcotest.(check (array int))
    "4 domains ≡ Array.map" (Array.map f xs)
    (Par.map ~domains:4 f xs);
  Alcotest.(check (array int))
    "1 domain ≡ Array.map" (Array.map f xs)
    (Par.map ~domains:1 f xs);
  Alcotest.(check (array int)) "empty input" [||] (Par.map ~domains:4 f [||])

let test_par_map_exn_lowest () =
  let xs = Array.init 50 (fun i -> i) in
  match
    Par.map ~domains:3
      (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i)
      xs
  with
  | _ -> Alcotest.fail "expected a Failure"
  | exception Failure s ->
    (* indices 3, 10, 17, … fail; the lowest must win regardless of
       which domain hit which index first *)
    Alcotest.(check string) "lowest failing index raised" "3" s

(* Arbitrary failing subsets under arbitrary domain counts: whichever
   domain hits whichever cell first, the exception that surfaces is
   always the lowest failing index's, and a failure-free run matches the
   sequential map. *)
let prop_par_exn_lowest =
  QCheck.Test.make ~count:200 ~name:"par: lowest of many failing cells wins"
    (QCheck.make
       ~print:
         (Fmt.str "%a"
            (Fmt.Dump.pair
               (Fmt.Dump.pair Fmt.int (Fmt.Dump.list Fmt.int))
               Fmt.int))
       QCheck.Gen.(
         pair (pair (int_range 1 40) (small_list (int_bound 39))) (int_range 1 6)))
    (fun ((n, fails), domains) ->
      let fails = List.sort_uniq compare (List.filter (fun i -> i < n) fails) in
      let xs = Array.init n (fun i -> i) in
      let f i = if List.mem i fails then failwith (string_of_int i) else i * 2 in
      match Par.map ~domains f xs with
      | r -> fails = [] && r = Array.map (fun i -> i * 2) xs
      | exception Failure s -> fails <> [] && s = string_of_int (List.hd fails))

let test_par_domains_exceed_cells () =
  (* the domain count clamps to the cell count: no idle domain spawns,
     and results (and exceptions) are unchanged *)
  let xs = [| 10; 20; 30 |] in
  Alcotest.(check (array int))
    "8 domains over 3 cells" (Array.map succ xs)
    (Par.map ~domains:8 succ xs);
  Alcotest.(check (array int))
    "5 domains over 1 cell" [| 2 |]
    (Par.map ~domains:5 succ [| 1 |]);
  match Par.map ~domains:7 (fun i -> if i = 1 then failwith "x" else i) [| 0; 1 |] with
  | _ -> Alcotest.fail "expected a Failure"
  | exception Failure s -> Alcotest.(check string) "exn through the clamp" "x" s

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_parse_domains () =
  Alcotest.(check (result int string)) "plain" (Ok 4) (Par.parse_domains "4");
  Alcotest.(check (result int string))
    "whitespace trimmed" (Ok 8)
    (Par.parse_domains " 8\n");
  Alcotest.(check (result int string)) "zero clamps" (Ok 1) (Par.parse_domains "0");
  Alcotest.(check (result int string))
    "negative clamps" (Ok 1) (Par.parse_domains "-3");
  (match Par.parse_domains "many" with
  | Ok d -> Alcotest.failf "parsed %d from garbage" d
  | Error m ->
    Alcotest.(check bool) "error names the variable" true (contains m "DBTREE_DOMAINS"));
  Alcotest.(check int) "unset env means 1" 1 (Par.domains_of_env None);
  Alcotest.(check int) "garbage env means 1 (warned once on stderr)" 1
    (Par.domains_of_env (Some "garbage"));
  Alcotest.(check int) "valid env passes through" 6
    (Par.domains_of_env (Some "6"))

(* e17's cells through one domain and through several must render the
   exact same table: the domain count is an execution detail, never an
   output one. *)
let capture run =
  Dbtree_experiments.Table.set_capture true;
  run ();
  let tables = Dbtree_experiments.Table.captured () in
  Dbtree_experiments.Table.set_capture false;
  String.concat "\n" (List.map Dbtree_experiments.Table.render tables)

let test_e17_par_byte_identical () =
  let seq =
    capture (fun () -> Dbtree_experiments.E17_scale.run_with ~quick:true ~domains:1 ())
  in
  let par =
    capture (fun () -> Dbtree_experiments.E17_scale.run_with ~quick:true ~domains:2 ())
  in
  Alcotest.(check bool) "table non-empty" true (String.length seq > 0);
  Alcotest.(check string) "sequential ≡ 2 domains" seq par

(* ---------------------------------------------------------------- *)
(* Arena store vs a hash-table reference model: random op sequences
   must observe identically, and the arena walk must be ascending. *)

type sop =
  | Install of int
  | Remove of int
  | Learn of int * int list
  | Learn_if_absent of int * int list
  | Add_pending of int * int
  | Take_pending of int

let sop_gen =
  let open QCheck.Gen in
  (* ids beyond the arena's initial capacity, to exercise growth *)
  let id = int_bound 300 in
  let members = list_size (int_bound 3) (int_bound 7) in
  frequency
    [
      (3, map (fun i -> Install i) id);
      (1, map (fun i -> Remove i) id);
      (2, map2 (fun i ms -> Learn (i, ms)) id members);
      (2, map2 (fun i ms -> Learn_if_absent (i, ms)) id members);
      (2, map2 (fun i k -> Add_pending (i, k)) id (int_bound 1000));
      (1, map (fun i -> Take_pending i) id);
    ]

let pp_sop fmt = function
  | Install i -> Fmt.pf fmt "Install %d" i
  | Remove i -> Fmt.pf fmt "Remove %d" i
  | Learn (i, ms) -> Fmt.pf fmt "Learn (%d, %a)" i Fmt.(list int) ms
  | Learn_if_absent (i, ms) ->
    Fmt.pf fmt "Learn_if_absent (%d, %a)" i Fmt.(list int) ms
  | Add_pending (i, k) -> Fmt.pf fmt "Add_pending (%d, %d)" i k
  | Take_pending i -> Fmt.pf fmt "Take_pending %d" i

let mk_node id =
  Node.make ~id ~level:0 ~low:Bound.Neg_inf ~high:Bound.Pos_inf Entries.empty

(* The pre-arena implementation in miniature: three Hashtbls. *)
type reference = {
  r_copies : (int, unit) Hashtbl.t;
  r_where : (int, int list) Hashtbl.t;
  r_pending : (int, Msg.t list) Hashtbl.t;
}

let prop_store_matches_reference =
  QCheck.Test.make ~count:300 ~name:"store: arena ≡ hashtbl reference"
    (QCheck.make ~print:(Fmt.str "%a" (Fmt.Dump.list pp_sop))
       QCheck.Gen.(list_size (int_bound 120) sop_gen))
    (fun ops ->
      let s = Store.create ~pid:0 ~root:0 in
      let r =
        {
          r_copies = Hashtbl.create 16;
          r_where = Hashtbl.create 16;
          r_pending = Hashtbl.create 16;
        }
      in
      List.iter
        (fun op ->
          (match op with
          | Install id ->
            ignore
              (Store.install s ~node:(mk_node id) ~pc:0 ~members:[ 0; 1 ]);
            Hashtbl.replace r.r_copies id ();
            Hashtbl.replace r.r_where id [ 0; 1 ]
          | Remove id ->
            Store.remove s id;
            Hashtbl.remove r.r_copies id
          | Learn (id, ms) ->
            Store.learn s id ms;
            Hashtbl.replace r.r_where id ms
          | Learn_if_absent (id, ms) ->
            Store.learn_if_absent s id ms;
            if not (Hashtbl.mem r.r_where id) then
              Hashtbl.replace r.r_where id ms
          | Add_pending (id, k) ->
            let m = Msg.Split_start { node = k } in
            Store.add_pending s id m;
            Hashtbl.replace r.r_pending id
              (m :: Option.value (Hashtbl.find_opt r.r_pending id) ~default:[])
          | Take_pending id ->
            let got = Store.take_pending s id in
            let want =
              List.rev
                (Option.value (Hashtbl.find_opt r.r_pending id) ~default:[])
            in
            Hashtbl.remove r.r_pending id;
            if got <> want then
              QCheck.Test.fail_reportf "take_pending %d diverged" id);
          let id =
            match op with
            | Install i | Remove i
            | Learn (i, _) | Learn_if_absent (i, _)
            | Add_pending (i, _) | Take_pending i -> i
          in
          if Store.mem s id <> Hashtbl.mem r.r_copies id then
            QCheck.Test.fail_reportf "mem %d diverged" id;
          if Store.members_opt s id <> Hashtbl.find_opt r.r_where id then
            QCheck.Test.fail_reportf "members_opt %d diverged" id)
        ops;
      if Store.copy_count s <> Hashtbl.length r.r_copies then
        QCheck.Test.fail_reportf "copy_count diverged";
      (* the arena walk is ascending node id — exactly the reference's
         key set, sorted *)
      let walked = ref [] in
      Store.iter s (fun c -> walked := c.Store.node.Node.id :: !walked);
      let walked = List.rev !walked in
      let want = List.map fst (Stats.sorted_bindings r.r_copies) in
      if walked <> want then QCheck.Test.fail_reportf "iter order diverged";
      true)

(* ---------------------------------------------------------------- *)
(* Packed-clock budget: the wheel consumes (time, seq) slots only for
   overflow insertions (delay beyond the 2048-tick window), so even a
   million-event run must use a vanishing fraction of the 2^31 seq
   budget — that is the regression this pin guards. *)

let test_million_events_within_budget () =
  let sim = Sim.create ~seed:7 () in
  let target = 1_000_000 in
  let n = ref 0 in
  let h =
    Sim.register_handler sim (fun a _ _ _ ->
        incr n;
        if !n < target then
          Sim.schedule_typed sim
            ~delay:(1 + (a mod 97))
            ~h:0 ~a:(a + 1) ~b:0 ~c:0 ~o:(Obj.repr 0))
  in
  Alcotest.(check int) "first handler id" 0 h;
  (* a sprinkle of beyond-window delays so the overflow path runs too *)
  for i = 1 to 32 do
    Sim.schedule sim ~delay:(Wheel.window + (i * 131)) (fun () -> ())
  done;
  Sim.schedule_typed sim ~delay:1 ~h:0 ~a:0 ~b:0 ~c:0 ~o:(Obj.repr 0);
  Sim.run sim;
  Alcotest.(check int) "all events ran" (target + 32)
    (Sim.events_processed sim);
  let consumed = Sim.seq_consumed sim in
  Alcotest.(check bool) "overflow seq stays tiny"
    true (consumed <= 32);
  Alcotest.(check bool) "far from the 2^31 budget" true
    (consumed < Wheel.max_seq / 1024 && Sim.now sim < Wheel.max_time / 16)

let suite =
  [
    Alcotest.test_case "par: map order" `Quick test_par_map_order;
    Alcotest.test_case "par: lowest exception wins" `Quick
      test_par_map_exn_lowest;
    QCheck_alcotest.to_alcotest prop_par_exn_lowest;
    Alcotest.test_case "par: domains exceed cells" `Quick
      test_par_domains_exceed_cells;
    Alcotest.test_case "par: DBTREE_DOMAINS parsing" `Quick test_parse_domains;
    Alcotest.test_case "par: e17 byte-identical across domains" `Quick
      test_e17_par_byte_identical;
    QCheck_alcotest.to_alcotest prop_store_matches_reference;
    Alcotest.test_case "packed clock: million events within budget" `Quick
      test_million_events_within_budget;
  ]
