(* Tests for workload generation and the key-space partition. *)
open Dbtree_sim
open Dbtree_workload
open Dbtree_core

let test_unique_keys () =
  let rng = Rng.create 1 in
  let keys = Workload.unique_keys rng ~key_space:10_000 ~count:500 in
  Alcotest.(check int) "count" 500 (Array.length keys);
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  let distinct = Array.to_list sorted |> List.sort_uniq compare in
  Alcotest.(check int) "all distinct" 500 (List.length distinct);
  Array.iter
    (fun k ->
      Alcotest.(check bool) "in range" true (k >= 1 && k < 10_000))
    keys

let test_zipf_skew () =
  let rng = Rng.create 2 in
  let sample = Workload.zipf rng ~n:100 ~theta:0.99 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let r = sample () in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 0 much hotter than rank 50" true
    (counts.(0) > 5 * counts.(50));
  let uniform = Workload.zipf rng ~n:100 ~theta:0.0 in
  let counts0 = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let r = uniform () in
    counts0.(r) <- counts0.(r) + 1
  done;
  Alcotest.(check bool) "theta=0 roughly uniform" true
    (counts0.(0) < 3 * counts0.(50))

let test_streams () =
  let keys = [| 5; 6; 7 |] in
  let ops = Workload.take (Workload.inserts ~keys) 10 in
  Alcotest.(check int) "inserts bounded by keys" 3 (List.length ops);
  Alcotest.(check (list int)) "in order" [ 5; 6; 7 ]
    (List.map Workload.key_of ops);
  let rng = Rng.create 3 in
  let searches = Workload.take (Workload.searches rng ~keys ~count:20) 100 in
  Alcotest.(check int) "search count respected" 20 (List.length searches);
  List.iter
    (fun op ->
      match op with
      | Workload.Search k ->
        Alcotest.(check bool) "searched key known" true (Array.mem k keys)
      | _ -> Alcotest.fail "expected search")
    searches

let test_chunk () =
  let parts = Workload.chunk [| 1; 2; 3; 4; 5 |] ~parts:3 in
  Alcotest.(check int) "parts" 3 (Array.length parts);
  Alcotest.(check (list int)) "reassembles"
    [ 1; 2; 3; 4; 5 ]
    (Array.to_list parts |> List.concat_map Array.to_list);
  let empty_ok = Workload.chunk [| 1 |] ~parts:4 in
  Alcotest.(check int) "more parts than elements" 4 (Array.length empty_ok)

let test_partition () =
  let p = Partition.create ~procs:4 ~key_space:1000 in
  Alcotest.(check int) "owner of 0" 0 (Partition.owner p 0);
  Alcotest.(check int) "owner of 999" 3 (Partition.owner p 999);
  Alcotest.(check int) "clamp below" 0 (Partition.owner p (-5));
  Alcotest.(check int) "clamp above" 3 (Partition.owner p 123456);
  (* slices tile the key space *)
  let covered = ref 0 in
  for proc = 0 to 3 do
    let lo, hi = Partition.slice p proc in
    covered := !covered + (hi - lo);
    for k = lo to hi - 1 do
      if k mod 97 = 0 then
        Alcotest.(check int) "slice owner" proc (Partition.owner p k)
    done
  done;
  Alcotest.(check int) "slices tile key space" 1000 !covered;
  let open Dbtree_blink in
  Alcotest.(check (list int)) "full range -> everyone" [ 0; 1; 2; 3 ]
    (Partition.members_of_range p ~low:Bound.Neg_inf ~high:Bound.Pos_inf);
  Alcotest.(check (list int)) "one slice -> one proc" [ 1 ]
    (Partition.members_of_range p ~low:(Bound.Key 300) ~high:(Bound.Key 400));
  Alcotest.(check (list int)) "straddling -> both" [ 1; 2 ]
    (Partition.members_of_range p ~low:(Bound.Key 400) ~high:(Bound.Key 600))

let prop_members_contiguous =
  QCheck.Test.make ~name:"partition members form a contiguous interval"
    ~count:200
    QCheck.(pair (int_range 0 999) (int_range 1 999))
    (fun (lo, len) ->
      let open Dbtree_blink in
      let p = Partition.create ~procs:7 ~key_space:1000 in
      let hi = min 1000 (lo + len) in
      let members =
        Partition.members_of_range p ~low:(Bound.Key lo) ~high:(Bound.Key hi)
      in
      members <> []
      && List.for_all2
           (fun a b -> b = a + 1)
           (List.filteri (fun i _ -> i < List.length members - 1) members)
           (List.tl members))

let suite =
  [
    Alcotest.test_case "unique keys" `Quick test_unique_keys;
    Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "streams" `Quick test_streams;
    Alcotest.test_case "chunk" `Quick test_chunk;
    Alcotest.test_case "partition" `Quick test_partition;
    QCheck_alcotest.to_alcotest prop_members_contiguous;
  ]
