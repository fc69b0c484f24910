type kind = Search | Insert | Delete | Scan

type record = {
  id : int;
  kind : kind;
  key : int;
  value : Msg.value option;
  origin : Msg.pid;
  issued_at : int;
  mutable completed_at : int option;
  mutable result : Msg.op_result option;
}

(* Operation ids are this registry's own dense counter, so the record
   map is an arena — a flat array indexed by op id, grown by doubling.
   Completion (two probes per op on the reply path) is a bounds check
   and a load. *)
type t = {
  mutable arr : record option array;
  mutable next : int;
  mutable completed : int;
  mutable oldest : int;  (* scan cursor: every op below it is complete *)
  mutable hook : (record -> unit) option;
  mutable tolerate_duplicates : bool;
  mutable duplicate_completions : int;
}

let create () =
  {
    arr = Array.make 1024 None;
    next = 0;
    completed = 0;
    oldest = 0;
    hook = None;
    tolerate_duplicates = false;
    duplicate_completions = 0;
  }

let set_tolerant t = t.tolerate_duplicates <- true
let duplicate_completions t = t.duplicate_completions

let register t ~kind ~key ~value ~origin ~now =
  let r =
    {
      id = t.next;
      kind;
      key;
      value;
      origin;
      issued_at = now;
      completed_at = None;
      result = None;
    }
  in
  t.next <- t.next + 1;
  if r.id >= Array.length t.arr then begin
    let arr' = Array.make (2 * Array.length t.arr) None in
    Array.blit t.arr 0 arr' 0 (Array.length t.arr);
    t.arr <- arr'
  end;
  t.arr.(r.id) <- Some r;
  r

let find t op =
  if op >= 0 && op < t.next then t.arr.(op) else None

let complete t ~op ~result ~now =
  match find t op with
  | None -> Fmt.failwith "Opstate.complete: unknown operation %d" op
  | Some r when r.completed_at <> None ->
    if t.tolerate_duplicates then
      t.duplicate_completions <- t.duplicate_completions + 1
    else Fmt.failwith "Opstate.complete: operation %d completed twice" op
  | Some r ->
    r.completed_at <- Some now;
    r.result <- Some result;
    t.completed <- t.completed + 1;
    match t.hook with Some f -> f r | None -> ()

let on_complete t f = t.hook <- Some f
let issued t = t.next
let completed t = t.completed
let outstanding t = t.next - t.completed

(* Age of the oldest still-outstanding op — the stall-duration telemetry
   signal.  The cursor only moves forward (ids complete roughly in issue
   order), so the scan is amortized O(1) per call across a run. *)
let oldest_outstanding_age t ~now =
  while
    t.oldest < t.next
    &&
    match t.arr.(t.oldest) with
    | Some r -> r.completed_at <> None
    | None -> true
  do
    t.oldest <- t.oldest + 1
  done;
  if t.oldest >= t.next then 0
  else
    match t.arr.(t.oldest) with
    | Some r -> now - r.issued_at
    | None -> 0

(* Ascending op id — the issue order, which is what [sorted_bindings]
   over the pre-arena hash table produced. *)
let iter t f =
  for i = 0 to t.next - 1 do
    match t.arr.(i) with None -> () | Some r -> f r
  done

let inserted_keys t =
  (* Replay completed updates in issue order; experiments avoid racing
     updates on the same key, so issue order is the semantic order. *)
  let keys = Hashtbl.create 256 in
  iter t (fun r ->
      match (r.kind, r.result) with
      | Insert, Some Msg.Inserted ->
        Hashtbl.replace keys r.key (Option.value r.value ~default:"")
      | Delete, Some (Msg.Removed true) -> Hashtbl.remove keys r.key
      | (Search | Insert | Delete | Scan), _ -> ());
  keys

let latencies t kind =
  let acc = ref [] in
  iter t (fun r ->
      match r.completed_at with
      | Some c when r.kind = kind -> acc := (c - r.issued_at) :: !acc
      | Some _ | None -> ());
  List.rev !acc

let mean_latency t kind =
  match latencies t kind with
  | [] -> 0.0
  | l ->
    float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

let latency_percentile t kind p =
  if p < 0.0 || p > 1.0 then invalid_arg "Opstate.latency_percentile";
  match List.sort compare (latencies t kind) with
  | [] -> 0.0
  | l ->
    (* Nearest-rank: the p-th percentile of n samples is the value at rank
       ceil(p*n) (1-based).  Truncating instead of rounding up biases every
       percentile low — p99 of 100 samples used to read sample 98. *)
    let arr = Array.of_list l in
    let n = Array.length arr in
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    let i = max 0 (min (n - 1) (rank - 1)) in
    float_of_int arr.(i)
