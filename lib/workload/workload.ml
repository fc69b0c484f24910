open Dbtree_sim

type op = Search of int | Insert of int * string | Delete of int

let key_of = function Search k | Insert (k, _) | Delete k -> k
let value_for k = Fmt.str "v%d" k

type stream = unit -> op option

let of_list ops =
  let remaining = ref ops in
  fun () ->
    match !remaining with
    | [] -> None
    | op :: rest ->
      remaining := rest;
      Some op

let empty () = None

let take stream n =
  let rec go n acc =
    if n = 0 then List.rev acc
    else match stream () with
      | None -> List.rev acc
      | Some op -> go (n - 1) (op :: acc)
  in
  go n []

let unique_keys rng ~key_space ~count =
  if count >= key_space - 1 then
    invalid_arg "Workload.unique_keys: count too large for key space";
  (* Sample without replacement via a hash set; fine while count is well
     below key_space (the experiments keep it under 10%). *)
  let seen = Hashtbl.create (2 * count) in
  let keys = Array.make count 0 in
  let filled = ref 0 in
  while !filled < count do
    let k = 1 + Rng.int rng (key_space - 1) in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      keys.(!filled) <- k;
      incr filled
    end
  done;
  keys

let zipf rng ~n ~theta =
  if n <= 0 then invalid_arg "Workload.zipf: n must be positive";
  if theta = 0.0 then fun () -> Rng.int rng n
  else begin
    (* Inverse-CDF over precomputed cumulative weights. *)
    let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) theta) in
    let cumulative = Array.make n 0.0 in
    let total = ref 0.0 in
    Array.iteri
      (fun i w ->
        total := !total +. w;
        cumulative.(i) <- !total)
      weights;
    let total = !total in
    fun () ->
      let x = Rng.float rng total in
      (* binary search for the first cumulative weight >= x *)
      let rec go lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if cumulative.(mid) < x then go (mid + 1) hi else go lo mid
      in
      go 0 (n - 1)
  end

let inserts ~keys =
  let i = ref 0 in
  fun () ->
    if !i >= Array.length keys then None
    else begin
      let k = keys.(!i) in
      incr i;
      Some (Insert (k, value_for k))
    end

let searches rng ~keys ~count =
  if Array.length keys = 0 then invalid_arg "Workload.searches: no keys";
  let left = ref count in
  fun () ->
    if !left <= 0 then None
    else begin
      decr left;
      Some (Search (Rng.pick rng keys))
    end

let skewed_searches rng ~keys ~theta ~count =
  if Array.length keys = 0 then
    invalid_arg "Workload.skewed_searches: no keys";
  let sample = zipf rng ~n:(Array.length keys) ~theta in
  let left = ref count in
  fun () ->
    if !left <= 0 then None
    else begin
      decr left;
      Some (Search keys.(sample ()))
    end

let chunk arr ~parts =
  if parts <= 0 then invalid_arg "Workload.chunk: parts must be positive";
  let n = Array.length arr in
  let base = n / parts and extra = n mod parts in
  let start = ref 0 in
  Array.init parts (fun i ->
      let len = base + if i < extra then 1 else 0 in
      let sub = Array.sub arr !start len in
      start := !start + len;
      sub)
