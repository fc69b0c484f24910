type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
}

type counter = int ref

(* Log-bucketed histogram: 16 sub-buckets per octave (<= 6.25% relative
   error on percentiles), values below 16 bucketed exactly.  Observation
   is branch + shift + two array ops — cheap enough for hot paths, and
   it keeps the whole latency distribution (p50/p90/p99, not just the
   count/sum/min/max a [summary] reports).

   The bucketing scheme itself lives in [Dbtree_obs.Logbucket] so the
   telemetry plane's window sketches index the same bucket space. *)

module Logbucket = Dbtree_obs.Logbucket

let num_buckets = Logbucket.num_buckets

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : int;
  mutable h_max : int;
  buckets : int array;
}

let bucket_index = Logbucket.index
let bucket_lower = Logbucket.lower

type t = {
  counters : (string, int ref) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 64; hists = Hashtbl.create 16 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.counters name r;
    r

(* [Stdlib.incr] written out: a bare [incr] reads as the 2-argument
   [Stats.incr] below, which would be a closure per tick. *)
let tick (c : counter) = Stdlib.incr c
let add (c : counter) by = c := !c + by
let value (c : counter) = !c
let incr ?(by = 1) t name = add (counter t name) by

let get t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
    let h =
      {
        h_count = 0;
        h_sum = 0.0;
        h_min = max_int;
        h_max = 0;
        buckets = Array.make num_buckets 0;
      }
    in
    Hashtbl.add t.hists name h;
    h

let hist_observe h v =
  let v = if v < 0 then 0 else v in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. float_of_int v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_index v in
  h.buckets.(i) <- h.buckets.(i) + 1

let hist_count h = h.h_count
let hist_sum h = h.h_sum
let hist_min h = if h.h_count = 0 then 0 else h.h_min
let hist_max h = h.h_max

let hist_mean h =
  if h.h_count = 0 then 0.0 else h.h_sum /. float_of_int h.h_count

(* Nearest-rank percentile over bucket lower bounds, clamped into the
   exact [min, max] so p0/p100 are not distorted by bucket rounding. *)
let hist_percentile h p =
  if h.h_count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let rec walk i seen =
      if i >= num_buckets then h.h_max
      else
        let seen = seen + h.buckets.(i) in
        if seen >= rank then bucket_lower i else walk (i + 1) seen
    in
    (* The top rank is the maximum itself — report it exactly. *)
    let v = if rank = h.h_count then h.h_max else walk 0 0 in
    if v < h.h_min then h.h_min else if v > h.h_max then h.h_max else v
  end

let hist_to_summary h =
  {
    count = h.h_count;
    sum = h.h_sum;
    min = float_of_int (hist_min h);
    max = float_of_int h.h_max;
  }

let summary t name =
  match Hashtbl.find_opt t.hists name with
  | Some h when h.h_count > 0 -> Some (hist_to_summary h)
  | _ -> None

let mean s = if s.count = 0 then 0.0 else s.sum /. float_of_int s.count

(* The one sanctioned way to walk a hash table outside [Rng]/bench code:
   materialize the bindings and sort them by key, so iteration order never
   depends on the table's bucket layout (which would leak into schedules,
   reports and regressions under randomized hashing or a stdlib change).
   Keys are assumed unique per table, as [Hashtbl.replace]-style use
   guarantees. *)
let sorted_bindings tbl =
  (* dblint: allow no-nondeterminism -- this is the sorted-keys helper itself: the unordered fold feeds an immediate sort *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Interned counters exist from the moment they are resolved, before any
   increment; listings skip the still-zero ones so pre-interning is
   invisible in reports. *)
let counters t =
  sorted_bindings t.counters
  |> List.filter_map (fun (k, r) -> if !r <> 0 then Some (k, !r) else None)

(* Live handles, still-zero ones included — telemetry registers these
   once and reads the refs directly on every scrape. *)
let counter_handles t = sorted_bindings t.counters

let hists t =
  sorted_bindings t.hists |> List.filter (fun (_, h) -> h.h_count > 0)

let summaries t = List.map (fun (k, h) -> (k, hist_to_summary h)) (hists t)

let get_prefix t p =
  let plen = String.length p in
  List.fold_left
    (fun acc (k, r) ->
      if String.length k >= plen && String.sub k 0 plen = p then acc + !r
      else acc)
    0
    (sorted_bindings t.counters)

let reset t =
  (* Zero in place: interned counter handles must stay live across a
     reset, so the refs are kept and only their contents dropped. *)
  (* dblint: allow no-nondeterminism -- zeroing refs in place is order-insensitive *)
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  (* Histogram handles stay live across a reset, like counters. *)
  (* dblint: allow no-nondeterminism -- zeroing hists in place is order-insensitive *)
  Hashtbl.iter
    (fun _ h ->
      h.h_count <- 0;
      h.h_sum <- 0.0;
      h.h_min <- max_int;
      h.h_max <- 0;
      Array.fill h.buckets 0 num_buckets 0)
    t.hists

let pp ppf t =
  List.iter (fun (k, v) -> Fmt.pf ppf "%s = %d@." k v) (counters t);
  List.iter
    (fun (k, s) ->
      Fmt.pf ppf "%s: n=%d mean=%.2f min=%.2f max=%.2f@." k s.count (mean s)
        s.min s.max)
    (summaries t);
  List.iter
    (fun (k, h) ->
      Fmt.pf ppf "%s: p50=%d p90=%d p99=%d@." k (hist_percentile h 50.0)
        (hist_percentile h 90.0) (hist_percentile h 99.0))
    (hists t)
