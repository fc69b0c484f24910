(* Calendar event queue: the simulator's replacement for a single binary
   heap on the per-event hot path.

   Near events — delay < [window] ticks, which covers every latency,
   retransmit timeout and balancer period the simulations use — go
   straight into a per-time bucket: an append, no sifting.  Within the
   active window [pos, pos + window) each slot corresponds to exactly one
   virtual time (slot = time mod window), so a bucket is a run of
   same-timestamp events in arrival order and popping is a pointer bump —
   same-time runs drain in a batch without touching any heap.

   Two small heaps remain, both off the per-event path:

   - [times]: a 4-ary min-heap of the *distinct* occupied bucket times.
     It is touched once per distinct timestamp (push when a bucket goes
     nonempty, pop when it drains), not once per event, so under load its
     cost amortizes across every event sharing a tick.
   - the overflow heap: events scheduled [window] or more ticks out,
     keyed by packed (time, seq) ints (see [pack]).  Whenever [pos]
     advances, everything with time < pos + window transfers into the
     ring.

   Ordering is byte-identical to the old global (time, insertion) heap:
   within a bucket, append order is schedule order; an overflow event for
   time T was scheduled at or before T - window, while any direct append
   to T's bucket happens at sim-time > T - window, and transfers run
   before the popped event executes — so transferred events always
   precede same-bucket direct appends, and same-time overflow entries
   transfer in packed-key (seq) order. *)

let window_bits = 11
let window = 1 lsl window_bits
let mask = window - 1

(* Packed overflow keys: key = (time lsl 31) lor seq, both components
   < 2^31, so integer comparison of keys is lexicographic comparison of
   (time, seq) and the whole key fits a 63-bit native int. *)
let seq_bits = 31
let max_time = 1 lsl seq_bits
let max_seq = 1 lsl seq_bits
let pack ~time ~seq = (time lsl seq_bits) lor seq
let time_of_key key = key lsr seq_bits

(* Typed events carry three ints and one boxed payload; [h] is the
   dispatcher's handler id.  [h = -1] marks a closure event: [o] is the
   (unit -> unit) itself and [a]/[b]/[c] are dead. *)
type cell = {
  mutable time : int;
  mutable h : int;
  mutable a : int;
  mutable b : int;
  mutable c : int;
  mutable o : Obj.t;
}

let null_obj = Obj.repr 0
let make_cell () = { time = 0; h = -1; a = 0; b = 0; c = 0; o = null_obj }

type bucket = {
  (* The first event lives inline in the record: a tick that receives a
     single event (the sparse common case — think timer chains) costs one
     cache line and zero array allocations.  The parallel arrays back
     entries 2..n of a same-timestamp batch; entry [i > 0] of the bucket
     is array slot [i - 1].  Field order matters: the seven fields a
     sparse append/pop touches come first so they share the record's
     initial cache line; the array pointers only load for batches. *)
  mutable blen : int;  (* entries appended (inline slot included) *)
  mutable bhead : int;  (* entries already popped *)
  mutable h0 : int;
  mutable a0 : int;
  mutable b0 : int;
  mutable c0 : int;
  mutable o0 : Obj.t;
  mutable bh : int array;
  mutable ba : int array;
  mutable bb : int array;
  mutable bc : int array;
  mutable bo : Obj.t array;
}

(* Overflow entries are rare (no default configuration schedules past the
   window), so boxing one record per far event is fine. *)
type entry = { eh : int; ea : int; eb : int; ec : int; eo : Obj.t }

let null_entry = { eh = -1; ea = 0; eb = 0; ec = 0; eo = null_obj }

type t = {
  buckets : bucket array;
  (* 4-ary min-heap of distinct occupied bucket times *)
  mutable tkeys : int array;
  mutable tsize : int;
  mutable pos : int;  (* last popped time; ring times lie in [pos, pos+window) *)
  mutable ring_count : int;
  (* overflow heap: packed (time, seq) keys, parallel entry payloads *)
  mutable okeys : int array;
  mutable oents : entry array;
  mutable osize : int;
  mutable oseq : int;  (* overflow insertions ever; the packed-clock budget *)
}

let create () =
  {
    buckets =
      Array.init window (fun _ ->
          {
            blen = 0;
            bhead = 0;
            h0 = -1;
            a0 = 0;
            b0 = 0;
            c0 = 0;
            o0 = null_obj;
            bh = [||];
            ba = [||];
            bb = [||];
            bc = [||];
            bo = [||];
          });
    tkeys = Array.make 16 0;
    tsize = 0;
    pos = 0;
    ring_count = 0;
    okeys = [||];
    oents = [||];
    osize = 0;
    oseq = 0;
  }

let length t = t.ring_count + t.osize
let is_empty t = t.ring_count = 0 && t.osize = 0
let overflow_seq t = t.oseq
let overflow_depth t = t.osize

(* ---- times heap (int keys, all distinct) ---- *)

let times_push t key =
  let cap = Array.length t.tkeys in
  if t.tsize = cap then begin
    (* dbperf: alloc-ok -- times-heap doubling, amortized O(1) per push *)
    let nk = Array.make (cap * 2) 0 in
    Array.blit t.tkeys 0 nk 0 t.tsize;
    t.tkeys <- nk
  end;
  let keys = t.tkeys in
  let i = ref t.tsize in
  t.tsize <- t.tsize + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let pk = Array.unsafe_get keys parent in
    if pk > key then begin
      Array.unsafe_set keys !i pk;
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set keys !i key

let times_min t = Array.unsafe_get t.tkeys 0

(* Drop the minimum (the caller just drained its bucket). *)
let times_pop t =
  let keys = t.tkeys in
  let n = t.tsize - 1 in
  t.tsize <- n;
  if n > 0 then begin
    let k = Array.unsafe_get keys n in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let base = (!i lsl 2) + 1 in
      if base >= n then continue := false
      else begin
        let last = if base + 3 < n then base + 3 else n - 1 in
        let c = ref base in
        let ck = ref (Array.unsafe_get keys base) in
        for j = base + 1 to last do
          let kj = Array.unsafe_get keys j in
          if kj < !ck then begin
            c := j;
            ck := kj
          end
        done;
        if !ck < k then begin
          Array.unsafe_set keys !i !ck;
          i := !c
        end
        else continue := false
      end
    done;
    Array.unsafe_set keys !i k
  end

(* ---- buckets ---- *)

(* Grow the array side, which holds [blen - 1] entries (the first entry
   is inline in the record). *)
let bucket_grow b =
  let cap = Array.length b.bh in
  let ncap = if cap = 0 then 4 else cap * 2 in
  let n = b.blen - 1 in
  (* dbperf: alloc-ok -- growth-path closure: [bucket_grow] runs only on a bucket doubling *)
  let gi src =
    (* dbperf: alloc-ok -- bucket doubling, amortized O(1) per append *)
    let a = Array.make ncap 0 in
    Array.blit src 0 a 0 n;
    a
  in
  b.bh <- gi b.bh;
  b.ba <- gi b.ba;
  b.bb <- gi b.bb;
  b.bc <- gi b.bc;
  (* dbperf: alloc-ok -- bucket doubling, amortized O(1) per append *)
  let o = Array.make ncap null_obj in
  Array.blit b.bo 0 o 0 n;
  b.bo <- o

let[@inline] bucket_append t ~time ~h ~a ~b ~c ~o =
  let bk = Array.unsafe_get t.buckets (time land mask) in
  let i = bk.blen in
  if i = 0 then begin
    bk.h0 <- h;
    bk.a0 <- a;
    bk.b0 <- b;
    bk.c0 <- c;
    bk.o0 <- o
  end
  else begin
    let j = i - 1 in
    if j = Array.length bk.bh then bucket_grow bk;
    Array.unsafe_set bk.bh j h;
    Array.unsafe_set bk.ba j a;
    Array.unsafe_set bk.bb j b;
    Array.unsafe_set bk.bc j c;
    Array.unsafe_set bk.bo j o
  end;
  bk.blen <- i + 1;
  t.ring_count <- t.ring_count + 1;
  if i = 0 then times_push t time

(* ---- overflow heap ---- *)

let over_push t ~key entry =
  let cap = Array.length t.okeys in
  if t.osize = cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    (* dbperf: alloc-ok -- overflow-heap doubling, amortized O(1) per far-scheduled event *)
    let nk = Array.make ncap 0 and ne = Array.make ncap null_entry in
    Array.blit t.okeys 0 nk 0 t.osize;
    Array.blit t.oents 0 ne 0 t.osize;
    t.okeys <- nk;
    t.oents <- ne
  end;
  let keys = t.okeys and ents = t.oents in
  let i = ref t.osize in
  t.osize <- t.osize + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    let pk = Array.unsafe_get keys parent in
    if pk > key then begin
      Array.unsafe_set keys !i pk;
      Array.unsafe_set ents !i (Array.unsafe_get ents parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set ents !i entry

let over_min_time t = time_of_key (Array.unsafe_get t.okeys 0)

let over_pop t =
  let keys = t.okeys and ents = t.oents in
  let time = time_of_key (Array.unsafe_get keys 0) in
  let e = Array.unsafe_get ents 0 in
  let n = t.osize - 1 in
  t.osize <- n;
  let k = Array.unsafe_get keys n in
  let en = Array.unsafe_get ents n in
  Array.unsafe_set ents n null_entry;
  if n > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let base = (!i lsl 2) + 1 in
      if base >= n then continue := false
      else begin
        let last = if base + 3 < n then base + 3 else n - 1 in
        let c = ref base in
        let ck = ref (Array.unsafe_get keys base) in
        for j = base + 1 to last do
          let kj = Array.unsafe_get keys j in
          if kj < !ck then begin
            c := j;
            ck := kj
          end
        done;
        if !ck < k then begin
          Array.unsafe_set keys !i !ck;
          Array.unsafe_set ents !i (Array.unsafe_get ents !c);
          i := !c
        end
        else continue := false
      end
    done;
    Array.unsafe_set keys !i k;
    Array.unsafe_set ents !i en
  end;
  (* dbperf: alloc-ok -- overflow transfer only: no default configuration schedules past the window *)
  (time, e)

(* Pull every overflow event now inside the window into its bucket.
   Runs right after [pos] advances and before the popped event executes,
   which is what keeps transferred events ahead of any same-bucket direct
   append (see the header comment). *)
let transfer t =
  let lim = t.pos + window in
  while t.osize > 0 && over_min_time t < lim do
    let time, e = over_pop t in
    bucket_append t ~time ~h:e.eh ~a:e.ea ~b:e.eb ~c:e.ec ~o:e.eo
  done

(* ---- scheduling ---- *)

let[@inline] schedule_typed t ~time ~h ~a ~b ~c ~o =
  if time - t.pos < window then bucket_append t ~time ~h ~a ~b ~c ~o
  else begin
    let key = pack ~time ~seq:t.oseq in
    t.oseq <- t.oseq + 1;
    (* dbperf: alloc-ok -- one boxed entry per far event; overflow is rare by design (see the type comment) *)
    over_push t ~key { eh = h; ea = a; eb = b; ec = c; eo = o }
  end

let schedule t ~time action =
  schedule_typed t ~time ~h:(-1) ~a:0 ~b:0 ~c:0 ~o:(Obj.repr action)

(* ---- popping ---- *)

let next_time t =
  let bk = Array.unsafe_get t.buckets (t.pos land mask) in
  if bk.bhead < bk.blen then t.pos
  else if t.ring_count > 0 then times_min t
  else if t.osize > 0 then over_min_time t
  else max_int

let[@inline] take t (bk : bucket) cell =
  let i = bk.bhead in
  cell.time <- t.pos;
  (* Clear the popped [o] slot so the closure/message is not retained. *)
  if i = 0 then begin
    cell.h <- bk.h0;
    cell.a <- bk.a0;
    cell.b <- bk.b0;
    cell.c <- bk.c0;
    cell.o <- bk.o0;
    bk.o0 <- null_obj
  end
  else begin
    let j = i - 1 in
    cell.h <- Array.unsafe_get bk.bh j;
    cell.a <- Array.unsafe_get bk.ba j;
    cell.b <- Array.unsafe_get bk.bb j;
    cell.c <- Array.unsafe_get bk.bc j;
    cell.o <- Array.unsafe_get bk.bo j;
    Array.unsafe_set bk.bo j null_obj
  end;
  bk.bhead <- i + 1;
  t.ring_count <- t.ring_count - 1;
  if bk.bhead = bk.blen then begin
    bk.bhead <- 0;
    bk.blen <- 0;
    times_pop t
  end

let pop_into t cell =
  (* Fast path: the bucket at the current time is still draining — the
     same-timestamp batch case, no heap contact at all. *)
  let bk = Array.unsafe_get t.buckets (t.pos land mask) in
  if bk.bhead < bk.blen then begin
    take t bk cell;
    true
  end
  else if t.ring_count = 0 && t.osize = 0 then false
  else begin
    (* Advance to the next occupied time.  Ring times always precede
       overflow times (transfer invariant), so the ring minimum wins
       whenever the ring is nonempty. *)
    if t.ring_count > 0 then t.pos <- times_min t
    else t.pos <- over_min_time t;
    if t.osize > 0 then transfer t;
    let bk = Array.unsafe_get t.buckets (t.pos land mask) in
    take t bk cell;
    true
  end
