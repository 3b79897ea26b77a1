(* Latency samples, kept off the OCaml heap.

   Every op's latency is stored as an int (nanoseconds) in a chain of
   Bigarray chunks, so a run with millions of samples neither inflates
   the [peak_heap_mb] it reports nor gives the GC extra work.  Each
   buffer has a single writer (one caller fiber); buffers are merged
   only after the run that filled them has ended. *)

open Bigarray

type chunk = (int, int_elt, c_layout) Array1.t

let chunk_len = 16384

type t = {
  mutable full : chunk list;  (* complete chunks, newest first *)
  mutable cur : chunk;
  mutable fill : int;
}

let new_chunk () = Array1.create int c_layout chunk_len

let create () = { full = []; cur = new_chunk (); fill = 0 }

let push t v =
  if t.fill = chunk_len then begin
    t.full <- t.cur :: t.full;
    t.cur <- new_chunk ();
    t.fill <- 0
  end;
  Array1.unsafe_set t.cur t.fill v;
  t.fill <- t.fill + 1

let length t = (List.length t.full * chunk_len) + t.fill

(* All samples of several buffers in one fresh off-heap array. *)
let merge ts =
  let n = List.fold_left (fun acc t -> acc + length t) 0 ts in
  let out = Array1.create int c_layout (max 1 n) in
  let pos = ref 0 in
  let blit c len =
    Array1.blit (Array1.sub c 0 len) (Array1.sub out !pos len);
    pos := !pos + len
  in
  List.iter
    (fun t ->
      List.iter (fun c -> blit c chunk_len) (List.rev t.full);
      if t.fill > 0 then blit t.cur t.fill)
    ts;
  (out, n)

(* Quickselect: after the call, [a.{k}] holds the value of rank [k]
   (0-based) among [a.{0..n-1}], smaller values before it, larger
   after.  Mutates [a]. *)
let select (a : chunk) n k =
  let swap i j =
    let x = Array1.unsafe_get a i in
    Array1.unsafe_set a i (Array1.unsafe_get a j);
    Array1.unsafe_set a j x
  in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    (* Median-of-three pivot, moved to [hi]. *)
    let mid = (!lo + !hi) / 2 in
    if a.{mid} < a.{!lo} then swap mid !lo;
    if a.{!hi} < a.{!lo} then swap !hi !lo;
    if a.{mid} < a.{!hi} then swap mid !hi;
    let pivot = a.{!hi} in
    let store = ref !lo in
    for i = !lo to !hi - 1 do
      if Array1.unsafe_get a i < pivot then begin
        swap i !store;
        incr store
      end
    done;
    swap !store !hi;
    if k = !store then (lo := k; hi := k)
    else if k < !store then hi := !store - 1
    else lo := !store + 1
  done

(* Nearest-rank percentile: the smallest sample such that at least
   [p] of all [n] samples are at or below it (rank [ceil (p * n)]).
   [p] is a fraction in (0, 1]; mutates the order of [a]. *)
let percentile (a : chunk) n p =
  if n <= 0 then invalid_arg "Samples.percentile: no samples";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  let k = min (n - 1) (max 0 (rank - 1)) in
  select a n k;
  a.{k}

(* {1 Sub-windows}

   A segment's window is cut into sub-windows of [bucket_ns], and each
   op falls into the sub-window in which it completed.  Throughput and
   latency percentiles are medians over all the run's sub-windows: a
   host hiccup of a few tens of milliseconds then spoils one sub-window
   instead of the tail of a whole segment.  Ops that complete after the
   last full sub-window (the drain) are not counted there. *)

let bucket_ns = 250_000_000

type bucket = { b_ops : int; b_width_s : float; b_p50 : int; b_p99 : int }

(* [lat] and [fin] hold each op's latency and completion time, in the
   same order; the window starts at [t0] and lasts [window_ns]. *)
let buckets ~t0 ~window_ns ~lat ~fin =
  let lat, n = merge lat and fin, _ = merge fin in
  let width = min bucket_ns window_ns in
  let nb = window_ns / width in
  let bucket_of i =
    let d = fin.{i} - t0 in
    if d < 0 then -1 else d / width
  in
  let counts = Array.make nb 0 in
  for i = 0 to n - 1 do
    let b = bucket_of i in
    if b >= 0 && b < nb then counts.(b) <- counts.(b) + 1
  done;
  (* Counting sort of the latencies by sub-window. *)
  let offs = Array.make (nb + 1) 0 in
  for b = 0 to nb - 1 do
    offs.(b + 1) <- offs.(b) + counts.(b)
  done;
  let by_bucket = Array1.create int c_layout (max 1 offs.(nb)) in
  let pos = Array.sub offs 0 nb in
  for i = 0 to n - 1 do
    let b = bucket_of i in
    if b >= 0 && b < nb then begin
      by_bucket.{pos.(b)} <- lat.{i};
      pos.(b) <- pos.(b) + 1
    end
  done;
  List.init nb (fun b ->
      let c = counts.(b) in
      let pct p =
        if c = 0 then 0
        else percentile (Array1.sub by_bucket offs.(b) c) c p
      in
      { b_ops = c; b_width_s = float_of_int width *. 1e-9; b_p50 = pct 0.50; b_p99 = pct 0.99 })
