(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, op): start and end come from
   {!Mclock}, [parent] is the span that was open on the same domain when
   this one began, and [op] is the workload op it belongs to where the
   benchmark can see one (-1 otherwise).  Spans live in per-domain
   buffers of off-heap chunks; nothing is aggregated while the workload
   runs, everything is computed from the stored spans afterwards.

   Two kinds of span:
   - {e nested} spans ({!enter}/{!leave}) never block: a drive-loop
     slice, a transport call, a delivery handler, a codec, a method
     body.  Each domain keeps a stack of them, which gives the parent.
   - {e detached} spans ({!record}) cover work that blocks and resumes
     in other slices — an op, a [Stub.call], the wait for a reference's
     dirty round trip.  They have no parent and are never parents.

   Recording is off unless {!start} was called; when a buffer reaches
   [capacity] spans recording stops and {!full} turns true, which the
   workloads treat as the end of the traced window. *)

open Bigarray

(* {1 Names} *)

let sched_run = 0
let t_pump = 1
let t_post = 2
let t_flush = 3
let pickle_encode = 4
let pickle_decode = 5
let ref_encode = 6
let ref_decode = 7
let app = 8
let collect = 9
let op = 10
let stub_call = 11
let ref_wait = 12
let recv_base = 13

let recv_kinds =
  [| "call"; "reply"; "dirty"; "dirty_ack"; "copy_ack"; "clean"; "clean_ack";
     "other" |]

let names =
  Array.append
    [| "sched.run"; "transport.pump"; "transport.post"; "transport.flush";
       "pickle.encode"; "pickle.decode"; "runtime.ref_encode";
       "runtime.ref_decode"; "app"; "runtime.collect"; "op"; "stub.call";
       "runtime.ref_wait" |]
    (Array.map (fun k -> "runtime.recv." ^ k) recv_kinds)

let n_names = Array.length names

let recv_of_kind = function
  | "call" -> recv_base
  | "reply" -> recv_base + 1
  | "dirty" -> recv_base + 2
  | "dirty_ack" -> recv_base + 3
  | "copy_ack" -> recv_base + 4
  | "clean" -> recv_base + 5
  | "clean_ack" -> recv_base + 6
  | _ -> recv_base + 7

(* {1 Buffers} *)

type chunk = (int, int_elt, c_layout) Array1.t

(* Four ints per span: [name lor ((op + 1) lsl 8)], start, end, parent. *)
let chunk_spans = 65536

type buf = {
  gen : int;
  dom : int;
  mutable chunks : chunk array;
  mutable n : int;
  mutable stack : int list;
  mutable misnested : int;
  (* Layer counters that are not durations, kept beside the spans of
     the domain that produced them. *)
  mutable pickle_bytes : int;
  mutable pickle_alloc_words : float;
  mutable pumps : int;
  mutable empty_pumps : int;
}

let capacity = ref 600_000

let active = Atomic.make false

let full_flag = Atomic.make false

let generation = Atomic.make 0

let lock = Mutex.create ()

let registry : buf list ref = ref []

let fresh () =
  let b =
    {
      gen = Atomic.get generation;
      dom = (Domain.self () :> int);
      chunks = [||];
      n = 0;
      stack = [];
      misnested = 0;
      pickle_bytes = 0;
      pickle_alloc_words = 0.0;
      pumps = 0;
      empty_pumps = 0;
    }
  in
  Mutex.lock lock;
  registry := b :: !registry;
  Mutex.unlock lock;
  b

let key : buf option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* This domain's buffer for the current generation. *)
let buf () =
  let r = Domain.DLS.get key in
  match !r with
  | Some b when b.gen = Atomic.get generation -> b
  | _ ->
      let b = fresh () in
      r := Some b;
      b

let on () = Atomic.get active

let full () = Atomic.get full_flag

(* Chunks of earlier generations, kept for reuse: a traced segment
   allocates its span storage once per run, not once per segment, so
   later segments do not pay for large off-heap allocations (which also
   speed up the major GC) while they measure. *)
let spare : chunk list ref = ref []

(* Drop every recorded span and counter.  Only called while no domain
   is recording. *)
let reset () =
  Atomic.set active false;
  Atomic.set full_flag false;
  Atomic.incr generation;
  Mutex.lock lock;
  List.iter (fun b -> spare := Array.to_list b.chunks @ !spare) !registry;
  registry := [];
  Mutex.unlock lock

let start () = Atomic.set active true

let stop () = Atomic.set active false

let buffers () =
  Mutex.lock lock;
  let g = Atomic.get generation in
  let bs = List.filter (fun b -> b.gen = g) !registry in
  Mutex.unlock lock;
  List.sort (fun a b -> compare a.dom b.dom) bs

let slot b i =
  let c = i / chunk_spans in
  if c >= Array.length b.chunks then begin
    Mutex.lock lock;
    let fresh =
      match !spare with
      | x :: rest ->
          spare := rest;
          x
      | [] -> Array1.create int c_layout (4 * chunk_spans)
    in
    Mutex.unlock lock;
    b.chunks <- Array.append b.chunks [| fresh |]
  end;
  (b.chunks.(c), 4 * (i mod chunk_spans))

(* Allocate a span slot, or -1 once the buffer is at capacity. *)
let alloc b =
  if b.n >= !capacity then begin
    Atomic.set full_flag true;
    -1
  end
  else begin
    let i = b.n in
    b.n <- i + 1;
    i
  end

let enter name ~op =
  if not (Atomic.get active) then -1
  else
    let b = buf () in
    let i = alloc b in
    if i >= 0 then begin
      let c, j = slot b i in
      c.{j} <- name lor ((op + 1) lsl 8);
      c.{j + 2} <- 0;
      c.{j + 3} <- (match b.stack with p :: _ -> p | [] -> -1);
      b.stack <- i :: b.stack;
      c.{j + 1} <- Mclock.now_ns ()
    end;
    i

let leave i =
  if i >= 0 then begin
    let t = Mclock.now_ns () in
    let b = buf () in
    let c, j = slot b i in
    c.{j + 2} <- t;
    match b.stack with
    | top :: rest when top = i -> b.stack <- rest
    | st ->
        (* A nested span outlived one opened after it: the code inside
           blocked.  Keep the stack consistent and count the event. *)
        b.misnested <- b.misnested + 1;
        b.stack <- List.filter (fun k -> k <> i) st
  end

let with_span name ~op f =
  let i = enter name ~op in
  match f () with
  | v ->
      leave i;
      v
  | exception e ->
      leave i;
      raise e

(* Attach an op number learnt after the span opened (a decoded value). *)
let set_op i op =
  if i >= 0 && op >= 0 then begin
    let c, j = slot (buf ()) i in
    c.{j} <- (c.{j} land 0xff) lor ((op + 1) lsl 8)
  end

let record name ~op ~start ~stop =
  if Atomic.get active then begin
    let b = buf () in
    let i = alloc b in
    if i >= 0 then begin
      let c, j = slot b i in
      c.{j} <- name lor ((op + 1) lsl 8);
      c.{j + 1} <- start;
      c.{j + 2} <- stop;
      c.{j + 3} <- -1
    end
  end

(* {1 Reading spans back} *)

let count b = b.n

let field b i k =
  let c, j = slot b i in
  c.{j + k}

let name_of b i = field b i 0 land 0xff

let op_of b i = (field b i 0 lsr 8) - 1

let start_of b i = field b i 1

let stop_of b i = field b i 2

let parent_of b i = field b i 3

(* Self time of every span: its duration minus the part of its interval
   that its children cover.  Children may overlap each other and may
   stick out of their parent; only the union of their intervals,
   clipped to the parent, is subtracted.  Requires spans numbered in
   order of start time (the recorder numbers nested spans as they
   open).  Spans with [stop < start] never closed and get 0. *)
let self_times n ~start ~stop ~parent =
  let covered = Array.make n 0 and cov_end = Array.make n min_int in
  let closed i = stop i >= start i in
  for i = 0 to n - 1 do
    let p = parent i in
    if p >= 0 && closed i && closed p then begin
      let s = max (start i) (max (start p) cov_end.(p)) in
      let e = min (stop i) (stop p) in
      if e > s then covered.(p) <- covered.(p) + (e - s);
      if e > cov_end.(p) then cov_end.(p) <- e
    end
  done;
  Array.init n (fun i -> if closed i then stop i - start i - covered.(i) else 0)

(* Write every span of the current generation as tab-separated lines. *)
let dump oc =
  output_string oc "domain\tid\tname\top\tstart_ns\tend_ns\tparent\n";
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" b.dom i
          names.(name_of b i) (op_of b i) (start_of b i) (stop_of b i)
          (parent_of b i)
      done)
    (buffers ())
