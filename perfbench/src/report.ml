(* From segments and recorded spans to named metrics. *)

module W = Workloads

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The value of rank [ceil (p * n)] among [xs] (nearest rank). *)
let quantile p = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let total segs f = List.fold_left (fun acc s -> acc + f s) 0 segs

let ratio a b = if b = 0.0 then 0.0 else a /. b

let fi = float_of_int

let throughput (s : W.segment) = ratio (fi s.W.ops) s.W.wall_s

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024.0 *. 1024.0)

(* The end-to-end metrics of an untraced run.  Throughput and p50 are
   medians over sub-windows.  p99 is the lower quartile over
   sub-windows of each sub-window's p99: the tail amplifies whatever the
   host takes away (on [storm], a descheduled vCPU stalls both domains
   at the next stop-the-world minor collection), and on a shared host
   the median of p99 moved by more than a quarter between runs while
   its lower quartile moved by half as much.  CPU cost is a median over
   segments; message and byte counts are totals over all segments.  The failure
   share is reported as its complement, [success_ratio] = 1 -
   fail_ratio, so that the metric is never 0; the result line's
   [attempted] and [failed] carry the same numbers. *)
let end_to_end (segs : W.segment list) =
  let live = List.filter (fun s -> s.W.ops > 0) segs in
  let ops = fi (total segs (fun s -> s.W.ops)) in
  let failed = fi (total segs (fun s -> s.W.failed)) in
  let bs = List.concat_map (fun s -> s.W.buckets) segs in
  let busy = List.filter (fun b -> b.Samples.b_ops > 0) bs in
  let us stat f = stat (List.map (fun b -> fi (f b) /. 1e3) busy) in
  [
    m "throughput_ops_s" "ops/s"
      (median (List.map (fun b -> fi b.Samples.b_ops /. b.Samples.b_width_s) bs));
    m "success_ratio" "ratio" (ratio ops (ops +. failed));
    m "latency_p50_us" "us" (us median (fun b -> b.Samples.b_p50));
    m "latency_p99_us" "us" (us (quantile 0.25) (fun b -> b.Samples.b_p99));
    m "msgs_per_op" "msgs/op" (ratio (fi (total segs (fun s -> s.W.msgs))) ops);
    m "wire_bytes_per_op" "B/op"
      (ratio (fi (total segs (fun s -> s.W.wire_bytes))) ops);
    m "cpu_us_per_op" "us/op"
      (median (List.map (fun s -> s.W.cpu_s *. 1e6 /. fi s.W.ops) live));
    m "peak_heap_mb" "MiB" (peak_heap_mb ());
    m "setup_s" "s" (median (List.map (fun s -> s.W.setup_s) segs));
  ]

(* {1 Traced runs} *)

(* Span sums over every traced segment, per span name. *)
type layers = {
  dur : float array;  (** total duration, ns *)
  self : float array;  (** total self time, ns *)
  cnt : int array;
  mutable roots_main : float;
      (** nested spans with no parent on the main domain: the part of the
          drive loop's wall time that some layer accounts for *)
  mutable spans : int;
  mutable misnested : int;
  mutable pickle_bytes : int;
  mutable pickle_alloc : float;
  mutable pumps : int;
  mutable empty_pumps : int;
  mutable segs : W.segment list;
}

let new_layers () =
  {
    dur = Array.make Spans.n_names 0.0;
    self = Array.make Spans.n_names 0.0;
    cnt = Array.make Spans.n_names 0;
    roots_main = 0.0;
    spans = 0;
    misnested = 0;
    pickle_bytes = 0;
    pickle_alloc = 0.0;
    pumps = 0;
    empty_pumps = 0;
    segs = [];
  }

let detached name =
  name = Spans.op || name = Spans.stub_call || name = Spans.ref_wait

(* Fold the spans of the segment just traced into [l]. *)
let add_traced l (seg : W.segment) =
  l.segs <- seg :: l.segs;
  let main = (Domain.self () :> int) in
  List.iter
    (fun (b : Spans.buf) ->
      let n = Spans.count b in
      let self =
        Spans.self_times n ~start:(Spans.start_of b) ~stop:(Spans.stop_of b)
          ~parent:(Spans.parent_of b)
      in
      for i = 0 to n - 1 do
        let s = Spans.start_of b i and e = Spans.stop_of b i in
        if e >= s then begin
          let k = Spans.name_of b i in
          let d = fi (e - s) in
          l.dur.(k) <- l.dur.(k) +. d;
          l.self.(k) <- l.self.(k) +. fi self.(i);
          l.cnt.(k) <- l.cnt.(k) + 1;
          if b.Spans.dom = main && Spans.parent_of b i < 0 && not (detached k)
          then l.roots_main <- l.roots_main +. d
        end
      done;
      l.spans <- l.spans + n;
      l.misnested <- l.misnested + b.Spans.misnested;
      l.pickle_bytes <- l.pickle_bytes + b.Spans.pickle_bytes;
      l.pickle_alloc <- l.pickle_alloc +. b.Spans.pickle_alloc_words;
      l.pumps <- l.pumps + b.Spans.pumps;
      l.empty_pumps <- l.empty_pumps + b.Spans.empty_pumps)
    (Spans.buffers ())

(* The per-layer metrics.  [untraced] are the same run's untraced
   segments, the base of [trace.overhead]. *)
let per_layer l ~untraced =
  let segs = l.segs in
  let ops = fi (total segs (fun s -> s.W.ops)) in
  let per_op x = ratio x ops in
  let tot f = fi (total segs f) in
  let recv k = Spans.recv_of_kind k in
  let per_msg k = ratio l.dur.(recv k) (fi l.cnt.(recv k)) in
  let recv_self =
    let acc = ref 0.0 in
    Array.iteri (fun j _ -> acc := !acc +. l.self.(Spans.recv_base + j)) Spans.recv_kinds;
    !acc
  in
  let wall_s = List.fold_left (fun acc s -> acc +. s.W.wall_s) 0.0 segs in
  let cpu_s = List.fold_left (fun acc s -> acc +. s.W.cpu_s) 0.0 segs in
  let pool = List.fold_left (fun acc s -> max acc s.W.pool) 1 segs in
  let frames = tot (fun s -> s.W.frames) in
  [
    m "pickle.encode_ns_per_op" "ns/op" (per_op l.self.(Spans.pickle_encode));
    m "pickle.decode_ns_per_op" "ns/op" (per_op l.self.(Spans.pickle_decode));
    m "pickle.bytes_per_op" "B/op" (per_op (fi l.pickle_bytes));
    m "pickle.alloc_words_per_op" "words/op" (per_op l.pickle_alloc);
    m "runtime.recv_ns_per_msg.call" "ns/msg" (per_msg "call");
    m "runtime.recv_ns_per_msg.reply" "ns/msg" (per_msg "reply");
    m "runtime.recv_self_ns_per_op" "ns/op" (per_op recv_self);
    m "runtime.recv_ns_per_msg.dirty" "ns/msg" (per_msg "dirty");
    m "runtime.recv_ns_per_msg.dirty_ack" "ns/msg" (per_msg "dirty_ack");
    m "runtime.recv_ns_per_msg.copy_ack" "ns/msg" (per_msg "copy_ack");
    m "runtime.recv_ns_per_msg.clean" "ns/msg" (per_msg "clean");
    m "runtime.recv_ns_per_msg.clean_ack" "ns/msg" (per_msg "clean_ack");
    m "runtime.ref_wait_us_per_op" "us/op" (per_op l.dur.(Spans.ref_wait) /. 1e3);
    m "runtime.collect_ns_per_op" "ns/op" (per_op l.dur.(Spans.collect));
    m "runtime.gc_msgs_per_op" "msgs/op" (per_op (tot (fun s -> s.W.gc_msgs)));
    m "runtime.retries" "count" (tot (fun s -> s.W.retries));
    m "runtime.residual_objects" "count" (tot (fun s -> s.W.residual));
    m "transport.post_ns_per_op" "ns/op" (per_op l.dur.(Spans.t_post));
    m "transport.flush_ns_per_op" "ns/op" (per_op l.dur.(Spans.t_flush));
    m "transport.pump_ns_per_op" "ns/op" (per_op l.dur.(Spans.t_pump));
    m "transport.empty_pump_ratio" "ratio" (ratio (fi l.empty_pumps) (fi l.pumps));
    m "transport.frames_per_op" "frames/op" (per_op frames);
    m "transport.msgs_per_frame" "msgs/frame"
      (if frames = 0.0 then 0.0 else ratio (tot (fun s -> s.W.msgs)) frames);
    m "transport.dropped" "count" (tot (fun s -> s.W.dropped));
    m "transport.reconnects" "count" (tot (fun s -> s.W.reconnects));
    m "sched.run_ns_per_op" "ns/op" (per_op l.dur.(Spans.sched_run));
    m "sched.self_ns_per_op" "ns/op" (per_op l.self.(Spans.sched_run));
    m "sched.slices_per_op" "slices/op" (per_op (tot (fun s -> s.W.slices)));
    m "sched.idle_ticks" "count" (tot (fun s -> s.W.idle_ticks));
    m "engine.cpu_util" "ratio" (ratio cpu_s (wall_s *. fi pool));
    m "engine.hub_msgs_per_op" "msgs/op" (per_op (tot (fun s -> s.W.hub_msgs)));
    m "engine.episodes" "count" (tot (fun s -> s.W.episodes));
    m "app.method_ns_per_op" "ns/op" (per_op l.self.(Spans.app));
    m "gc.minor_words_per_op" "words/op"
      (per_op (List.fold_left (fun acc s -> acc +. s.W.minor_words) 0.0 segs));
    m "gc.major_collections" "count" (tot (fun s -> s.W.major_collections));
    m "trace.overhead" "ratio"
      (ratio
         (median (List.map throughput untraced))
         (median (List.map throughput segs))
      -. 1.0);
    m "trace.unattributed_share" "ratio"
      (1.0 -. ratio l.roots_main (wall_s *. 1e9));
  ]

(* {1 Output} *)

(* JSON has no NaN or infinity; a metric that could not be computed
   (no ops at all) prints as 0, which the run's [correct] flag and
   [failed] count already explain. *)
let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
          (json_number x.value) (json_string x.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " ms)
