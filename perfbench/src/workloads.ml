(* The three closed-loop workloads.  Every caller fiber waits for its
   reply before issuing its next op.  A workload runs as a sequence of
   {e segments}: each builds a fresh runtime (timed as set-up: runtime
   creation, socket binds, lookups and a fixed warm-up), measures one
   window of ops, drains to quiescence, checks the program's outputs and
   tears down.

   - [echo]: loopback TCP, owner space 0 and one pure-client space
     (no listener, replies ride the learned return route: one
     connection); 4 fibers call [incr] on one warm surrogate.
   - [workqueue]: loopback TCP, master space 0 and two pure-client
     worker spaces (two connections), 2 fibers each; one op is one task
     — pull a freshly minted Task reference, fetch its 1024-int input,
     complete it with the checksum, release it and collect.
   - [storm]: [Engine_domains] with 2 domains, a ring of 4 spaces with
     8 fibers each calling the next space's counter; no sockets, no
     references. *)

module R = Netobj_core.Runtime
module Stub = Netobj_core.Stub
module Pickle = Netobj_pickle.Pickle
module Sched = Netobj_sched.Sched
module Transport = Netobj_transport.Transport
module Tcp = Netobj_transport.Tcp
module Frame = Netobj_transport.Frame
module Engine_domains = Netobj_engine.Engine_domains

type segment = {
  setup_s : float;
  ops : int;  (** completed ops in the window *)
  failed : int;  (** ops that raised, timed out or returned a wrong result *)
  wall_s : float;
  cpu_s : float;  (** process user + system time over the window *)
  buckets : Samples.bucket list;  (** the window's sub-windows *)
  samples : int;  (** latency samples taken (completed ops) *)
  msgs : int;  (** logical messages sent during the window and its drain *)
  wire_bytes : int;  (** payload bytes plus framing *)
  frames : int;  (** physical payloads handed to the wire *)
  dropped : int;
  reconnects : int;
  gc_msgs : int;  (** dirty, dirty_ack, copy_ack, clean, clean_ack *)
  retries : int;
  residual : int;  (** objects minted by the workload still resident *)
  hub_msgs : int;
  episodes : int;
  slices : int;  (** [R.run] calls by the drive loop *)
  idle_ticks : int;
  minor_words : float;
  major_collections : int;
  pool : int;  (** worker domains driving the engine *)
  cross_shard_share : float;
  checks : string list;  (** failed correctness checks; empty = correct *)
}

let loopback = "127.0.0.1"

(* {1 Shared machinery} *)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type window = { t0 : int; cpu0 : float; minor0 : float; major0 : int }

let open_window () =
  {
    t0 = Mclock.now_ns ();
    cpu0 = cpu_now ();
    minor0 = Gc.minor_words ();
    major0 = (Gc.quick_stat ()).Gc.major_collections;
  }

type caller = {
  lat : Samples.t;
  fin : Samples.t;
  mutable ok : int;
  mutable bad : int;
  mutable running : bool;
}

let new_caller () =
  { lat = Samples.create (); fin = Samples.create (); ok = 0; bad = 0; running = true }

exception Wrong_result of string

(* The closed loop of one caller fiber: op numbers [base], [base +
   stride], ...; [stop] is polled before each op. *)
let caller_loop c ~stop ~base ~stride body =
  let k = ref 0 in
  while not (stop c) do
    let op = base + (!k * stride) in
    incr k;
    let t0 = Mclock.now_ns () in
    match body op with
    | () ->
        let t1 = Mclock.now_ns () in
        Samples.push c.lat (t1 - t0);
        Samples.push c.fin t1;
        c.ok <- c.ok + 1;
        Spans.record Spans.op ~op ~start:t0 ~stop:t1
    | exception _ -> c.bad <- c.bad + 1
  done;
  c.running <- false

let until_deadline deadline _ = Mclock.now_ns () >= deadline || Spans.full ()

let after_ops n c = c.ok + c.bad >= n

let timed_call ~traced ~op f =
  if not traced then f ()
  else begin
    let t0 = Mclock.now_ns () in
    let v = f () in
    Spans.record Spans.stub_call ~op ~start:t0 ~stop:(Mclock.now_ns ());
    v
  end

let sum_callers cs f = List.fold_left (fun acc c -> acc + f c) 0 cs

let gc_kinds =
  [ "dirty"; "dirty_ack"; "copy_ack"; "clean"; "clean_ack"; "clean_batch";
    "clean_batch_ack" ]

type tstats = {
  logical : int;
  gc : int;
  bytes : int;
  sent : int;
  s_dropped : int;
  s_reconnects : int;
}

let tstats tr =
  let st = Transport.stats tr and by = Transport.stats_by_kind tr in
  let logical, gc =
    List.fold_left
      (fun (l, g) (k, (n, _)) -> (l + n, if List.mem k gc_kinds then g + n else g))
      (0, 0) by
  in
  {
    (* The hub keeps no per-kind table: there every payload is one
       logical message. *)
    logical = (if by = [] then st.Transport.sent else logical);
    gc;
    bytes = st.Transport.bytes;
    sent = st.Transport.sent;
    s_dropped = st.Transport.dropped;
    s_reconnects = st.Transport.reconnects;
  }

let retries rt =
  List.fold_left
    (fun acc sp ->
      acc + (R.gc_stats sp).R.retries + (R.call_stats sp).R.c_retried)
    0 (R.spaces rt)

let ns_of_s s = int_of_float (s *. 1e9)

(* The typed interfaces.  Traced segments wrap every codec; the bytes on
   the wire are the same either way. *)
let m_incr ~traced =
  Stub.declare "incr"
    (Probe.codec ~traced ~op_of:Fun.id Pickle.int)
    (Probe.codec ~traced Pickle.int)

(* [incr op] adds one to the owner's counter and returns the new count;
   the argument is the caller's op number, so spans can name the op. *)
let counter_obj ~traced sp count =
  R.allocate sp
    ~meths:
      [
        Stub.implement (m_incr ~traced) (fun _ op ->
            Probe.app ~traced ~op (fun () ->
                incr count;
                !count));
      ]

(* {1 Loopback TCP} *)

let tcp_config ~seed ~nspaces ~traced =
  R.config ~seed:(Int64.of_int seed) ~nspaces
    ~transport:(fun sched _net ->
      let tcp =
        Tcp.create ~sched ~serving:[ 0 ]
          ~endpoints:[ (0, { Tcp.host = loopback; port = 0 }) ]
          ()
      in
      let t = Tcp.transport tcp in
      if traced then Probe.decorate t else t)
    ()

type drive = { mutable slices : int; mutable idle : int }

(* The drive loop, the same shape as [netobj_sim]'s: run the scheduler
   for a slice, pump real I/O, and advance the virtual clock by a tick
   when nothing happened.  Returns whether [finished] became true
   before [limit]. *)
let drive rt d ~finished ~limit =
  let sched = R.sched rt and tr = R.transport rt in
  while (not (finished ())) && Mclock.now_ns () < limit do
    let before = Sched.now sched in
    Spans.with_span Spans.sched_run ~op:(-1) (fun () ->
        ignore (R.run rt ~until:(before +. 0.05)));
    d.slices <- d.slices + 1;
    let n = Transport.pump tr ~timeout:0.005 in
    if n = 0 && Sched.now sched = before then begin
      d.idle <- d.idle + 1;
      Sched.timer sched ~name:"drive-tick" 0.05 (fun () -> ())
    end
  done;
  finished ()

(* Drive until nothing has run and nothing arrived for several rounds:
   every message sent has been delivered and handled. *)
let settle rt ~limit =
  let sched = R.sched rt and tr = R.transport rt in
  let quiet = ref 0 in
  while !quiet < 5 && Mclock.now_ns () < limit do
    let steps = R.run rt ~until:(Sched.now sched +. 0.05) in
    let n = Transport.pump tr ~timeout:0.002 in
    if steps = 0 && n = 0 then incr quiet else quiet := 0
  done;
  !quiet >= 5

let drain_limit () = Mclock.now_ns () + ns_of_s 20.0

(* Spawn [n] callers on shard 0, drive until they all stop; [body i
   op] runs op [op] in fiber [i]. *)
let run_callers rt d ~n ~stop body =
  let cs = List.init n (fun _ -> new_caller ()) in
  List.iteri
    (fun i c ->
      R.spawn rt (fun () -> caller_loop c ~stop ~base:i ~stride:n (body i)))
    cs;
  let ok =
    drive rt d
      ~finished:(fun () -> List.for_all (fun c -> not c.running) cs)
      ~limit:(drain_limit ())
  in
  (cs, ok)

(* Run [f] in a fiber and drive until it returns. *)
let in_fiber rt d f =
  let r = ref None in
  R.spawn rt (fun () -> r := Some (f ()));
  if not (drive rt d ~finished:(fun () -> !r <> None) ~limit:(drain_limit ()))
  then failwith "set-up did not complete";
  Option.get !r

(* Everything a TCP segment measures around its window. *)
let tcp_segment ~rt ~setup_s ~d ~w ~window_ns ~cs ~drained ~before ~residual
    ~checks =
  let tr = R.transport rt in
  let wall_s = Mclock.seconds_since w.t0 in
  let cpu_s = cpu_now () -. w.cpu0 in
  let minor_words = Gc.minor_words () -. w.minor0 in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - w.major0 in
  let still_running = List.length (List.filter (fun c -> c.running) cs) in
  let settled = settle rt ~limit:(drain_limit ()) in
  let after = tstats tr in
  let residual = residual () in
  let checks =
    (if drained then [] else [ "callers did not finish within the drain limit" ])
    @ (if settled then [] else [ "traffic did not settle after the window" ])
    @ checks ()
    @ (match Sched.failures (R.sched rt) with
      | [] -> []
      | (name, e) :: _ ->
          [ Printf.sprintf "fiber %s raised %s" name (Printexc.to_string e) ])
    @ List.map (fun s -> "consistency: " ^ s) (R.check_consistency rt)
  in
  Transport.close tr;
  {
    setup_s;
    ops = sum_callers cs (fun c -> c.ok);
    failed = sum_callers cs (fun c -> c.bad) + still_running;
    wall_s;
    cpu_s;
    buckets =
      Samples.buckets ~t0:w.t0 ~window_ns
        ~lat:(List.map (fun c -> c.lat) cs)
        ~fin:(List.map (fun c -> c.fin) cs);
    samples = sum_callers cs (fun c -> Samples.length c.lat);
    msgs = after.logical - before.logical;
    wire_bytes =
      after.bytes - before.bytes + ((after.sent - before.sent) * Frame.overhead);
    frames = after.sent - before.sent;
    dropped = after.s_dropped - before.s_dropped;
    reconnects = after.s_reconnects - before.s_reconnects;
    gc_msgs = after.gc - before.gc;
    retries = retries rt;
    residual;
    hub_msgs = 0;
    episodes = 0;
    slices = d.slices;
    idle_ticks = d.idle;
    minor_words;
    major_collections;
    pool = 1;
    cross_shard_share = 0.0;
    checks;
  }

(* {2 echo} *)

let echo_fibers = 4

let echo_warmup = 500

let echo ~seed ~traced ~window_s =
  let t_setup = Mclock.now_ns () in
  let rt = R.create (tcp_config ~seed ~nspaces:2 ~traced) in
  let owner = R.space rt 0 and client = R.space rt 1 in
  let count = ref 0 in
  R.publish owner "counter" (counter_obj ~traced owner count);
  let d = { slices = 0; idle = 0 } in
  let h = in_fiber rt d (fun () -> R.lookup client ~at:0 "counter") in
  let m = m_incr ~traced in
  let call op = Stub.call client h m op in
  let body _ op =
    let n = timed_call ~traced ~op (fun () -> call op) in
    if n < 1 then raise (Wrong_result "counter below one")
  in
  let warm, warm_ok =
    run_callers rt d ~n:echo_fibers ~stop:(after_ops echo_warmup) body
  in
  if not warm_ok then failwith "echo: warm-up did not complete";
  let warm_calls = sum_callers warm (fun c -> c.ok + c.bad) in
  ignore (settle rt ~limit:(drain_limit ()));
  let setup_s = Mclock.seconds_since t_setup in
  let before = tstats (R.transport rt) in
  let d = { slices = 0; idle = 0 } in
  if traced then Spans.start ();
  let w = open_window () in
  let deadline = w.t0 + ns_of_s window_s in
  let cs, drained =
    run_callers rt d ~n:echo_fibers ~stop:(until_deadline deadline) body
  in
  Spans.stop ();
  let checks () =
    let ok = sum_callers cs (fun c -> c.ok) and bad = sum_callers cs (fun c -> c.bad) in
    let executed = !count - warm_calls in
    if executed >= ok && executed <= ok + bad then []
    else
      [ Printf.sprintf "echo: counter %d after %d warm-up and %d completed calls"
          !count warm_calls ok ]
  in
  tcp_segment ~rt ~setup_s ~d ~w ~window_ns:(ns_of_s window_s) ~cs ~drained ~before
    ~residual:(fun () -> 0)
    ~checks

(* {2 workqueue} *)

let wq_workers = 2

let wq_fibers = 2

let wq_input_len = 1024

let wq_pool = 64

let wq_collect_every = 256

let wq_warmup = 40

(* Task inputs, made from the seed: [wq_pool] arrays of 1024 ints below
   2^26 (4 varint bytes each once zigzagged, about 4 KiB per array),
   with their checksums. *)
type inputs = { arrays : int array array; sums : int array }

let checksum a = Array.fold_left (fun acc x -> ((acc * 31) + x) land 0x3fffffff) 0 a

let make_inputs seed =
  let st = Random.State.make [| seed; 0x5eed |] in
  let arrays =
    Array.init wq_pool (fun _ ->
        Array.init wq_input_len (fun _ -> Random.State.int st (1 lsl 26)))
  in
  { arrays; sums = Array.map checksum arrays }

let m_pull ~traced =
  Stub.declare "pull"
    (Probe.codec ~traced ~op_of:Fun.id Pickle.int)
    (Probe.codec ~traced (Probe.handle_codec ~traced))

let m_input ~traced =
  Stub.declare "input" (Probe.codec ~traced Pickle.unit)
    (Probe.codec ~traced (Pickle.array Pickle.int))

let m_complete ~traced =
  Stub.declare "complete" (Probe.codec ~traced Pickle.int)
    (Probe.codec ~traced Pickle.int)

let workqueue ~inputs ~seed ~traced ~window_s =
  let t_setup = Mclock.now_ns () in
  let rt = R.create (tcp_config ~seed ~nspaces:(1 + wq_workers) ~traced) in
  let master = R.space rt 0 in
  let mp = m_pull ~traced and mi = m_input ~traced and mc = m_complete ~traced in
  let minted = ref 0 and completed = ref 0 and mismatches = ref 0 in
  (* A task keeps the master's root until it is completed; after that
     only the worker's dirty entry keeps it alive. *)
  let make_task op =
    let idx = op land (wq_pool - 1) in
    let self = ref None in
    let task =
      R.allocate master
        ~meths:
          [
            Stub.implement mi (fun _ () ->
                Probe.app ~traced (fun () -> inputs.arrays.(idx)));
            Stub.implement mc (fun sp cs ->
                Probe.app ~traced (fun () ->
                    if cs <> inputs.sums.(idx) then incr mismatches;
                    (match !self with
                    | Some h ->
                        self := None;
                        R.release sp h
                    | None -> incr mismatches);
                    incr completed;
                    if !completed mod wq_collect_every = 0 then
                      Probe.collect ~traced sp;
                    inputs.sums.(idx)));
          ]
    in
    self := Some task;
    incr minted;
    task
  in
  let queue =
    R.allocate master
      ~meths:
        [ Stub.implement mp (fun _ op -> Probe.app ~traced ~op (fun () -> make_task op)) ]
  in
  R.publish master "queue" queue;
  let d = { slices = 0; idle = 0 } in
  let queues =
    Array.init wq_workers (fun k ->
        let sp = R.space rt (k + 1) in
        in_fiber rt d (fun () -> R.lookup sp ~at:0 "queue"))
  in
  let body i op =
    (* Fiber [i] works for worker space [1 + i mod wq_workers]. *)
    let k = i mod wq_workers in
    let sp = R.space rt (k + 1) in
    let task = timed_call ~traced ~op (fun () -> Stub.call sp queues.(k) mp op) in
    if traced then Probe.ref_returned ~op task;
    let result =
      match
        let arr = timed_call ~traced ~op (fun () -> Stub.call sp task mi ()) in
        let cs = Probe.app ~traced ~op (fun () -> checksum arr) in
        let back = timed_call ~traced ~op (fun () -> Stub.call sp task mc cs) in
        if back <> cs then Error (Wrong_result "checksum echoed back differs")
        else Ok ()
      with
      | r -> r
      | exception e -> Error e
    in
    R.release sp task;
    Probe.collect ~traced sp;
    match result with Ok () -> () | Error e -> raise e
  in
  let nfibers = wq_workers * wq_fibers in
  let warm, warm_ok = run_callers rt d ~n:nfibers ~stop:(after_ops wq_warmup) body in
  if not warm_ok then failwith "workqueue: warm-up did not complete";
  let warm_bad = sum_callers warm (fun c -> c.bad) in
  ignore (settle rt ~limit:(drain_limit ()));
  let setup_s = Mclock.seconds_since t_setup in
  let before = tstats (R.transport rt) in
  let d = { slices = 0; idle = 0 } in
  if traced then Spans.start ();
  let w = open_window () in
  let deadline = w.t0 + ns_of_s window_s in
  let cs, drained = run_callers rt d ~n:nfibers ~stop:(until_deadline deadline) body in
  Spans.stop ();
  let residual () =
    (* Collect once more at the master after every clean has landed:
       each task ever minted must now be reclaimed. *)
    R.collect master;
    ignore (settle rt ~limit:(drain_limit ()));
    !minted - R.reclaimed master
  in
  let checks () =
    let bad = sum_callers cs (fun c -> c.bad) + warm_bad in
    (if !mismatches = 0 then []
     else [ Printf.sprintf "workqueue: %d checksum mismatches at the master" !mismatches ])
    @ (if bad = 0 then []
       else [ Printf.sprintf "workqueue: %d tasks failed at the workers" bad ])
    @
    let left = !minted - R.reclaimed master in
    if left = 0 then []
    else [ Printf.sprintf "workqueue: %d of %d tasks not reclaimed" left !minted ]
  in
  tcp_segment ~rt ~setup_s ~d ~w ~window_ns:(ns_of_s window_s) ~cs ~drained ~before ~residual ~checks

(* {1 storm: the multi-domain engine} *)

let storm_spaces = 4

let storm_fibers = 8

let storm_domains = 2

let storm_warmup = 500

(* Worker domains the engine will drive, by its own rule: at most one
   per shard, capped by the host ([NETOBJ_DOMAINS_POOL] overrides). *)
let pool_size nshards =
  let hw = max 1 (Domain.recommended_domain_count ()) in
  let p =
    match Option.bind (Sys.getenv_opt "NETOBJ_DOMAINS_POOL") int_of_string_opt with
    | Some n when n > 0 -> n
    | _ -> hw
  in
  max 1 (min nshards p)

let storm ~seed ~traced ~window_s =
  let t_setup = Mclock.now_ns () in
  let rt =
    R.create
      (R.config ~seed:(Int64.of_int seed) ~nspaces:storm_spaces
         ~engine:(module Engine_domains : R.Engine.S)
         ~domains:storm_domains ())
  in
  let counts = Array.init storm_spaces (fun _ -> ref 0) in
  let name i = Printf.sprintf "counter-%d" i in
  Array.iteri
    (fun i c ->
      let sp = R.space rt i in
      R.publish sp (name i) (counter_obj ~traced sp c))
    counts;
  let next i = (i + 1) mod storm_spaces in
  let handles = Array.make storm_spaces None in
  let until = ref 1.0 in
  let episodes = ref 0 in
  let episode () =
    let u = !until in
    until := u +. 1.0;
    incr episodes;
    Spans.with_span Spans.sched_run ~op:(-1) (fun () -> ignore (R.run rt ~until:u))
  in
  for i = 0 to storm_spaces - 1 do
    R.spawn_at rt ~space:i (fun () ->
        handles.(i) <- Some (R.lookup (R.space rt i) ~at:(next i) (name (next i))))
  done;
  episode ();
  if Array.exists Option.is_none handles then failwith "storm: lookups did not complete";
  let m = m_incr ~traced in
  let nfibers = storm_spaces * storm_fibers in
  (* Each fiber is pinned to its space's shard; its caller record is
     written only there and read here after the episode joined. *)
  let spawn_callers ~stop =
    List.init nfibers (fun g ->
        let i = g / storm_fibers in
        let c = new_caller () in
        let sp = R.space rt i and h = Option.get handles.(i) in
        R.spawn_at rt ~space:i (fun () ->
            caller_loop c ~stop ~base:g ~stride:nfibers (fun op ->
                let n = timed_call ~traced ~op (fun () -> Stub.call sp h m op) in
                if n < 1 then raise (Wrong_result "counter below one")));
        c)
  in
  let warm = spawn_callers ~stop:(after_ops storm_warmup) in
  episode ();
  let warm_calls = sum_callers warm (fun c -> c.ok + c.bad) in
  let setup_s = Mclock.seconds_since t_setup in
  let tr = R.transport rt in
  let before = tstats tr in
  episodes := 0;
  if traced then Spans.start ();
  let w = open_window () in
  let window_ns = ns_of_s window_s in
  let deadline = w.t0 + window_ns in
  let cs = spawn_callers ~stop:(until_deadline deadline) in
  episode ();
  Spans.stop ();
  let wall_s = Mclock.seconds_since w.t0 in
  let cpu_s = cpu_now () -. w.cpu0 in
  let minor_words = Gc.minor_words () -. w.minor0 in
  let major_collections = (Gc.quick_stat ()).Gc.major_collections - w.major0 in
  let after = tstats tr in
  let ok = sum_callers cs (fun c -> c.ok) and bad = sum_callers cs (fun c -> c.bad) in
  let still_running = List.length (List.filter (fun c -> c.running) cs) in
  let nshards = R.nshards rt in
  let shard i = i * nshards / storm_spaces in
  let cross =
    List.length
      (List.filter (fun i -> shard i <> shard (next i)) (List.init storm_spaces Fun.id))
  in
  let total = Array.fold_left (fun acc c -> acc + !c) 0 counts in
  let executed = total - warm_calls in
  let hub_sent = after.sent - before.sent in
  let checks =
    (if executed >= ok && executed <= ok + bad then []
     else
       [ Printf.sprintf "storm: counters total %d after %d warm-up and %d completed calls"
           total warm_calls ok ])
    (* [R.transport] is shard 0's view of the hub; its counters are
       only usable as totals if they include the other shard's
       traffic, i.e. exactly one call and one reply per call made
       anywhere in the ring. *)
    @ (if bad > 0 || hub_sent = 2 * ok then []
       else
         [ Printf.sprintf "storm: hub counters read %d messages for %d calls (not global)"
             hub_sent ok ])
    @ (if still_running = 0 then [] else [ "storm: callers still running after the episode" ])
    @ List.map (fun s -> "consistency: " ^ s) (R.check_consistency rt)
  in
  {
    setup_s;
    ops = ok;
    failed = bad + still_running;
    wall_s;
    cpu_s;
    buckets =
      Samples.buckets ~t0:w.t0 ~window_ns
        ~lat:(List.map (fun c -> c.lat) cs)
        ~fin:(List.map (fun c -> c.fin) cs);
    samples = sum_callers cs (fun c -> Samples.length c.lat);
    msgs = after.logical - before.logical;
    (* The hub moves payloads between domains without framing. *)
    wire_bytes = after.bytes - before.bytes;
    frames = 0;
    dropped = after.s_dropped - before.s_dropped;
    reconnects = 0;
    gc_msgs = 0;
    retries = retries rt;
    residual = 0;
    hub_msgs = hub_sent;
    episodes = !episodes;
    slices = !episodes;
    idle_ticks = 0;
    minor_words;
    major_collections;
    pool = pool_size nshards;
    cross_shard_share = float_of_int cross /. float_of_int storm_spaces;
    checks;
  }

let names = [ "echo"; "workqueue"; "storm" ]

(* One segment of workload [name]; [inputs] are made once per run. *)
let runner name ~seed =
  match name with
  | "echo" -> Some (fun ~traced ~window_s -> echo ~seed ~traced ~window_s)
  | "workqueue" ->
      let inputs = make_inputs seed in
      Some (fun ~traced ~window_s -> workqueue ~inputs ~seed ~traced ~window_s)
  | "storm" -> Some (fun ~traced ~window_s -> storm ~seed ~traced ~window_s)
  | _ -> None
