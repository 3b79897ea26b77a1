module Sched = Netobj_sched.Sched
module Rng = Netobj_util.Rng
module Net = Netobj_net.Net
module Obs = Netobj_obs.Obs
module Metrics = Netobj_obs.Metrics

(* Fault gates sit on both sides of the wrapped backend: the send gate
   drops before a message reaches the backend (crash/partition/filter/
   loss), the receive gate is the backend's {!Transport.gate}, run in
   its delivery fiber before the message counts as delivered (so a
   crash or partition that forms while a message is in flight still
   eats it, on the simulated network and on real sockets alike).  Burst
   windows and spikes expire against the {e virtual} clock, so chaos
   schedules drive every backend identically. *)

let m_drop_src_crashed = Metrics.counter Metrics.global "net.dropped.src_crashed"

let m_drop_dst_crashed = Metrics.counter Metrics.global "net.dropped.dst_crashed"

type cause = Loss | Filtered | Partitioned | Src_crashed | Dst_crashed

let reason = function
  | Loss -> "loss"
  | Filtered -> "filtered"
  | Partitioned -> "partitioned"
  | Src_crashed -> "src-crashed"
  | Dst_crashed -> "dst-crashed"

type burst = { mutable b_loss : float; mutable b_dup : float; mutable b_until : float }

type spike = { mutable sp_factor : float; mutable sp_until : float }

(* Stall applied per delivery while a latency spike is active: the
   decorator cannot stretch the wire's real latency, so it sleeps the
   delivery fiber [factor × base] on the virtual clock instead. *)
let spike_base = 0.001

type state = {
  sched : Sched.t;
  rng : Rng.t;
  crashed : (int, unit) Hashtbl.t;
  partitions : (int * int, unit) Hashtbl.t;
  bursts : (int * int, burst) Hashtbl.t;
  spikes : (int * int, spike) Hashtbl.t;
  mutable filter : (src:int -> dst:int -> kind:string -> bool) option;
  (* fault accounting, per logical message *)
  mutable dropped : int;
  mutable drop_src : int;
  mutable drop_dst : int;
  mutable dup : int;
}

let pair a b = if a <= b then (a, b) else (b, a)

let partitioned st a b = Hashtbl.mem st.partitions (pair a b)

let is_crashed st a = Hashtbl.mem st.crashed a

let burst_for st key =
  match Hashtbl.find_opt st.bursts key with
  | Some b -> b
  | None ->
      let b = { b_loss = 0.0; b_dup = 0.0; b_until = neg_infinity } in
      Hashtbl.add st.bursts key b;
      b

let effective st key get =
  match Hashtbl.find_opt st.bursts key with
  | Some b when Sched.now st.sched < b.b_until -> get b
  | _ -> 0.0

let drop st ~src ~dst ~kind len cause =
  st.dropped <- st.dropped + 1;
  (match cause with
  | Src_crashed ->
      st.drop_src <- st.drop_src + 1;
      if Obs.on () then Metrics.incr m_drop_src_crashed
  | Dst_crashed ->
      st.drop_dst <- st.drop_dst + 1;
      if Obs.on () then Metrics.incr m_drop_dst_crashed
  | Loss | Filtered | Partitioned -> ());
  Net.trace_drop ~src ~dst ~kind len (reason cause)

(* Send gate.  A crashed source cannot emit at all; a live source
   talking to a crashed destination loses the message on the wire.  The
   source check wins when both are down. *)
let send_fault st ~src ~dst ~kind =
  if is_crashed st src then Some Src_crashed
  else if is_crashed st dst then Some Dst_crashed
  else if partitioned st src dst then Some Partitioned
  else if
    match st.filter with Some keep -> not (keep ~src ~dst ~kind) | None -> false
  then Some Filtered
  else
    let p = effective st (src, dst) (fun b -> b.b_loss) in
    if p > 0.0 && Rng.chance st.rng p then Some Loss else None

(* [true] when the message is dropped (and accounted). *)
let dropped_at_send st ~src ~dst ~kind payload =
  match send_fault st ~src ~dst ~kind with
  | None -> false
  | Some cause ->
      drop st ~src ~dst ~kind (String.length payload) cause;
      true

let duplicate_at_send st ~src ~dst ~kind payload =
  let p = effective st (src, dst) (fun b -> b.b_dup) in
  if p > 0.0 && Rng.chance st.rng p then begin
    st.dup <- st.dup + 1;
    Net.trace_dup ~src ~dst ~kind (String.length payload);
    true
  end
  else false

(* Receive gate, run inside the backend's delivery fiber.  A message in
   flight towards a crashed destination is lost, and one whose source
   died mid-flight models the RPC bouncing (connection reset). *)
let receive_fault st ~src ~dst =
  if is_crashed st dst then Some Dst_crashed
  else if is_crashed st src then Some Src_crashed
  else if partitioned st src dst then Some Partitioned
  else None

(* [true] when the message survives.  A live spike stalls it first, and
   the crash and partition checks run at the end of the stall, as they
   would at the end of a stretched flight. *)
let survives_receive st ~src ~dst ~kind ~len =
  (match Hashtbl.find_opt st.spikes (src, dst) with
  | Some sp when Sched.now st.sched < sp.sp_until ->
      Sched.sleep st.sched (spike_base *. sp.sp_factor)
  | _ -> ());
  match receive_fault st ~src ~dst with
  | Some cause ->
      drop st ~src ~dst ~kind len cause;
      false
  | None -> true

let wrap ~sched ~seed base =
  let st =
    {
      sched;
      rng = Rng.create seed;
      crashed = Hashtbl.create 8;
      partitions = Hashtbl.create 8;
      bursts = Hashtbl.create 8;
      spikes = Hashtbl.create 8;
      filter = None;
      dropped = 0;
      drop_src = 0;
      drop_dst = 0;
      dup = 0;
    }
  in
  let gated forward ~src ~dst ~kind payload =
    if not (dropped_at_send st ~src ~dst ~kind payload) then begin
      forward ~src ~dst ~kind payload;
      if duplicate_at_send st ~src ~dst ~kind payload then
        forward ~src ~dst ~kind payload
    end
  in
  base.Transport.t_set_gate (survives_receive st);
  let stats () =
    let s = base.Transport.t_stats () in
    {
      s with
      Transport.dropped = s.Transport.dropped + st.dropped;
      dropped_src_crashed = s.Transport.dropped_src_crashed + st.drop_src;
      dropped_dst_crashed = s.Transport.dropped_dst_crashed + st.drop_dst;
      duplicated = s.Transport.duplicated + st.dup;
    }
  in
  let reset_stats () =
    base.Transport.t_reset_stats ();
    st.dropped <- 0;
    st.drop_src <- 0;
    st.drop_dst <- 0;
    st.dup <- 0
  in
  {
    base with
    Transport.t_name = base.Transport.t_name ^ "+faulty";
    t_send = gated base.Transport.t_send;
    t_post = gated base.Transport.t_post;
    t_set_gate = (fun _ -> invalid_arg "Faulty: the receive gate is taken");
    t_stats = stats;
    t_reset_stats = reset_stats;
    t_faults =
      {
        Transport.f_crash = (fun a -> Hashtbl.replace st.crashed a ());
        f_restore = (fun a -> Hashtbl.remove st.crashed a);
        f_is_crashed = is_crashed st;
        f_set_partitioned =
          (fun a b on ->
            if on then Hashtbl.replace st.partitions (pair a b) ()
            else Hashtbl.remove st.partitions (pair a b));
        f_partitioned = partitioned st;
        f_heal_all = (fun () -> Hashtbl.reset st.partitions);
        f_set_burst =
          (fun ~src ~dst ~loss ~dup ~until ->
            let b = burst_for st (src, dst) in
            b.b_loss <- loss;
            b.b_dup <- dup;
            b.b_until <- until);
        f_set_latency_spike =
          (fun ~src ~dst ~factor ~until ->
            match Hashtbl.find_opt st.spikes (src, dst) with
            | Some sp ->
                sp.sp_factor <- factor;
                sp.sp_until <- until
            | None ->
                Hashtbl.add st.spikes (src, dst)
                  { sp_factor = factor; sp_until = until });
        f_set_filter = (fun f -> st.filter <- f);
      };
  }
