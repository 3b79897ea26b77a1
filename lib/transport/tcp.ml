module Sched = Netobj_sched.Sched
module Wire = Netobj_pickle.Wire
module Metrics = Netobj_obs.Metrics
module Obs = Netobj_obs.Obs

let m_sent = Metrics.counter Metrics.global "transport.tcp.sent"

let m_bytes = Metrics.counter Metrics.global "transport.tcp.bytes"

let m_delivered = Metrics.counter Metrics.global "transport.tcp.delivered"

let m_dropped = Metrics.counter Metrics.global "transport.tcp.dropped"

let m_reconnects = Metrics.counter Metrics.global "transport.tcp.reconnects"

type endpoint = { host : string; port : int }

(* Per-peer send queue bound: past this, frames to an unreachable peer
   are dropped (and counted) rather than buffered without limit.  The
   protocol layers recover via idempotent retries. *)
let max_queued_bytes = 8 * 1024 * 1024

let initial_backoff = 0.05

let max_backoff = 1.0

type inbound = { in_fd : Unix.file_descr; in_dec : Frame.decoder }

(* One outgoing connection per remote address.  [p_out] holds the frames
   not yet written whole; on connection loss it rewinds to the first of
   them, so a torn frame is retransmitted whole on the next connection —
   the receiver binds its decoder to the connection ([in_dec]), so the
   torn tail died with the socket and retransmission cannot duplicate.
   [p_dec] reads the peer's replies on this dialled connection and
   outlives it, so it must be reset whenever the connection drops: a
   reply frame torn by the old socket must not prefix the fresh
   connection's stream. *)
type peer = {
  p_addr : int;
  mutable p_fd : Unix.file_descr option;
  mutable p_connecting : bool;
  p_dec : Frame.decoder;
  p_out : Frame.Out.t;
  mutable p_backoff : float;
  mutable p_next_attempt : float;
  mutable p_failed_once : bool;
}

type outbox = { ob_w : Wire.Writer.t; mutable ob_n : int }

type t = {
  sched : Sched.t;
  endpoints : (int, endpoint) Hashtbl.t;
  listeners : (int, Unix.file_descr) Hashtbl.t;
  mutable inbound : inbound list;
  peers : (int, peer) Hashtbl.t;
  handlers : (int, Transport.handler) Hashtbl.t;
  mutable gate : Transport.gate;
  outboxes : (int * int, outbox) Hashtbl.t;
  mutable flush_armed : bool;
  fiber_names : (int * int * string, string) Hashtbl.t;
  by_kind : (string, (int * int) ref) Hashtbl.t;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  mutable frames : int;
  mutable coalesced : int;
  mutable reconnects : int;
  mutable closed : bool;
}

let resolve host =
  try Unix.inet_addr_of_string host
  with _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> invalid_arg ("Tcp: cannot resolve host " ^ host))

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let create ~sched ~serving ~endpoints () =
  (* A peer resetting mid-write must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let eps = Hashtbl.create 16 in
  List.iter (fun (a, ep) -> Hashtbl.replace eps a ep) endpoints;
  let t =
    {
      sched;
      endpoints = eps;
      listeners = Hashtbl.create 4;
      inbound = [];
      peers = Hashtbl.create 16;
      handlers = Hashtbl.create 16;
      gate = Transport.admit_all;
      outboxes = Hashtbl.create 16;
      flush_armed = false;
      fiber_names = Hashtbl.create 16;
      by_kind = Hashtbl.create 16;
      sent = 0;
      delivered = 0;
      dropped = 0;
      bytes = 0;
      frames = 0;
      coalesced = 0;
      reconnects = 0;
      closed = false;
    }
  in
  (try
     List.iter
       (fun addr ->
         let ep =
           match Hashtbl.find_opt eps addr with
           | Some ep -> ep
           | None ->
               invalid_arg (Printf.sprintf "Tcp.create: no endpoint for %d" addr)
         in
         let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
         Unix.set_nonblock fd;
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         (try Unix.bind fd (Unix.ADDR_INET (resolve ep.host, ep.port))
          with e ->
            close_quietly fd;
            raise e);
         Unix.listen fd 64;
         Hashtbl.replace t.listeners addr fd)
       serving
   with e ->
     Hashtbl.iter (fun _ fd -> close_quietly fd) t.listeners;
     raise e);
  t

let bound_port t addr =
  match Hashtbl.find_opt t.listeners addr with
  | None -> invalid_arg (Printf.sprintf "Tcp.bound_port: not serving %d" addr)
  | Some fd -> (
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false)

(* Destination endpoint, preferring our own listener when the address is
   served in-process — lets a single process talk to itself over real
   sockets even when created with port 0. *)
let endpoint_for t addr =
  if Hashtbl.mem t.listeners addr then
    { host = "127.0.0.1"; port = bound_port t addr }
  else
    match Hashtbl.find_opt t.endpoints addr with
    | Some ep -> ep
    | None -> invalid_arg (Printf.sprintf "Tcp: no endpoint for %d" addr)

let peer_for t addr =
  match Hashtbl.find_opt t.peers addr with
  | Some p -> p
  | None ->
      let p =
        {
          p_addr = addr;
          p_fd = None;
          p_connecting = false;
          p_dec = Frame.decoder ();
          p_out = Frame.Out.create ();
          p_backoff = initial_backoff;
          p_next_attempt = 0.0;
          p_failed_once = false;
        }
      in
      Hashtbl.add t.peers addr p;
      p

(* A failed connect or broken connection: drop the socket, rewind to the
   first frame not written whole, and back off before the next attempt
   (doubling up to the cap).  Every post-failure attempt counts as a
   reconnect.  A
   learned connection (see [learn]) is also registered in [inbound], so
   it must leave that list when it dies or select would see a closed
   fd. *)
let conn_lost t p =
  (match p.p_fd with
  | Some fd ->
      close_quietly fd;
      t.inbound <- List.filter (fun c -> c.in_fd != fd) t.inbound
  | None -> ());
  p.p_fd <- None;
  p.p_connecting <- false;
  Frame.Out.rewind p.p_out;
  Frame.reset p.p_dec;
  p.p_failed_once <- true;
  p.p_next_attempt <- Unix.gettimeofday () +. p.p_backoff;
  p.p_backoff <- Float.min max_backoff (p.p_backoff *. 2.0)

let has_endpoint t addr =
  Hashtbl.mem t.listeners addr || Hashtbl.mem t.endpoints addr

(* Learn a return route from an incoming connection: when a frame from
   [src] arrives and we have no configured way to reach [src], the
   connection it arrived on becomes [src]'s peer connection, so replies
   ride the caller's own socket.  This is what lets a pure client (no
   listener, ephemeral everything) converse with a server that never
   heard of it.  A newer connection from the same source supersedes the
   old one — the client only reconnects when the previous socket died. *)
let learn t ~src fd =
  if not (has_endpoint t src) then begin
    let p = peer_for t src in
    (match p.p_fd with
    | Some old when old != fd ->
        close_quietly old;
        t.inbound <- List.filter (fun c -> c.in_fd != old) t.inbound;
        Frame.Out.rewind p.p_out;
        Frame.reset p.p_dec
    | Some _ -> ()
    | None -> ());
    p.p_fd <- Some fd;
    p.p_connecting <- false;
    p.p_backoff <- initial_backoff
  end

let start_connect t p =
  let ep = endpoint_for t p.p_addr in
  if p.p_failed_once then begin
    t.reconnects <- t.reconnects + 1;
    if Obs.on () then Metrics.incr m_reconnects
  end;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  match Unix.connect fd (Unix.ADDR_INET (resolve ep.host, ep.port)) with
  | () ->
      p.p_fd <- Some fd;
      p.p_connecting <- false
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
      p.p_fd <- Some fd;
      p.p_connecting <- true
  | exception Unix.Unix_error (_, _, _) ->
      close_quietly fd;
      conn_lost t p

(* {2 Accounting} — mirrors [Net]: logical per application message,
   physical per payload handed to the wire (frame bodies, excluding the
   5-byte frame header). *)

let account_logical t kind len =
  if Obs.on () then begin
    Metrics.incr (Metrics.counter Metrics.global ("net.sent." ^ kind));
    Metrics.add (Metrics.counter Metrics.global ("net.bytes." ^ kind)) len
  end;
  let cell =
    match Hashtbl.find_opt t.by_kind kind with
    | Some c -> c
    | None ->
        let c = ref (0, 0) in
        Hashtbl.add t.by_kind kind c;
        c
  in
  let n, b = !cell in
  cell := (n + 1, b + len)

let account_physical t len =
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + len;
  if Obs.on () then begin
    Metrics.incr m_sent;
    Metrics.add m_bytes len
  end

let drop t count =
  t.dropped <- t.dropped + count;
  if Obs.on () then Metrics.add m_dropped count

(* {2 Writing} — frames are encoded into their peer's [p_out] as they
   are sent or flushed.  A 0-delay timer, armed by the first [send] or
   [post] of an instant, fires once that instant's fibers are done: it
   packs the outboxes into frames and writes each connected peer's
   pending bytes in one [write].  [pump] writes only what is left: a
   fresh connection's backlog, or the tail of a partial write. *)

let body_header o ~src ~dst ~count =
  Frame.Out.uvarint o src;
  Frame.Out.uvarint o dst;
  Frame.Out.uvarint o count

(* Close the frame just encoded into [o]; past the per-peer bound it is
   dropped instead. *)
let finish_frame t o ~count =
  account_physical t (Frame.Out.finish o ~count);
  if Frame.Out.pending o > max_queued_bytes then begin
    Frame.Out.drop_last o;
    drop t count
  end

let peer_has_output p = Frame.Out.pending p.p_out > 0

let rec write_pending t p fd =
  match Frame.Out.write p.p_out (Unix.write fd) with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_pending t p fd
  | exception Unix.Unix_error (_, _, _) -> conn_lost t p

let write_connected t =
  Hashtbl.iter
    (fun _ p ->
      match p.p_fd with
      | Some fd when (not p.p_connecting) && peer_has_output p ->
          write_pending t p fd
      | Some _ | None -> ())
    t.peers

(* Same discipline as the simulated network: [post] accumulates
   submessages per (src, dst) outbox and [flush] packs each outbox into
   one frame. *)
let flush t =
  t.flush_armed <- false;
  if Hashtbl.length t.outboxes > 0 then begin
    let pending =
      Hashtbl.fold (fun key ob acc -> (key, ob) :: acc) t.outboxes []
      |> List.sort (fun ((a, b), _) ((c, d), _) ->
             match Int.compare a c with 0 -> Int.compare b d | n -> n)
    in
    Hashtbl.reset t.outboxes;
    List.iter
      (fun ((src, dst), ob) ->
        let count = ob.ob_n in
        let o = (peer_for t dst).p_out in
        Frame.Out.start o;
        body_header o ~src ~dst ~count;
        Frame.Out.writer o ob.ob_w;
        Wire.Writer.return ob.ob_w;
        t.frames <- t.frames + 1;
        t.coalesced <- t.coalesced + count;
        finish_frame t o ~count)
      pending
  end;
  write_connected t

let arm_flush t =
  if not t.flush_armed then begin
    t.flush_armed <- true;
    Sched.timer t.sched ~name:"tcp-flush" 0.0 (fun () -> flush t)
  end

let send t ~src ~dst ~kind payload =
  account_logical t kind (String.length payload);
  let o = (peer_for t dst).p_out in
  Frame.Out.start o;
  body_header o ~src ~dst ~count:1;
  Frame.Out.string o kind;
  Frame.Out.string o payload;
  finish_frame t o ~count:1;
  arm_flush t

let post t ~src ~dst ~kind payload =
  account_logical t kind (String.length payload);
  let ob =
    match Hashtbl.find_opt t.outboxes (src, dst) with
    | Some ob -> ob
    | None ->
        let ob = { ob_w = Wire.Writer.checkout (); ob_n = 0 } in
        Hashtbl.add t.outboxes (src, dst) ob;
        ob
  in
  Wire.Writer.string ob.ob_w kind;
  Wire.Writer.string ob.ob_w payload;
  ob.ob_n <- ob.ob_n + 1;
  arm_flush t

(* {2 Receiving} *)

let read_chunk = Bytes.create 65536

(* Delivery fiber names, formatted once per (src, dst, kind).  Kinds
   come off the wire, so the cache stops growing at a bound. *)
let max_fiber_names = 1024

let fiber_name t ~src ~dst kind =
  let key = (src, dst, kind) in
  match Hashtbl.find_opt t.fiber_names key with
  | Some name -> name
  | None ->
      let name = Printf.sprintf "tcp-delivery-%d>%d:%s" src dst kind in
      if Hashtbl.length t.fiber_names < max_fiber_names then
        Hashtbl.add t.fiber_names key name;
      name

let dispatch_body t ?learn_fd body =
  let r = Wire.Reader.of_string body in
  let src = Wire.Reader.uvarint r in
  let dst = Wire.Reader.uvarint r in
  (match learn_fd with Some fd -> learn t ~src fd | None -> ());
  let count = Wire.Reader.uvarint r in
  let n = ref 0 in
  for _ = 1 to count do
    let kind = Wire.Reader.string r in
    let len = Wire.Reader.uvarint r in
    let off = Wire.Reader.pos r in
    Wire.Reader.skip r len;
    match Hashtbl.find_opt t.handlers dst with
    | None -> drop t 1
    | Some h ->
        incr n;
        Sched.spawn t.sched ~name:(fiber_name t ~src ~dst kind) (fun () ->
            if t.gate ~src ~dst ~kind ~len then begin
              t.delivered <- t.delivered + 1;
              if Obs.on () then Metrics.incr m_delivered;
              h ~src ~kind ~payload:body ~off ~len
            end)
  done;
  !n

let drain_decoder t ?learn_fd dec =
  let n = ref 0 in
  let rec loop () =
    match Frame.next dec with
    | Some body ->
        n := !n + dispatch_body t ?learn_fd body;
        loop ()
    | None -> ()
  in
  loop ();
  !n

(* Read everything currently available on [fd] into [dec]; a short read
   means the socket is drained.  Returns [(dispatched, alive)]. *)
let read_into t ?learn_fd fd dec =
  let dispatched = ref 0 in
  let alive = ref true in
  let continue = ref true in
  while !continue do
    match Unix.read fd read_chunk 0 (Bytes.length read_chunk) with
    | 0 ->
        alive := false;
        continue := false
    | n -> (
        match
          Frame.feed_bytes dec read_chunk 0 n;
          drain_decoder t ?learn_fd dec
        with
        | k ->
            dispatched := !dispatched + k;
            if n < Bytes.length read_chunk then continue := false
        | exception Frame.Corrupt _ ->
            (* A stream we cannot parse is a dead stream. *)
            alive := false;
            continue := false)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) ->
        alive := false;
        continue := false
  done;
  (!dispatched, !alive)

let accept_all t lfd =
  let continue = ref true in
  while !continue do
    match Unix.accept lfd with
    | fd, _ ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        t.inbound <- { in_fd = fd; in_dec = Frame.decoder () } :: t.inbound
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

let pump t ~timeout =
  if t.closed then 0
  else begin
    let now = Unix.gettimeofday () in
    Hashtbl.iter
      (fun _ p ->
        (* Peers with no configured endpoint were learned from incoming
           connections: we cannot dial them, only wait for them to dial
           us again. *)
        if
          p.p_fd = None
          && peer_has_output p
          && has_endpoint t p.p_addr
          && now >= p.p_next_attempt
        then start_connect t p)
      t.peers;
    let listeners = Hashtbl.fold (fun _ fd acc -> fd :: acc) t.listeners [] in
    let inbound_fds = List.map (fun c -> c.in_fd) t.inbound in
    let established, connecting =
      Hashtbl.fold
        (fun _ p (est, conn) ->
          match p.p_fd with
          | Some fd when p.p_connecting -> (est, (fd, p) :: conn)
          | Some fd -> ((fd, p) :: est, conn)
          | None -> (est, conn))
        t.peers ([], [])
    in
    let rds = listeners @ inbound_fds @ List.map fst established in
    let wrs =
      List.map fst connecting
      @ List.filter_map
          (fun (fd, p) -> if peer_has_output p then Some fd else None)
          established
    in
    (* When nothing is ready, the soonest reconnect deadline bounds the
       wait so backoff expiry doesn't stall behind a long select.  A
       negative caller timeout means "block" and must not enter the
       [Float.min] — it would undercut every deadline and the pending
       reconnects would never fire. *)
    let timeout =
      let soonest =
        Hashtbl.fold
          (fun _ p acc ->
            if p.p_fd = None && peer_has_output p && has_endpoint t p.p_addr
            then Float.min acc (Float.max 0.0 (p.p_next_attempt -. now))
            else acc)
          t.peers Float.infinity
      in
      if soonest = Float.infinity then timeout
      else if timeout < 0.0 then soonest
      else Float.min timeout soonest
    in
    match Unix.select rds wrs [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
    | readable, writable, _ ->
        let dispatched = ref 0 in
        (* Completed (or failed) connection attempts first, so their
           queued frames can ride this round's write pass. *)
        List.iter
          (fun (fd, p) ->
            if List.memq fd writable then
              match Unix.getsockopt_error fd with
              | None ->
                  p.p_connecting <- false;
                  p.p_backoff <- initial_backoff;
                  if peer_has_output p then write_pending t p fd
              | Some _ -> conn_lost t p)
          connecting;
        List.iter
          (fun lfd -> if List.memq lfd readable then accept_all t lfd)
          listeners;
        (* Inbound reads: iterate a snapshot ([learn] may drop superseded
           entries from [t.inbound] as we go), collect the dead, then
           prune whatever list state the reads left behind. *)
        let dead = ref [] in
        List.iter
          (fun c ->
            if List.memq c.in_fd readable then begin
              let n, alive = read_into t ~learn_fd:c.in_fd c.in_fd c.in_dec in
              dispatched := !dispatched + n;
              if not alive then dead := c.in_fd :: !dead
            end)
          t.inbound;
        List.iter
          (fun fd ->
            Hashtbl.iter
              (fun _ p ->
                match p.p_fd with
                | Some fd' when fd' == fd ->
                    p.p_fd <- None;
                    p.p_connecting <- false;
                    Frame.Out.rewind p.p_out;
                    Frame.reset p.p_dec
                | _ -> ())
              t.peers;
            close_quietly fd)
          !dead;
        t.inbound <-
          List.filter (fun c -> not (List.memq c.in_fd !dead)) t.inbound;
        let is_inbound fd = List.exists (fun c -> c.in_fd == fd) t.inbound in
        List.iter
          (fun (fd, p) ->
            match p.p_fd with
            | Some fd' when fd' == fd ->
                (* Readability on a dialled-out connection carries the
                   peer's replies, or its EOF/reset.  Learned connections
                   were already drained by the inbound pass above — their
                   bytes belong to that decoder, never [p_dec]. *)
                (if List.memq fd readable && not (is_inbound fd) then begin
                   let n, alive = read_into t fd p.p_dec in
                   dispatched := !dispatched + n;
                   if not alive then conn_lost t p
                 end);
                (match p.p_fd with
                | Some fd'' when fd'' == fd && not p.p_connecting ->
                    if peer_has_output p then write_pending t p fd
                | _ -> ())
            | _ -> ())
          established;
        !dispatched
  end

let connect t addr =
  let p = peer_for t addr in
  if p.p_fd = None && has_endpoint t addr then start_connect t p

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* Messages still pending — posted but unflushed, or queued towards
       an unreachable peer — never reach a socket: count them dropped,
       and give checked-out outbox writers back to the pool. *)
    Hashtbl.iter
      (fun _ ob ->
        drop t ob.ob_n;
        Wire.Writer.return ob.ob_w)
      t.outboxes;
    Hashtbl.reset t.outboxes;
    Hashtbl.iter (fun _ fd -> close_quietly fd) t.listeners;
    Hashtbl.reset t.listeners;
    List.iter (fun c -> close_quietly c.in_fd) t.inbound;
    t.inbound <- [];
    Hashtbl.iter
      (fun _ p ->
        drop t (Frame.Out.messages p.p_out);
        Frame.Out.clear p.p_out;
        match p.p_fd with Some fd -> close_quietly fd | None -> ())
      t.peers;
    Hashtbl.reset t.peers
  end

let stats t =
  {
    Transport.sent = t.sent;
    delivered = t.delivered;
    dropped = t.dropped;
    dropped_src_crashed = 0;
    dropped_dst_crashed = 0;
    duplicated = 0;
    bytes = t.bytes;
    frames = t.frames;
    coalesced = t.coalesced;
    reconnects = t.reconnects;
  }

let stats_by_kind t =
  Hashtbl.fold (fun k c acc -> (k, !c) :: acc) t.by_kind []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset_stats t =
  t.sent <- 0;
  t.delivered <- 0;
  t.dropped <- 0;
  t.bytes <- 0;
  t.frames <- 0;
  t.coalesced <- 0;
  t.reconnects <- 0;
  Hashtbl.reset t.by_kind

let transport t =
  {
    Transport.t_name = "tcp";
    t_send = (fun ~src ~dst ~kind payload -> send t ~src ~dst ~kind payload);
    t_post = (fun ~src ~dst ~kind payload -> post t ~src ~dst ~kind payload);
    t_flush = (fun () -> flush t);
    t_set_handler = (fun a h -> Hashtbl.replace t.handlers a h);
    t_set_gate = (fun g -> t.gate <- g);
    t_connect = (fun a -> connect t a);
    t_pump = (fun ~timeout -> pump t ~timeout);
    t_close = (fun () -> close t);
    t_stats = (fun () -> stats t);
    t_stats_by_kind = (fun () -> stats_by_kind t);
    t_reset_stats = (fun () -> reset_stats t);
    t_faults = Transport.no_faults ~name:"tcp";
  }
