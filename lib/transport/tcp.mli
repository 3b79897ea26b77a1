(** Real Unix/TCP transport backend.

    One {!t} drives any number of local spaces from a single thread:
    each address listed in [serving] gets its own listening socket, and
    each remote destination gets one outgoing connection, established
    lazily and re-established after failures with capped exponential
    backoff.  All sockets are nonblocking.

    Writes happen at the end of the scheduler instant that produced
    them: the first [send] or [post] of an instant arms a 0-delay
    timer, which fires once the instant's fibers are done, packs the
    coalesced outboxes into frames and writes each connected peer's
    pending frames in one [write].  A frame is encoded once, header
    included, straight into its peer's output buffer ({!Frame.Out}),
    and that buffer is what the socket writes from: one copy on the
    way out.  {!Transport.pump} runs one [select] round (up to the
    given wall-clock timeout): it completes connects, writes what the
    timer could not (a new connection's backlog, the tail of a partial
    or [EAGAIN] write), accepts, reads until a short read, reassembles
    frames across arbitrary packet boundaries, and dispatches each
    submessage in a fresh scheduler fiber.  A driver therefore needs
    one pump per scheduler slice, not two: see
    [Netobj_core.Runtime.drive].

    On the wire every payload is a {!Frame}: [u32 BE length], a
    version byte (always 0), then a body of
    [uvarint src · uvarint dst · uvarint count ·
    count × (string kind · string payload)] — a direct send is a
    frame with [count = 1]; coalesced outboxes ride as one frame with
    the constituent count, mirroring the simulated network's logical
    vs physical accounting.

    Loss semantics: a frame that was only partially written when a
    connection broke is retransmitted in full on the next connection,
    followed by every later frame (the receiver discarded the torn
    tail), so reconnection neither duplicates nor tears a frame; frames
    beyond the per-peer bound ([8 MiB] pending) while a peer is
    unreachable are dropped and counted.
    The bare backend has no fault hooks ({!Transport.no_faults}) —
    wrap it in {!Faulty} to aim a nemesis at real sockets. *)

type endpoint = { host : string; port : int }

type t

(** [create ~sched ~serving ~endpoints ()] binds a listener for every
    address in [serving] at its endpoint from [endpoints] (port [0]
    binds an ephemeral port — read it back with {!bound_port}).
    Remote addresses are reached through [endpoints]; an address with
    no entry is still reachable once it dials us — the connection a
    frame arrives on becomes the return route to its source, so pure
    clients need no listener at all.  Raises [Unix.Unix_error] if a
    bind fails — callers that must degrade gracefully (no loopback
    available) catch it and skip. *)
val create :
  sched:Netobj_sched.Sched.t ->
  serving:Transport.addr list ->
  endpoints:(Transport.addr * endpoint) list ->
  unit ->
  t

val transport : t -> Transport.t

(** Actual port of the listener serving [addr] (after port-0 binds). *)
val bound_port : t -> Transport.addr -> int
