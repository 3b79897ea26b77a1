(** Fault-injection decorator over any {!Transport} backend — the one
    implementation of every transport-level fault.

    [wrap ~sched ~seed base] returns a transport with the same delivery
    path as [base] plus a full {!Transport.faults} implementation
    layered on top: crashes and partitions drop matching messages at
    the decorator's send gate and at its receive gate (the backend's
    {!Transport.gate}, which the decorator keeps for itself, so a message
    it drops in flight counts as dropped, never as delivered), loss/duplication bursts draw from a
    seeded {!Netobj_util.Rng} (deterministic given the seed and traffic
    order, and independent of the backend's own draws), drop filters
    apply at the send gate, and latency spikes stall the delivery fiber
    on the virtual clock at the receive gate, before its crash and
    partition checks.

    The sim engine's default transport is this decorator over
    {!Transport_sim.of_net}; stacked over {!Tcp.transport} it aims the
    same nemesis at real sockets.  The decorator cannot re-order the
    wire, but crash/partition/loss/dup/filter/spike all behave
    identically from the runtime's point of view on every backend.

    Every fault drop is attributed per logical message in the combined
    {!Transport.stats} and explained by a [net]-category [drop] trace
    instant with its reason ([loss], [filtered], [partitioned],
    [src-crashed], [dst-crashed]; see {!Netobj_net.Net.trace_drop}),
    counted in the [net.dropped], [net.dropped.src_crashed] and
    [net.dropped.dst_crashed] metrics; burst duplicates emit a [dup]
    instant and count in [net.duplicated].

    Over the simulated network this replaces the network's former
    built-in fault plane, with three deliberate differences:
    - a latency spike stalls each delivery for [0.001 × factor]
      virtual seconds instead of multiplying the edge's drawn latency;
    - a burst composes with the edge's static loss/dup independently
      (the decorator draws, then the network draws) instead of the two
      probabilities combining by [max];
    - a message dropped at the send gate never reaches the backend, so
      it no longer counts as a physical [sent] (nor in the backend's
      per-kind accounting); conversely a burst duplicate is a second
      send to the backend and counts as one. *)

val wrap :
  sched:Netobj_sched.Sched.t -> seed:int64 -> Transport.t -> Transport.t
