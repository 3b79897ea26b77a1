(** Stateless model checking over the real runtime.

    The checker drives the {e actual} effects-based simulator — scheduler,
    network, marshalling, distributed collector — under controlled
    nondeterminism: every scheduling decision (which ready fiber runs,
    which of several same-instant timers fires) and every Bag-edge
    delivery order becomes an explicit {e choice point} surfaced through
    {!Netobj_sched.Sched.Controlled} and
    {!Netobj_net.Net.set_delivery_choice}.  An execution is therefore a
    pure function of its choice list: recording the list gives a replayable
    schedule, and depth-first exploration over choice lists enumerates
    schedules.

    Exploration prunes three ways:

    - {e iterative preemption bounding}: schedules are enumerated in order
      of how many choice points deviate from the default (index 0)
      alternative — bound 0 first, then 1, and so on up to
      [max_preemptions].  Protocol bugs overwhelmingly need only a few
      preemptions, so counterexamples surface early and minimal;
    - {e sleep-set / DPOR-style pruning}: after a subtree for alternative
      [a] is explored, sibling subtrees skip re-running [a] until an
      action {e dependent} on it executes.  Dependence is approximated
      from choice labels (shared space/edge indices), so the pruning is
      heuristic: it can skip genuinely equivalent interleavings it cannot
      prove equivalent, never the other way around — except insofar as
      the label approximation conflates distinct actions, which is why
      exhaustiveness claims are always "within bounds, modulo pruning";
    - {e state-hash deduplication}: at each choice point the runtime's
      protocol state ({!Netobj_core.Runtime.state_fingerprint}) plus
      pending work is hashed; reaching a fingerprint already explored
      with at least as much remaining preemption budget cuts the
      execution's remaining subtree.

    At every choice point the per-step safety oracle
    ({!Netobj_core.Runtime.check_safety} — the runtime analogue of the
    paper's Definition 12 / Lemma 9 invariants checked by
    [Dgc.Invariants] on the abstract machine) runs against the live
    state; each completed execution additionally runs its scenario's
    drain oracles.  The first violating execution is returned as a
    {!violation} whose choice list replays deterministically. *)

module Runtime = Netobj_core.Runtime
module Chaos = Netobj_chaos.Chaos
module Json = Netobj_obs.Json

(** {1 Bounds} *)

type bounds = {
  max_schedules : int;  (** executions before giving up (0 = unlimited) *)
  max_depth : int;
      (** choice points per execution after which no new backtrack
          points are created *)
  max_preemptions : int;
      (** largest number of non-default picks per schedule explored *)
  slots : int;
      (** delivery slots per Bag-edge send with a concurrent in-flight
          message (see {!Netobj_net.Net.set_delivery_choice}) *)
}

(** 20 000 schedules, depth 2 000, 2 preemptions, 2 delivery slots. *)
val default_bounds : bounds

(** {1 Schedules} *)

(** One recorded decision: at a choice point of [c_kind] (["fiber"],
    ["timer"] or ["net"]) with [c_n] alternatives, alternative [c_pick]
    (labelled [c_label]) ran. *)
type choice = { c_kind : string; c_n : int; c_pick : int; c_label : string }

type schedule = choice list

val schedule_to_json : schedule -> Json.t

val schedule_of_json : Json.t -> (schedule, string) Stdlib.result

(** {1 Results} *)

type violation = {
  v_schedule : schedule;  (** full choice list of the violating execution *)
  v_problems : string list;  (** oracle reports, per-step first *)
  v_at_schedule : int;  (** executions run when it was found (1-based) *)
}

type stats = {
  schedules : int;  (** executions run, across all preemption bounds *)
  choices : int;  (** choice points taken, summed over executions *)
  states : int;  (** distinct state fingerprints seen *)
  pruned_sleep : int;  (** backtrack alternatives skipped by sleep sets *)
  pruned_state : int;  (** executions cut short by fingerprint dedup *)
  deferred_preempt : int;
      (** alternatives deferred past the current preemption bound *)
  deepest : int;  (** longest execution, in choice points *)
  exhausted : bool;
      (** every schedule within the bounds was explored (modulo pruning) *)
}

type result = { stats : stats; violation : violation option }

(** Serialize a counterexample: scenario name, nemesis fault schedule (as
    a {!Chaos} scripted-nemesis JSON, replayable by the chaos harness),
    oracle reports, and the choice list. *)
val counterexample_to_json :
  scenario:string ->
  nemesis:Chaos.event list ->
  violation ->
  Json.t

(** Parse back [(scenario, schedule)] from {!counterexample_to_json}
    output. *)
val counterexample_of_json : Json.t -> (string * schedule, string) Stdlib.result

(** {1 Scenarios}

    A scenario builds a runtime under the checker's control and runs one
    workload execution, returning its end-of-run oracle reports (empty
    list = clean).  The [exec] handle carries the checker's chooser; use
    {!setup} to wire it into a config. *)

type exec

type scenario = {
  sc_name : string;
  sc_spaces : int;
  sc_nemesis : Chaos.event list;
      (** scripted faults the scenario arms, exported with
          counterexamples *)
  sc_run : exec -> string list;
}

(** [setup exec cfg nemesis] creates the runtime with the checker's
    {!Netobj_sched.Sched.Controlled} policy and delivery-choice hook
    installed and the fault schedule armed on the virtual clock.  Call it
    exactly once per {!scenario.sc_run} invocation, before spawning
    workload fibers. *)
val setup : exec -> Runtime.config -> Chaos.event list -> Runtime.t

(** {2 Built-in scenarios} *)

(** Two spaces, fault-free: space 0 publishes an object whose method
    returns a second object by reference, space 1 looks it up, invokes it
    (a reference {e transfer} in a reply), and releases everything.
    Exercises dirty, clean, transient pins, and copy_acks; drain oracle:
    no surrogate anywhere, {!Runtime.check_consistency} clean.  Small
    enough to exhaust within {!default_bounds}. *)
val scenario_dgc2 : unit -> scenario

(** Three spaces: space 1 obtains a reference from space 0 and passes it
    to space 2 in an argument — Birrell's third-party transfer, the race
    the transient-pin machinery exists for.  Larger choice tree; meant
    for {!guided} or generous bounds. *)
val scenario_dgc3 : unit -> scenario

(** Two spaces, two concurrent lookups, and a call timeout wedged
    between the slot-0 and slot-1 reply arrival times: on schedules
    where one client's reply is reordered behind the other's — a single
    delivery-slot choice — that [lookup] times out.  With [leak] set
    ({!Runtime.config}[ ~bugs:[Lookup_leak]]) the timeout strands the
    agent surrogate's root — the historical bug the drain oracle
    catches; with [leak] false the same schedules drain clean.  The race
    is decided purely by the schedule: no loss draws involved. *)
val scenario_lookup : leak:bool -> unit -> scenario

(** Two spaces, durable owner: a disk fault (lost unsynced suffix) is
    armed, the owner crashes mid-protocol and recovers from its store
    while a client holds a reference.  The relative order of the owner's
    group-commit fsync timer and the scripted crash is a schedule choice
    point, so exploration covers both the committed and the lost-suffix
    crash images; either way the commit-before-externalize barrier must
    keep the held reference invocable after recovery, and the system
    must still drain to ground truth. *)
val scenario_recover : unit -> scenario

(** Three spaces: a cross-space reference cycle (a@0 <-> b@1) that the
    listing collector leaks, a live sink at space 1, and a third party
    at space 2 that transfers its rooted reference to the cycle into
    the sink {e while} a detector trial is probing.  Schedules exist on
    which every probe-round report is quiet even though the cycle is
    live via the sink; only the confirm round (identical reports,
    unmoved touch counters and epochs) catches the movement.  With
    [broken] ({!Runtime.config}[ ~bugs:[Skip_confirm]], scenario name
    ["dgc-cycle-broken"]) the coordinator commits on the probe round
    alone and reclaims the live cycle — the stranded rooted surrogate
    trips the per-step safety oracle, with a replayable schedule.  With
    the confirm round intact the same schedules abort the trial, a
    final pass after teardown reclaims the then-dead cycle, and the
    drain oracle ends clean. *)
val scenario_cycle : broken:bool -> unit -> scenario

(** Two spaces, a call timeout wedged between the slot-0 and slot-1
    reply arrival times, and automatic retries armed
    ({!Runtime.config}[ ~call_retries:1]): on schedules where the reply
    is slot-delayed the client retransmits the same [call_id] while the
    original reply — and the owner's completed execution — is still in
    flight.  The owner's reply cache must replay rather than re-execute.
    With [bug] ({!Runtime.config}[ ~bugs:[No_dedup]], scenario name
    ["call-retry-no-dedup"]) dedup is disabled and the retransmit runs
    the non-idempotent increment again; the end-of-run oracle reports
    the double execution with a replayable schedule.  With dedup intact
    the same schedules stay at-most-once. *)
val scenario_call_retry : bug:bool -> unit -> scenario

(** Names accepted by {!find_scenario}. *)
val scenario_names : string list

(** [find_scenario name ~leak] — [leak] only affects ["lookup"];
    ["dgc-cycle-broken"] selects {!scenario_cycle}[ ~broken:true];
    ["call-retry-no-dedup"] selects {!scenario_call_retry}[ ~bug:true]. *)
val find_scenario : string -> leak:bool -> scenario option

(** {1 Running} *)

(** Depth-first exploration with iterative preemption bounding, sleep-set
    pruning and state deduplication, stopping at the first violation or
    when the bounds are exhausted. *)
val explore : ?bounds:bounds -> scenario -> result

(** Guided mode: [max_schedules] independent executions with every choice
    drawn as a pure function of [(seed, execution, choice index)] — random
    schedule sampling for trees too large to exhaust.  No pruning;
    stops at the first violation. *)
val guided : ?bounds:bounds -> seed:int64 -> scenario -> result

(** Re-execute one recorded schedule.  Returns [Ok problems] (the oracle
    reports of the re-execution — a genuine counterexample reproduces its
    [v_problems]) or [Error msg] if the execution diverged from the
    recording (a determinism bug). *)
val replay : scenario -> schedule -> (string list, string) Stdlib.result
