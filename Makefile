.PHONY: all build test loc bench bench-json bench-compare chaos-smoke chaos-sweep mc-smoke recover-smoke transport-smoke perf-smoke fuzz-smoke par-smoke cycles-smoke scale-smoke reliability-smoke verify examples check clean doc

all: build

build:
	dune build @all

test:
	dune runtest

# Non-test lines of code: every .ml/.mli under lib, bin, bench, tools
# and examples.
loc:
	@find lib bin bench tools examples \( -name '*.ml' -o -name '*.mli' \) \
	  | sort | xargs cat | wc -l

# Every experiment table (E1-E18); see EXPERIMENTS.md.
bench:
	dune exec bench/main.exe

# Same, plus a machine-readable per-experiment metrics dump.
bench-json:
	dune exec bench/main.exe -- --json BENCH_netobj.json

# Re-run the bench and diff CPU times against the committed baseline;
# fails on a >20% regression in any experiment above the noise floor.
bench-compare:
	dune exec bench/main.exe -- --json /tmp/bench_current.json
	dune exec tools/bench_compare.exe -- BENCH_netobj.json /tmp/bench_current.json

# One quick fixed-seed chaos run (partitions, crash+restart, bursts);
# exits non-zero if a safety or liveness oracle trips.  The cram test
# test/cram/chaos.t runs the same scenario under dune runtest.
chaos-smoke:
	dune exec bin/netobj_sim.exe -- chaos --seed 7

# The chaos seed sweep: seeds 1..12 plain, with the cycle workload and
# with call storms, plus the durable recover-smoke line.  Prints one
# verdict per run and fails unless every run reports SURVIVED.
SWEEP_SEEDS = 1 2 3 4 5 6 7 8 9 10 11 12
chaos-sweep:
	@dune build bin/netobj_sim.exe
	@sim=_build/default/bin/netobj_sim.exe; runs=0; ok=0; \
	sweep() { \
	  verdict=$$($$sim chaos "$$@" | grep '^result:'); \
	  runs=$$((runs + 1)); \
	  [ "$$verdict" = "result: SURVIVED" ] && ok=$$((ok + 1)); \
	  echo "chaos $$*: $${verdict:-no result}"; \
	}; \
	for s in $(SWEEP_SEEDS); do sweep --seed $$s; done; \
	for s in $(SWEEP_SEEDS); do sweep --seed $$s --cycles 4; done; \
	for s in $(SWEEP_SEEDS); do sweep --seed $$s --storms 2; done; \
	sweep --seed 3 --crashes 1 --crash-recovers 2 --disk-faults 2 \
	  --partitions 2 --loss-bursts 2 --dup-bursts 1 --spikes 1; \
	echo "chaos-sweep: $$ok/$$runs SURVIVED"; \
	[ $$ok -eq $$runs ]

# Quick model-checking pass: exhaust the two-space transfer scenario
# within default bounds (must be clean), re-find the historical lookup
# agent-root leak with the bug flag re-enabled (must be found), and
# explore the fsync-vs-crash recovery schedules (must be clean).
# test/cram/mc.t runs the same scenarios under dune runtest.
mc-smoke:
	dune exec bin/netobj_sim.exe -- mc --scenario dgc2
	! dune exec bin/netobj_sim.exe -- mc --scenario lookup --leak
	dune exec bin/netobj_sim.exe -- mc --scenario recover --max-schedules 300

# Durable-space smoke: the scripted crash/recovery narrative (WAL
# replay, reassert reconciliation, post-recovery drain) under the two
# interesting disk faults, plus one seeded chaos run with crash+recover
# and armed disk faults in the schedule so the survival oracle fires.
# test/cram/recover.t runs the same scenarios under dune runtest.
recover-smoke:
	dune exec bin/netobj_sim.exe -- recover --disk-fault lost-suffix
	dune exec bin/netobj_sim.exe -- recover --disk-fault torn-tail
	dune exec bin/netobj_sim.exe -- chaos --seed 3 --crashes 1 \
	  --crash-recovers 2 --disk-faults 2 --partitions 2 \
	  --loss-bursts 2 --dup-bursts 1 --spikes 1

# Real-socket smoke: the loopback conformance suite (same scenario
# scripts against the simulated network and TCP, traces diffed) plus
# the cross-process serve/connect kill-and-recover narrative.  Seconds
# scale; skips gracefully where loopback is unavailable.
# test/cram/transport.t runs the same narrative under dune runtest.
transport-smoke:
	dune exec test/test_transport_conformance.exe
	dune exec bin/netobj_sim.exe -- transport-demo --seed 7

# Benchmark smoke: the repo benchmark's two loopback-TCP workloads
# (perfbench echo and workqueue, see BENCHMARK.json) for two seconds
# each.  Fails unless each run reports "correct": true with no failed
# op.  Skips where loopback is unavailable, as transport-smoke does.
perf-smoke:
	@if ! python3 -c 'import socket; s = socket.socket(); s.bind(("127.0.0.1", 0)); s.close()' 2>/dev/null; then \
	  echo "perf-smoke: skipped (loopback unavailable)"; exit 0; \
	fi; \
	for w in echo workqueue; do \
	  out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 2 --trace 0) || exit 1; \
	  printf '%s\n' "$$out" | tail -n 1 | python3 -c 'import json, sys; d = json.load(sys.stdin); ok = d["correct"] is True and d["failed"] == 0; print("perf-smoke %s: correct=%s attempted=%d failed=%d" % (sys.argv[1], d["correct"], d["attempted"], d["failed"])); sys.exit(0 if ok else 1)' $$w || exit 1; \
	done

# Decoder fuzz smoke: the hostile-input tier (test/test_decoders.ml:
# random and mutated bytes into every decoder that takes outside input,
# each bounded in allocation) with its fixed seed at 20 times the case
# count dune runtest uses.
fuzz-smoke:
	dune exec test/test_decoders.exe -- --scale 20

# Cycle-collection smoke: the deterministic three-space ring narrative
# (leak under the listing collector, reclaim under trial deletion), a
# seeded chaos run with the cycle workload and detector demon armed,
# and the model checker over the probe-vs-transfer race: the confirm
# round must keep it clean and dropping it (skip-confirm bug) must be
# caught.  test/cram/cycles.t pins the narrative under dune runtest.
cycles-smoke:
	dune exec bin/netobj_sim.exe -- cycles
	dune exec bin/netobj_sim.exe -- chaos --seed 11 --cycles 4
	dune exec bin/netobj_sim.exe -- mc --scenario dgc-cycle --max-schedules 1200
	! dune exec bin/netobj_sim.exe -- mc --scenario dgc-cycle-broken

# Lease-plane-at-scale smoke: the deterministic aggregated-lease
# narrative (incremental aggregates vs a from-scratch table fold,
# per-pair heartbeats over thousands of entries, whole-aggregate
# eviction on a crashed client, sharded agent homes) plus the
# dedicated unit/property suite for the same machinery.
# test/cram/scale.t pins the narrative under dune runtest.
scale-smoke:
	dune exec bin/netobj_sim.exe -- scale
	dune exec test/test_scale.exe

# Domain-parallel smoke: the multi-space invoke storm across a forced
# 4-domain pool (the default pool adapts to the host's core count and
# would collapse to one domain on small machines), checked by the
# safety oracle: every call accounted for, the paper's invariants hold
# at quiescence, dirty sets drain.
par-smoke:
	NETOBJ_DOMAINS_POOL=4 dune exec bin/netobj_sim.exe -- par --seed 7 --spaces 8 --domains 4 --calls 200

# Call-reliability smoke: the deterministic narrative (retry after a
# lost call, dedup after a lost reply, shedding under a herd, cancel
# releasing reply pins), the model checker over the retry/dedup race —
# the default config must exhaust clean and re-enabling the historical
# retry-without-dedup bug must find the double execution — and a
# seeded chaos run with call storms arming the plane.
# test/cram/reliability.t pins the narrative under dune runtest.
reliability-smoke:
	dune exec bin/netobj_sim.exe -- reliability
	dune exec bin/netobj_sim.exe -- mc --scenario call-retry
	! dune exec bin/netobj_sim.exe -- mc --scenario call-retry-no-dedup
	dune exec bin/netobj_sim.exe -- chaos --seed 3 --storms 2

# The full local gate: build everything, run the test suite (unit,
# property, cram), the ten smoke targets and the chaos seed sweep.
verify: build test chaos-smoke chaos-sweep mc-smoke recover-smoke transport-smoke perf-smoke fuzz-smoke par-smoke cycles-smoke scale-smoke reliability-smoke

examples:
	dune exec examples/quickstart.exe
	dune exec examples/chatroom.exe
	dune exec examples/workqueue.exe
	dune exec examples/termination.exe
	dune exec examples/cycles.exe

# Exhaustive model check of the collector (slow worlds included).
check:
	dune exec bin/netobj_sim.exe -- check -p 2 -b 3
	dune exec bin/netobj_sim.exe -- check -p 3 -b 2
	dune exec bin/netobj_sim.exe -- fifo -p 3 -b 2

doc:
	# requires odoc (opam install odoc)
	dune build @doc

clean:
	dune clean
