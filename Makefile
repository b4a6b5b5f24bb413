.PHONY: all build test lint check scenarios fuzz bench-shard bench-net \
	bench-faults bench-obs bench-workload bench-scenario bench-dist \
	bench-all perfbench mutants clean

all: build

build:
	dune build

test:
	dune runtest

# Static analysis: the syntactic R1–R5 rules plus the typed,
# interprocedural T1–T4 families over the .cmt trees — determinism
# taint, domain safety, wire contract, exit-code contract (see
# DESIGN.md §16).  Exit 1 on findings or stale waivers.
lint:
	dune build @check
	dune exec bin/lb_lint.exe -- --typed lib bin

# CI entry point: tier-1 tests plus the sharded-engine smoke (see bin/ci.sh).
check:
	sh bin/ci.sh

# Plant every bug in test/mutants/*.mut, one at a time in a scratch
# copy, and fail unless the tests listed for it fail (see
# test/mutants/run.py for the catalogue format).
mutants:
	python3 test/mutants/run.py

# Type-check, canonically format and execute the example scenarios.
scenarios:
	dune exec bin/lb_scn.exe -- check examples/scenarios/*.lbs
	dune exec bin/lb_scn.exe -- run examples/scenarios/showcase.lbs

# Fuzz 1000 generated scenarios against the machine-wide invariants
# (token conservation, drain to quiescence, replay bit-determinism).
fuzz:
	dune exec bin/lb_scn.exe -- fuzz --seed 42 --count 1000

# Refresh the strong-scaling baseline (writes BENCH_shard.json).
bench-shard:
	dune exec bench/main.exe -- shard

# Refresh the lossy-network degradation sweep (writes BENCH_net.json).
bench-net:
	dune exec bench/main.exe -- net

# Refresh the fault-recovery sweep (writes BENCH_faults.json).
bench-faults:
	dune exec bench/main.exe -- faults

# Re-measure the observability overhead; exits non-zero if probes cost
# more than the 5% budget (writes BENCH_obs.json).
bench-obs:
	dune exec bench/main.exe -- obs

# Refresh the open-system stability sweep; exits non-zero if the
# stability shape breaks (writes BENCH_workload.json).
bench-workload:
	dune exec bench/main.exe -- workload

# Re-measure scenario-fuzz throughput; exits non-zero if any generated
# scenario breaks an invariant (writes BENCH_scenario.json).
bench-scenario:
	dune exec bench/main.exe -- scenario
	dune exec bin/jsonlint.exe -- BENCH_scenario.json

# Re-measure the forked-cluster throughput and crash-recovery stall;
# exits non-zero unless every run conserves tokens (writes
# BENCH_dist.json).
bench-dist:
	dune exec bench/main.exe -- dist
	dune exec bin/jsonlint.exe -- BENCH_dist.json

# Every bench section back to back, then validate every JSON artifact
# the sections hand-write.
bench-all:
	dune exec bench/main.exe -- shard faults net obs workload scenario dist
	dune exec bin/jsonlint.exe -- \
		BENCH_shard.json BENCH_faults.json BENCH_net.json BENCH_obs.json \
		BENCH_workload.json BENCH_scenario.json BENCH_dist.json

# The repository benchmark declared in BENCHMARK.json: both workloads,
# end-to-end metrics, seed 101, about 45 s each (see README "Benchmark").
# Each run exits non-zero on a build failure, crash or malformed result.
perfbench:
	python3 perfbench/run.py --workload closed-expander --seed 101 --seconds 45 --trace 0
	python3 perfbench/run.py --workload open-torus --seed 101 --seconds 45 --trace 0

clean:
	dune clean
