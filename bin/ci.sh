#!/bin/sh
# CI smoke script: build, run the full tier-1 test suite, then exercise
# the sharded engine end-to-end (equivalence suite + a 4-shard CLI run
# with checkpoint/resume) and the fault-injection path (crash 10% of a
# 2^10 ring, require recovery into the Theorem 2.3 band).  Exits
# non-zero on any failure.
set -eu

cd "$(dirname "$0")/.."

# Backtraces on any uncaught exception, in tests and smokes alike.
OCAMLRUNPARAM=b
export OCAMLRUNPARAM

echo "== dune build =="
dune build

echo "== lb_lint --typed: interprocedural analysis over lib/ and bin/ =="
# Syntactic R1–R5 plus the typed T1–T4 families (DESIGN.md §16):
# determinism taint through the call graph, Domain.spawn capture
# safety, the wire fingerprint/version contract, and the exit-code
# contract.  Any finding fails the build, and so does any stale waiver
# (an allow entry or annotation that suppresses nothing); exceptions
# live in bin/lint_allow or as (* lint: ... *) annotations next to the
# offending line.  The typed pass reads the .cmt trees from @check.
dune build @check
dune exec bin/lb_lint.exe -- --typed lib bin
# The same findings as machine-readable JSONL, validated by the repo's
# own JSON checker.
lint_jsonl=$(mktemp -t lb_ci_lint.XXXXXX)
dune exec bin/lb_lint.exe -- --typed --jsonl lib bin > "$lint_jsonl"
dune exec bin/jsonlint.exe -- --jsonl "$lint_jsonl"
rm -f "$lint_jsonl"

echo "== cli docs: every --help=plain renders without a cmdliner error =="
# cmdliner drops a doc string it cannot parse (a backslash-escaped @,
# say) and prints "cmdliner error" in the help page instead.
for cmd in _build/default/bin/*.exe "_build/default/bin/lb_scn.exe check" \
  "_build/default/bin/lb_scn.exe compile" "_build/default/bin/lb_scn.exe fmt" \
  "_build/default/bin/lb_scn.exe fuzz" "_build/default/bin/lb_scn.exe run"; do
  if $cmd --help=plain 2>&1 | grep 'cmdliner error' >&2; then
    echo "$cmd --help=plain printed a cmdliner error" >&2
    exit 1
  fi
done

echo "== exit contract: a graph spec the generators refuse exits 2 =="
# cycle:2 and hypercube:0 parse but cannot be built; like any bad spec
# they are configuration errors (exit 2), not uncaught exceptions (125).
for tool in lb_inspect lb_walk lb_verify; do
  for spec in cycle:2 hypercube:0; do
    rc=0
    "_build/default/bin/$tool.exe" --graph "$spec" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
      echo "$tool --graph $spec exited $rc, not 2" >&2
      exit 1
    fi
  done
done

echo "== dune runtest (tier-1 + shard equivalence + faults) =="
dune runtest

echo "== sharded CLI smoke: 4 shards, checkpoint + resume =="
ckpt=$(mktemp -t lb_ci_ckpt.XXXXXX)
trap 'rm -f "$ckpt" "$ckpt.prev"' EXIT
dune exec bin/lb_sim.exe -- --graph torus:16x16 --algo rotor-router \
  --init point:4096 --steps 200 --shards 4 \
  --checkpoint "$ckpt" --checkpoint-every 50
dune exec bin/lb_sim.exe -- --graph torus:16x16 --algo rotor-router \
  --init point:4096 --steps 200 --shards 4 \
  --checkpoint "$ckpt" --resume

echo "== fault smoke: crash 10% of a 2^10 ring, recover within Thm 2.3 band =="
# cycle(1024): d = 2, so the Theorem 2.3 bound d*min(sqrt(log n/mu), sqrt n)
# is 2*sqrt(1024) = 64.  --require-recovery exits 3 if any episode fails.
dune exec bin/lb_sim.exe -- --graph cycle:1024 --algo rotor-router \
  --init random:65536 --steps 4000 --crash-nodes 0.1@500 \
  --recovery-eps 64 --require-recovery
# Same plan, sharded: the run must replay identically and pass the same
# recovery gate.
dune exec bin/lb_sim.exe -- --graph cycle:1024 --algo rotor-router \
  --init random:65536 --steps 4000 --crash-nodes 0.1@500 \
  --recovery-eps 64 --require-recovery --shards 2

echo "== net smoke: loss=0 network and 2 shards are bit-identical to the core engine =="
# A reliable network (--drop 0) and the sharded engine must reproduce
# the synchronous engine's final load vector exactly.  Core, Shard and
# Net check every node with the one Core.Engine.node_step; rotor-router
# takes Core's kernel, send-round and rotor-router* its per-node loop.
eq_dir=$(mktemp -d -t lb_ci_eq.XXXXXX)
for algo in rotor-router "send-round --self-loops 12" rotor-router-star; do
  eq_run() {
    # $algo is split on purpose: it may carry a --self-loops flag.
    # shellcheck disable=SC2086
    dune exec bin/lb_sim.exe -- --graph torus:16x16 --algo $algo \
      --init point:4096 --steps 200 "$@" > /dev/null
  }
  eq_run --dump-loads "$eq_dir/core"
  eq_run --shards 2 --dump-loads "$eq_dir/shard"
  eq_run --drop 0 --dump-loads "$eq_dir/net"
  for engine in shard net; do
    cmp "$eq_dir/core" "$eq_dir/$engine" || {
      echo "$algo: the $engine engine diverged from the core engine" >&2
      exit 1
    }
  done
done
rm -rf "$eq_dir"

echo "== fault smoke: a crash has the same effect over the network =="
# Both engines apply fault events through Faults.Apply; on a reliable
# network a crashed run must end in the fault engine's exact loads.
crash_dir=$(mktemp -d -t lb_ci_crash.XXXXXX)
dune exec bin/lb_sim.exe -- --graph torus:16x16 --algo rotor-router \
  --init point:4096 --steps 200 --crash-nodes 0.1@50 \
  --dump-loads "$crash_dir/loads" > /dev/null
dune exec bin/lb_sim.exe -- --graph torus:16x16 --algo rotor-router \
  --init point:4096 --steps 200 --crash-nodes 0.1@50 --drop 0 \
  --dump-loads "$crash_dir/loads.net" > /dev/null
cmp "$crash_dir/loads" "$crash_dir/loads.net" || {
  echo "a crash over the loss=0 network diverged from the fault engine" >&2
  exit 1
}
rm -rf "$crash_dir"

echo "== kernel smoke: 16-bit, 32-bit and int kernel paths match the generic loop =="
# Core.Engine.run picks one of three scatter targets per round: 16-bit
# slots while no load is negative and max + d+ <= 2^16, else 32-bit
# slots while the total is at most 2^31 - 1, else an int vector;
# --audit forces the generic per-node loop.  On torus:16x16 (d+ = 8)
# point:4096 takes 16-bit slots from round 1, point:65528 too (at the
# guard's edge), point:65529 32-bit slots in round 1 and 16-bit ones
# after, point:4294967296 the int fallback; the random 8-regular graph
# with 8 self-loops is the closed-expander benchmark's family at small
# n; degrees 6 and 7 leave 2 and 3 ports after the kernel's groups of
# four; complete:40 has d = 39, past the rotor window table's d <= 31,
# so it has no kernel at all.  Each must print the audited run's
# "final disc:" line.
kernel_smoke() {
  fast=$(dune exec bin/lb_sim.exe -- "$@" --algo rotor-router --steps 200 \
    | grep '^final disc:')
  generic=$(dune exec bin/lb_sim.exe -- "$@" --algo rotor-router --steps 200 --audit \
    | grep '^final disc:')
  if [ "$fast" != "$generic" ]; then
    echo "$*: kernel path diverged from the generic loop: '$fast' vs '$generic'" >&2
    exit 1
  fi
}
kernel_smoke --graph torus:16x16 --init point:4096
kernel_smoke --graph torus:16x16 --init point:65528
kernel_smoke --graph torus:16x16 --init point:65529
kernel_smoke --graph torus:16x16 --init point:4294967296
kernel_smoke --graph random:4096,8,7 --self-loops 8 --init point:65536
kernel_smoke --graph random:4096,6,7 --self-loops 6 --init point:65536
kernel_smoke --graph random:4096,7,7 --self-loops 1 --init point:4096
kernel_smoke --graph complete:40 --init point:4096

echo "== net smoke: lossy runs replay identically under one --net-seed =="
run1=$(dune exec bin/lb_sim.exe -- --graph hypercube:6 --algo send-floor \
  --init random:8192 --steps 150 --drop 0.1 --delay 2 --staleness 2 --net-seed 7)
run2=$(dune exec bin/lb_sim.exe -- --graph hypercube:6 --algo send-floor \
  --init random:8192 --steps 150 --drop 0.1 --delay 2 --staleness 2 --net-seed 7)
if [ "$run1" != "$run2" ]; then
  echo "two identically-seeded lossy runs diverged" >&2
  exit 1
fi
# The lossy run must still close its token ledger exactly.
echo "$run1" | grep -q '(conserved)' || {
  echo "lossy run did not report a conserved ledger" >&2
  exit 1
}

echo "== workload smoke: open system over a lossy, faulty network conserves tokens =="
# Streaming Poisson arrivals with service departures, composed with a
# 10% node crash and a lossy channel.  lb_sim exits 4 if the final
# ledger (init + arrivals + fault-injected − departures − lost) does not
# balance, so a plain exit-0 run IS the conservation check.
wl=$(dune exec bin/lb_sim.exe -- --graph torus:8x8 --algo send-floor \
  --init point:512 --steps 250 --arrivals uniform --arrival-rate 24 \
  --lifetime work:24 --burst 512@100:node=3 --workload-seed 9 \
  --crash-nodes 0.1@60 --drop 0.05 --delay 1 --net-seed 4)
echo "$wl" | grep -q 'ledger conserved' || {
  echo "open-system run did not report a conserved ledger" >&2
  exit 1
}
# Identical --workload-seed must replay the identical trace.
wl2=$(dune exec bin/lb_sim.exe -- --graph torus:8x8 --algo send-floor \
  --init point:512 --steps 250 --arrivals uniform --arrival-rate 24 \
  --lifetime work:24 --burst 512@100:node=3 --workload-seed 9 \
  --crash-nodes 0.1@60 --drop 0.05 --delay 1 --net-seed 4)
if [ "$wl" != "$wl2" ]; then
  echo "two identically-seeded open-system runs diverged" >&2
  exit 1
fi

echo "== kernel smoke: open-system kernel rounds match the per-node loop =="
# An open system's plain stepper runs Core.Engine.step_into, whose rotor
# kernel picks each round between a loop that skips empty nodes and a
# dense one, from the last round's empty count (DESIGN.md §12.1).  Its
# first round skips; the arrivals at 90% of capacity then keep roughly
# a third of the nodes empty, which takes the dense loop, and the burst
# piles 20000 tokens on one node.  --drop 0 sends the same run through
# Net.Async_engine's per-node assign, which the kernel does not touch:
# the final loads must be byte-identical.
open_dir=$(mktemp -d -t lb_ci_open.XXXXXX)
open_run() {
  dune exec bin/lb_sim.exe -- --graph torus:64x64 --init point:0 --steps 200 \
    --arrivals uniform --arrival-rate 7372.8 --lifetime service:2 \
    --burst 20000@50:node=7 "$@" > /dev/null
}
open_run --dump-loads "$open_dir/loads"
open_run --drop 0 --dump-loads "$open_dir/loads.net"
cmp "$open_dir/loads" "$open_dir/loads.net" || {
  echo "open-system kernel rounds diverged from the per-node loop" >&2
  exit 1
}
rm -rf "$open_dir"

echo "== mutants: every catalogued kernel, engine, lowering, graph and prng bug is caught by its tests =="
# test/mutants/*.mut lists bugs in the rotor kernel and the packed
# targets, in the engines' node step, step_into and the sharded merge,
# in Scenario.Compile's lowering onto the engines, and in the 32-bit
# slots (Prng.Slots), the graph's edge list in them and Splitmix's
# shuffle over them; each is made
# again in a scratch copy and the test executables named for it must
# fail.  run.py itself must refuse an entry whose source text is
# absent and fail on a no-op entry that is not marked equivalent.
python3 test/mutants/run.py
mut_tmp=$(mktemp -d -t lb_ci_mut.XXXXXX)
printf 'mutant absent\nfile lib/core/loads.ml\nkills test/test_loads.exe\n@@ from\nno such text\n@@ to\n\n@@ end\n' \
  > "$mut_tmp/absent.mut"
printf 'mutant no-op\nfile lib/core/loads.ml\nkills test/test_loads.exe\n@@ from\nlet zero\n@@ to\nlet zero\n@@ end\n' \
  > "$mut_tmp/noop.mut"
for planted in absent noop; do
  if python3 test/mutants/run.py "$mut_tmp/$planted.mut" > "$mut_tmp/out" 2>&1; then
    echo "the mutants driver passed a planted $planted entry" >&2
    cat "$mut_tmp/out" >&2
    exit 1
  fi
done
rm -rf "$mut_tmp"

echo "== workload smoke: quick E17 reproduces the stability shape =="
# run_workload_sweep exits non-zero unless: bounded+conserved below
# capacity, lambda-monotone steady band, divergence detected above.
wl_json=$(mktemp -d -t lb_ci_workload.XXXXXX)
(cd "$wl_json" && "$OLDPWD/_build/default/bench/main.exe" --quick workload > /dev/null)
dune exec bin/jsonlint.exe -- "$wl_json/BENCH_workload.json"
rm -rf "$wl_json"

echo "== obs smoke: --metrics/--profile export parses =="
prom=$(mktemp -t lb_ci_obs.XXXXXX)
dune exec bin/lb_sim.exe -- --graph random:64,6,5 --algo rotor-router \
  --init point:2048 --steps 200 --metrics --metrics-out "$prom" \
  --metrics-every 10 --profile > /dev/null
test -s "$prom" || { echo "empty Prometheus export $prom" >&2; exit 1; }
grep -q '^# TYPE lb_rounds_total counter' "$prom" || {
  echo "Prometheus export is missing lb_rounds_total" >&2
  exit 1
}
grep -q '^lb_discrepancy{engine="core"} ' "$prom" || {
  echo "Prometheus export is missing the core-engine discrepancy gauge" >&2
  exit 1
}
test -s "$prom.jsonl" || { echo "empty JSONL timeline $prom.jsonl" >&2; exit 1; }
dune exec bin/jsonlint.exe -- --jsonl "$prom.jsonl"
rm -f "$prom" "$prom.jsonl"

echo "== dist smoke: lossless cluster is bit-identical to lb_sim =="
# A 4-process loopback cluster with no loss and no chaos must produce
# the exact final load vector of the single-process simulator — the
# node-side round execution mirrors Core.Engine port for port.
dist_dir=$(mktemp -d -t lb_ci_dist.XXXXXX)
dune exec bin/lb_sim.exe -- --graph hypercube:4 --algo rotor-router \
  --init point:4096 --steps 60 --dump-loads "$dist_dir/sim.loads" > /dev/null
mkdir "$dist_dir/lossless" "$dist_dir/chaos"
dune exec bin/lb_cluster.exe -- --graph hypercube:4 --algo rotor-router \
  --init point:4096 --rounds 60 --shards 4 --band none \
  --out "$dist_dir/cluster.loads" --dir "$dist_dir/lossless"
cmp "$dist_dir/sim.loads" "$dist_dir/cluster.loads" || {
  echo "lossless cluster diverged from lb_sim --dump-loads" >&2
  exit 1
}

echo "== dist smoke: 5% drop + kill -9, conserve tokens, re-enter the band =="
# Chaos run: every data frame has a 5% seeded drop chance, and shard 2
# is SIGKILLed when round 10 commits.  The coordinator must detect the
# death, abort and re-run the wounded round, respawn the shard from its
# checkpoint, and finish with the exact token total (watchdog-audited
# every commit) inside the closed-system discrepancy band (--band auto
# = the Theorem 2.3 bound for this graph).  lb_cluster exits 4 if
# either check fails.  A /metrics endpoint is scraped mid-flight.
dune exec bin/lb_cluster.exe -- --graph hypercube:4 --algo rotor-router \
  --init point:4096 --rounds 60 --shards 4 --drop 0.05 --kill 2@10 \
  --band auto --dir "$dist_dir/chaos" --metrics-port 19377 &
cluster_pid=$!
sleep 1
scrape=$(curl -sf --max-time 2 http://127.0.0.1:19377/metrics || true)
wait "$cluster_pid" || {
  echo "chaos cluster run failed (conservation or band)" >&2
  exit 1
}
echo "$scrape" | grep -q '^lb_coord_rounds_committed_total ' || {
  echo "live /metrics scrape missing lb_coord_rounds_committed_total" >&2
  exit 1
}
echo "== dist smoke: coordinator kill -9 mid-round, WAL-replay recovery =="
# The COORDINATOR is SIGKILLed when round 10 commits; the supervisor
# restarts it, the replacement replays the write-ahead log, re-adopts
# the live shards at the frozen round, and resumes.  Lossless recovery
# is exact: the final vector must still be bit-identical to lb_sim.
mkdir "$dist_dir/coord_crash"
dune exec bin/lb_cluster.exe -- --graph hypercube:4 --algo rotor-router \
  --init point:4096 --rounds 60 --shards 4 --band auto --kill-coord 10 \
  --out "$dist_dir/crash.loads" --dir "$dist_dir/coord_crash"
cmp "$dist_dir/sim.loads" "$dist_dir/crash.loads" || {
  echo "WAL-replay recovery diverged from lb_sim --dump-loads" >&2
  exit 1
}

echo "== dist smoke: healed partition conserves exactly =="
# Shard 1 is cut off from the cluster for 0.5 s: suspected, declared
# dead, frozen under a new epoch.  On heal it is fenced out of its
# stale epoch and re-admitted from a checkpoint.  lb_cluster exits 4
# unless the token total is exact and the band is re-entered.
mkdir "$dist_dir/partition"
dune exec bin/lb_cluster.exe -- --graph hypercube:4 --algo rotor-router \
  --init point:4096 --rounds 60 --shards 4 --band auto \
  --partition 1@0.4-0.9 --dir "$dist_dir/partition"
rm -rf "$dist_dir"

echo "== chaos smoke: 25 seeded fault schedules preserve the invariants =="
# lb_chaos generates scenarios (graph x init x algo x kills x terms x
# coordinator kills x partitions x loss) as a pure function of
# (--seed, index) and runs each as a real forked cluster; any broken
# invariant (conservation, band, termination) fails the run.
dune exec bin/lb_chaos.exe -- --scenarios 25 --seed 42

echo "== chaos smoke: the shrinker reduces an injected bug to a reproducer =="
# Plant a persistent audit-misreporting bug in every scenario: the
# poison budget must trip (exit 4), lb_chaos must exit 1, and the
# failing schedule must shrink to a replayable lb_cluster command line.
chaos_log=$(mktemp -t lb_ci_chaos.XXXXXX)
if dune exec bin/lb_chaos.exe -- --scenarios 2 --seed 42 \
  --inject from:0@2 --lbs-out "$chaos_log.lbs" > "$chaos_log" 2>&1; then
  echo "lb_chaos did not fail on an injected persistent misreport" >&2
  cat "$chaos_log" >&2
  exit 1
fi
grep -q 'minimal reproducer' "$chaos_log" || {
  echo "lb_chaos failed without printing a minimal reproducer" >&2
  cat "$chaos_log" >&2
  exit 1
}
grep -q 'lb_cluster --graph' "$chaos_log" || {
  echo "the minimal reproducer is not a replayable lb_cluster command" >&2
  cat "$chaos_log" >&2
  exit 1
}
# The same finding as a scenario file: it must carry the dist clause
# and pass the scenario checker.
grep -q 'dist {' "$chaos_log.lbs" || {
  echo "lb_chaos .lbs finding is missing its dist clause" >&2
  cat "$chaos_log.lbs" >&2
  exit 1
}
dune exec bin/lb_scn.exe -- check "$chaos_log.lbs" > /dev/null
rm -f "$chaos_log" "$chaos_log.lbs"

echo "== scenario smoke: the example files check, and fmt is a fixpoint =="
dune exec bin/lb_scn.exe -- check \
  examples/scenarios/e15.lbs examples/scenarios/e16.lbs \
  examples/scenarios/e17.lbs examples/scenarios/showcase.lbs
scn_tmp=$(mktemp -d -t lb_ci_scn.XXXXXX)
dune exec bin/lb_scn.exe -- fmt examples/scenarios/showcase.lbs > "$scn_tmp/1.lbs"
dune exec bin/lb_scn.exe -- fmt "$scn_tmp/1.lbs" > "$scn_tmp/2.lbs"
cmp "$scn_tmp/1.lbs" "$scn_tmp/2.lbs" || {
  echo "lb_scn fmt is not idempotent" >&2
  exit 1
}

echo "== scenario smoke: ill-typed files exit 2 with a source position =="
printf 'let main = scenario {\n  graph cycle(8)\n  init point(8)\n  balancer rotor-router\n  steps 5\n  net { staleness 2 }\n}\n' \
  > "$scn_tmp/bad.lbs"
if dune exec bin/lb_scn.exe -- check "$scn_tmp/bad.lbs" 2> "$scn_tmp/bad.err"; then
  echo "lb_scn check accepted an ill-typed scenario" >&2
  exit 1
fi
grep -q 'bad.lbs:6:3: staleness without a net layer' "$scn_tmp/bad.err" || {
  echo "lb_scn check error is missing its line:col position" >&2
  cat "$scn_tmp/bad.err" >&2
  exit 1
}

echo "== scenario golden: compiled E15/E16/E17 are byte-identical to lb_experiments =="
for e in e15 e16 e17; do
  dune exec bin/lb_scn.exe -- run --quick "examples/scenarios/$e.lbs" \
    > "$scn_tmp/scn.out"
  dune exec bin/lb_experiments.exe -- --quick "$e" > "$scn_tmp/exp.out"
  cmp "$scn_tmp/scn.out" "$scn_tmp/exp.out" || {
    echo "lb_scn run examples/scenarios/$e.lbs diverged from lb_experiments $e" >&2
    exit 1
  }
done

echo "== scenario fuzz: 200 seeded scenarios preserve the machine-wide invariants =="
dune exec bin/lb_scn.exe -- fuzz --seed 7 --count 200 > /dev/null

echo "== scenario fuzz: the shrinker reduces an injected bug to a minimal .lbs =="
if dune exec bin/lb_scn.exe -- fuzz --seed 3 --count 50 --fail-on net \
  --out "$scn_tmp/finding.lbs" > "$scn_tmp/fuzz.log" 2>&1; then
  echo "lb_scn fuzz did not fail under --fail-on net" >&2
  cat "$scn_tmp/fuzz.log" >&2
  exit 1
fi
grep -q 'minimal reproducer' "$scn_tmp/fuzz.log" || {
  echo "lb_scn fuzz failed without printing a minimal reproducer" >&2
  cat "$scn_tmp/fuzz.log" >&2
  exit 1
}
grep -q 'net {' "$scn_tmp/finding.lbs" || {
  echo "the minimal .lbs lost the layer the failure predicate needs" >&2
  cat "$scn_tmp/finding.lbs" >&2
  exit 1
}
# The finding must itself be a checkable, runnable scenario.
dune exec bin/lb_scn.exe -- check "$scn_tmp/finding.lbs" > /dev/null
dune exec bin/lb_scn.exe -- run "$scn_tmp/finding.lbs" > /dev/null
rm -rf "$scn_tmp"

echo "== bench smoke: every BENCH_*.json artifact is well-formed JSON =="
bench_json=$(mktemp -d -t lb_ci_bench.XXXXXX)
# dist runs in its own process: it forks, which OCaml 5 forbids once
# the shard section has spawned domains in the same process.
(cd "$bench_json" && "$OLDPWD/_build/default/bench/main.exe" \
  --quick dist > /dev/null)
(cd "$bench_json" && "$OLDPWD/_build/default/bench/main.exe" \
  --quick shard faults net obs > /dev/null)
dune exec bin/jsonlint.exe -- \
  "$bench_json/BENCH_shard.json" "$bench_json/BENCH_faults.json" \
  "$bench_json/BENCH_net.json" "$bench_json/BENCH_obs.json" \
  "$bench_json/BENCH_dist.json"
rm -rf "$bench_json"

# Fails unless the last perfbench result line in $perf reports
# peak_heap_mb at most $2 MB for workload $1.
peak_heap_at_most() {
  echo "$perf" | tail -n 1 | python3 -c '
import json, sys
heap = json.load(sys.stdin)["metrics"]["peak_heap_mb"]["value"]
if heap > float(sys.argv[2]):
    sys.exit("perfbench %s peak_heap_mb %.2f MB exceeds %s MB" % (sys.argv[1], heap, sys.argv[2]))
' "$1" "$2"
}

echo "== perfbench smoke: open-torus end to end for 2 s =="
# Builds and runs the repository benchmark's open-system workload.  The
# script exits non-zero on a build failure, a crash or a malformed
# result line; a failed output check (conservation, replay, band) shows
# up as "correct": false on that line.
perf=$(python3 perfbench/run.py --workload open-torus --seed 101 --seconds 2 --trace 0)
echo "$perf" | tail -n 1 | grep -q '"correct": true' || {
  echo "perfbench open-torus smoke failed its output checks" >&2
  echo "$perf" >&2
  exit 1
}
# The 256x256 torus build and the open system's buffers set this peak
# heap.  With the edge list written in place in 32-bit slots and the
# plain stepper scattering into a kept spare instead of a fresh vector
# each round, it reads 5.77 MB, deterministic for the build and seed.
peak_heap_at_most open-torus 6.5

echo "== perfbench smoke: closed-expander end to end for 2 s =="
# The only CI path that builds a 2^18-node random 8-regular graph end to
# end (pairing, repair, connectivity check) and then balances on it.
perf=$(python3 perfbench/run.py --workload closed-expander --seed 101 --seconds 2 --trace 0)
echo "$perf" | tail -n 1 | grep -q '"correct": true' || {
  echo "perfbench closed-expander smoke failed its output checks" >&2
  echo "$perf" >&2
  exit 1
}
# The graph build sets this workload's peak heap.  Built in place, it
# stays near the graph itself, an n*d-word adjacency and an edge list of
# n*d 32-bit slots (25.2 MB): it reads 27.79 MB, deterministic for one
# build and seed.
peak_heap_at_most closed-expander 31

echo "== ci.sh: all green =="
