#!/bin/sh
# lb_sim's command-line golden.
#
#   sh test/golden/lb_sim.sh PATH/TO/lb_sim.exe > lb_sim.out
#
# Runs every lb_sim command of README.md, .claude/skills/verify/SKILL.md
# and bin/ci.sh (scaled to at most 4096 nodes), and each engine path,
# option family and exit code besides, and prints one transcript: the
# command, its stdout, its stderr (each line prefixed "stderr: ") and a
# non-zero exit code as "[N]".  The dune rule beside this script diffs
# the transcript against lb_sim.expected.  Only wall-clock output is
# filtered: the sharded engine's "throughput: ... steps/sec" line, the
# lb_round_seconds histogram of a --metrics scrape and the --profile
# table.  Files a command writes (checkpoints, --dump-loads vectors,
# metrics) live in a scratch directory, removed on exit, and are shown
# by their checksum or a few grepped lines.
set -u

case "$1" in
  /*) exe=$1 ;;
  *) exe=$(pwd)/$1 ;;
esac
work=$(mktemp -d "${TMPDIR:-/tmp}/lb_sim_golden.XXXXXX")
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

sim() {
  echo "\$ lb_sim $*"
  rc=0
  "$exe" "$@" > out 2> err || rc=$?
  sed -e '/^throughput: .* steps\/sec (.*wall)$/d' \
    -e '/^lb_round_seconds_bucket/d' -e '/^lb_round_seconds_sum/d' \
    -e '/^--- profile/,$d' out
  sed 's/^/stderr: /' err
  if [ "$rc" -ne 0 ]; then echo "[$rc]"; fi
}

# A written file by its checksum and length.
sum() {
  echo "\$ cksum $1"
  if [ -f "$1" ]; then cksum < "$1"; else echo "(no file)"; fi
}

section() {
  echo
  echo "## $*"
}

section "README.md"
sim --graph torus:16x16 --algo send-round --init point:4096 --target 8 --audit
sim --graph torus:64x64 --algo rotor-router --init point:65536 --steps 200 \
  --shards 4 --partition bfs
sim --graph random:4096,8,1 --algo rotor-router --init point:65536 --steps 300 \
  --shards 8 --checkpoint run.ckpt --checkpoint-every 50
sim --graph random:4096,8,1 --algo rotor-router --init point:65536 --steps 400 \
  --shards 8 --checkpoint run.ckpt --resume
sim --graph cycle:1024 --algo rotor-router --init random:65536 --steps 4000 \
  --crash-nodes 0.1@500 --recovery-eps 64 --require-recovery
sim --graph torus:16x16 --algo send-floor --steps 2000 --fault-seed 7 \
  --fault-plan "crash:0.05@200:keep:spill; outage:0.1@600+50; shock:500@1200"
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 500 \
  --drop 0.05 --staleness 2
sim --graph torus:16x16 --algo rotor-router --init point:0 --steps 1000 \
  --arrivals uniform --arrival-rate 64 --burst 4096@500 --lifetime service:1 \
  --workload-seed 7
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 500 \
  --metrics --profile
sim --graph hypercube:6 --algo send-floor --init random:8192 --steps 150 \
  --drop 0.1 --delay 2 --staleness 2 --net-seed 7 --metrics-out sim.prom \
  --metrics-every 25
grep -c '' sim.prom.jsonl
grep '^lb_rounds_total\|^lb_discrepancy' sim.prom
sim --graph hypercube:4 --algo rotor-router --init point:4096 --steps 60 \
  --dump-loads sim.loads
sum sim.loads

section "lb_sim.ml header"
sim --graph cycle:64 --algo rotor-router --init point:512
sim --graph torus:16x16 --algo send-round --self-loops 12 \
  --horizon continuous:2 --target 8 --audit
sim --graph random:256,6,42 --algo mimic --steps 500 --series
sim --graph torus:64x64 --algo rotor-router --steps 400 --shards 4 \
  --partition bfs --checkpoint hdr.ckpt --checkpoint-every 100
sim --graph torus:64x64 --algo rotor-router --steps 600 --shards 4 \
  --partition bfs --checkpoint hdr.ckpt --resume
sim --graph torus:16x16 --algo send-floor --steps 2000 \
  --fault-plan "crash:0.05@200:keep:spill; outage:0.1@600+50; shock:500@1200" \
  --fault-seed 7 --require-recovery

section "SKILL.md: core, shards, checkpoint/resume"
sim --graph torus:32x32 --algo rotor-router --init point:16384 --steps 200
sim --graph torus:32x32 --algo rotor-router --init point:16384 --steps 200 \
  --shards 4 --partition bfs
sim --graph torus:32x32 --algo rotor-router --init point:16384 --steps 200 \
  --checkpoint x.ckpt --checkpoint-every 50
sim --graph torus:32x32 --algo rotor-router --init point:16384 --steps 260 \
  --checkpoint x.ckpt --resume

section "SKILL.md: unreliable network"
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 300 \
  --drop 0.05 --staleness 2
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 300 \
  --drop 0
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 300 \
  --drop 0.05 --staleness 2 --net-seed 5
sim --graph torus:16x16 --init point:4096 --steps 50 --drop 1.0
sim --graph torus:16x16 --init point:4096 --steps 50 --drop 0.1 --staleness=-1
sim --graph torus:16x16 --init point:4096 --steps 50 --drop 0.1 --retx-timeout 0
sim --graph torus:16x16 --init point:4096 --steps 50 --drop 0.1 --retx-backoff bogus
sim --graph torus:16x16 --init point:4096 --steps 50 --drop 0.1 --shards 2
sim --graph torus:16x16 --init point:4096 --steps 50 --drop 0.1 --audit
sim --graph torus:16x16 --init point:4096 --steps 50 --drop 0.1 --target 5
sim --graph torus:16x16 --init point:4096 --steps 50 --drop 0.1 \
  --crash-nodes 0.1@5 --require-recovery
sim --graph torus:16x16 --init point:4096 --steps 50 --drop 0.1 --checkpoint n.ckpt
sim --graph torus:16x16 --algo mimic --init point:4096 --steps 100 --drop 0.3 \
  --staleness 1 --no-degrade
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 200 \
  --drop 0.05 --retx-timeout 2 --retx-backoff fixed \
  --fault-plan "outage:0.2@50+30"

section "SKILL.md: observability"
sim --graph torus:32x32 --algo rotor-router --init point:16384 --steps 200 \
  --metrics --metrics-out m.prom --metrics-every 10 --profile
grep '^# TYPE lb_rounds_total' m.prom
grep -c '' m.prom.jsonl
sim --graph torus:16x16 --steps 20 --metrics-every 0
sim --graph torus:16x16 --steps 20 --metrics-every=-3
sim --graph torus:16x16 --steps 20 --metrics-out /nonexistent-dir/x
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 30 \
  --fault-plan "shock:5000@29" --require-recovery --metrics-out r.prom
grep 'unrecovered' r.prom
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 200 \
  --crash-nodes 0.2@40

section "SKILL.md: gotchas and probes"
sim --graph torus:16x16 --steps=-5
sim --graph torus:16x16 --steps -5
printf 'not a checkpoint\n' > bad.ckpt
sim --graph torus:32x32 --algo rotor-router --init point:16384 --steps 260 \
  --checkpoint bad.ckpt --resume
head -c 100 x.ckpt > trunc.ckpt
sim --graph torus:32x32 --algo rotor-router --init point:16384 --steps 260 \
  --checkpoint trunc.ckpt --resume
sim --graph torus:16x16 --algo rotor-router --init point:16384 --steps 260 \
  --checkpoint x.ckpt --resume
sim --graph torus:32x32 --algo rotor-router --init point:16384 --steps 100 \
  --checkpoint x.ckpt --resume
sim --graph torus:16x16 --algo mimic --init point:4096 --steps 100 \
  --checkpoint m.ckpt
sim --graph torus:16x16 --steps 20 --shards 0
sim --graph torus:16x16 --steps 20 --shards 2 --partition bogus
sim --graph torus:16x16 --steps 20 --shards 2 --resume
sim --graph torus:16x16 --steps 20 --domains 2
sim --graph torus:16x16 --steps 20 --domains 0

section "bin/ci.sh: sharded checkpoint/resume"
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 200 \
  --shards 4 --checkpoint ci.ckpt --checkpoint-every 50
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 200 \
  --shards 4 --checkpoint ci.ckpt --resume

section "bin/ci.sh: fault smoke, sequential and sharded"
sim --graph cycle:1024 --algo rotor-router --init random:65536 --steps 4000 \
  --crash-nodes 0.1@500 --recovery-eps 64 --require-recovery --shards 2

section "bin/ci.sh: core, shard and loss-free net loads"
for algo in rotor-router "send-round --self-loops 12" rotor-router-star; do
  # $algo is split on purpose: it may carry a --self-loops flag.
  # shellcheck disable=SC2086
  sim --graph torus:16x16 --algo $algo --init point:4096 --steps 200 \
    --dump-loads core.loads
  sum core.loads
  # shellcheck disable=SC2086
  sim --graph torus:16x16 --algo $algo --init point:4096 --steps 200 \
    --shards 2 --dump-loads shard.loads
  sum shard.loads
  # shellcheck disable=SC2086
  sim --graph torus:16x16 --algo $algo --init point:4096 --steps 200 \
    --drop 0 --dump-loads net.loads
  sum net.loads
done

section "bin/ci.sh: a crash over the fault engine and the loss-free net"
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 200 \
  --crash-nodes 0.1@50 --dump-loads crash.loads
sum crash.loads
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 200 \
  --crash-nodes 0.1@50 --drop 0 --dump-loads crash.net.loads
sum crash.net.loads

section "bin/ci.sh: kernel paths against the audited loop"
for graph in "torus:16x16 --init point:4096" "torus:16x16 --init point:65528" \
  "torus:16x16 --init point:65529" "torus:16x16 --init point:4294967296" \
  "random:4096,8,7 --self-loops 8 --init point:65536" \
  "random:4096,6,7 --self-loops 6 --init point:65536" \
  "random:4096,7,7 --self-loops 1 --init point:4096" \
  "complete:40 --init point:4096"; do
  # shellcheck disable=SC2086
  sim --graph $graph --algo rotor-router --steps 200
  # shellcheck disable=SC2086
  sim --graph $graph --algo rotor-router --steps 200 --audit
done

section "bin/ci.sh: lossy replay"
sim --graph hypercube:6 --algo send-floor --init random:8192 --steps 150 \
  --drop 0.1 --delay 2 --staleness 2 --net-seed 7

section "bin/ci.sh: open system over a lossy, faulty network"
sim --graph torus:8x8 --algo send-floor --init point:512 --steps 250 \
  --arrivals uniform --arrival-rate 24 --lifetime work:24 \
  --burst 512@100:node=3 --workload-seed 9 --crash-nodes 0.1@60 --drop 0.05 \
  --delay 1 --net-seed 4

section "bin/ci.sh: open-system kernel rounds and the per-node loop"
sim --graph torus:64x64 --init point:0 --steps 200 --arrivals uniform \
  --arrival-rate 7372.8 --lifetime service:2 --burst 20000@50:node=7 \
  --dump-loads open.loads
sum open.loads
sim --graph torus:64x64 --init point:0 --steps 200 --arrivals uniform \
  --arrival-rate 7372.8 --lifetime service:2 --burst 20000@50:node=7 \
  --drop 0 --dump-loads open.net.loads
sum open.net.loads

section "bin/ci.sh: obs smoke"
sim --graph random:64,6,5 --algo rotor-router --init point:2048 --steps 200 \
  --metrics --metrics-out obs.prom --metrics-every 10 --profile
grep '^lb_discrepancy{engine="core"}' obs.prom

section "horizons"
sim --graph torus:16x16 --algo rotor-router --init point:4096 --horizon mixing:2
sim --graph torus:16x16 --algo rotor-router --init point:4096 --horizon mixing:1 \
  --shards 2 --target 20
sim --graph hypercube:5 --algo send-floor --init bimodal:64,0 \
  --horizon continuous:1.5 --series
sim --graph cycle:32 --algo rotor-router --init point:256 --horizon continuous:1 \
  --crash-nodes 0.1@5
sim --graph cycle:32 --algo rotor-router --init point:256 --horizon mixing:0.5 \
  --drop 0.1
sim --graph torus:16x16 --horizon mixing:0
sim --graph torus:16x16 --horizon continuous:x
sim --graph torus:16x16 --horizon nope:1
sim --graph torus:16x16 --steps 5 --horizon mixing:1

section "series on every engine"
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 130 \
  --series
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 130 \
  --shards 2 --series
sim --graph torus:16x16 --algo rotor-router --init point:4096 --steps 130 \
  --crash-nodes 0.1@50 --series
sim --graph torus:8x8 --algo rotor-router --init point:4096 --steps 30 \
  --drop 0.1 --series
sim --graph torus:8x8 --algo send-floor --init point:64 --steps 40 \
  --arrivals uniform --arrival-rate 8 --lifetime service:1 --series

section "randomized balancers: the sharded fault engine is its own trajectory"
sim --graph torus:16x16 --algo random-extra --init point:4096 --steps 200 \
  --crash-nodes 0.1@50 --seed 3 --series --dump-loads seq.loads
sum seq.loads
sim --graph torus:16x16 --algo random-extra --init point:4096 --steps 200 \
  --crash-nodes 0.1@50 --seed 3 --shards 2 --series --dump-loads sharded.loads
sum sharded.loads
sim --graph torus:16x16 --algo random-rounding --init point:4096 --steps 200 \
  --fault-plan "shock:300@20:node=5; outage:0.3@40+10" --fault-seed 11 \
  --shards 3 --partition round-robin --recovery-eps 10
sim --graph torus:16x16 --algo random-extra --init point:4096 --steps 100 \
  --shards 2 --seed 9 --dump-loads rx.loads
sum rx.loads

section "open systems: plain, faulty, lossy"
sim --graph torus:8x8 --algo rotor-router --init point:64 --steps 300 \
  --arrivals bursty --arrival-rate 30 --lifetime geometric:4 --workload-seed 3
sim --graph torus:8x8 --algo rotor-router --init point:64 --steps 300 \
  --arrivals bursty:50,0.8 --arrival-rate 30 --lifetime fixed:3 --warmup 20
sim --graph torus:8x8 --algo send-floor --init point:64 --steps 300 \
  --arrivals point:5 --arrival-rate 12.4 --hotspot 3 --lifetime service:1 \
  --burst 100@40+5:node=9
sim --graph torus:8x8 --algo send-floor --init point:64 --steps 300 \
  --arrivals hotspot --arrival-rate 6 --lifetime immortal
sim --graph torus:8x8 --algo rotor-router --init point:64 --steps 300 \
  --hotspot 2 --lifetime work:3
sim --graph torus:8x8 --algo rotor-router --init point:64 --steps 300 \
  --burst 500@10
sim --graph torus:8x8 --algo rotor-router --init point:64 --steps 200 \
  --arrivals uniform --arrival-rate 40 --lifetime service:1 \
  --fault-plan "crash:0.1@50:keep:spill; shock:200@80; outage:0.2@100+20" \
  --fault-seed 5 --dump-loads faulty.loads
sum faulty.loads
sim --graph torus:8x8 --algo rotor-router --init point:64 --steps 200 \
  --arrivals uniform --arrival-rate 40 --lifetime service:1 --drop 0.1 \
  --reorder 0.1 --dup 0.05 --retx-timeout 3 --retx-backoff fixed --net-seed 2
sim --graph torus:8x8 --steps 20 --arrivals bogus
sim --graph torus:8x8 --steps 20 --arrivals bursty:0,0.5
sim --graph torus:8x8 --steps 20 --arrivals point:-1
sim --graph torus:8x8 --steps 20 --burst 5@0
sim --graph torus:8x8 --steps 20 --burst 5@3:node=x
sim --graph torus:8x8 --steps 20 --hotspot=-2
sim --graph torus:8x8 --steps 20 --arrivals uniform --lifetime forever
sim --graph torus:8x8 --steps 20 --arrivals uniform --warmup=-1
sim --graph torus:8x8 --arrivals uniform --horizon mixing:1
sim --graph torus:8x8 --steps 20 --arrivals uniform --audit
sim --graph torus:8x8 --steps 20 --arrivals uniform --target 3
sim --graph torus:8x8 --steps 20 --arrivals uniform --shards 2
sim --graph torus:8x8 --steps 20 --arrivals uniform --recovery-eps 3
sim --graph torus:8x8 --steps 20 --lifetime service:1

section "flag validation"
sim --graph torus:7x8 --steps 20
sim --graph cycle:2 --steps 20
sim --graph torus:8x8 --steps 20 --init point:-3
sim --graph torus:8x8 --steps 20 --algo nosuch
sim --graph torus:8x8 --steps 20 --algo send-round --self-loops 1
sim --graph torus:8x8 --steps 20 --self-loops=-1
sim --graph torus:8x8 --steps 20 --checkpoint-every 0
sim --graph torus:8x8 --steps 20 --fault-plan "melt:0.1@3"
sim --graph torus:8x8 --steps 20 --crash-nodes 2@3
sim --graph torus:8x8 --steps 20 --edge-outage 0.1@3
sim --graph torus:8x8 --steps 20 --edge-outage 0.1@3+2 --checkpoint f.ckpt
sim --graph torus:8x8 --steps 20 --crash-nodes 0.1@3 --audit
sim --graph torus:8x8 --steps 20 --crash-nodes 0.1@3 --target 3
sim --graph torus:8x8 --steps 20 --crash-nodes 0.1@3 --recovery-eps=-1
sim --graph torus:8x8 --steps 20 --recovery-eps 3
sim --graph torus:8x8 --steps 20 --fault-plan "shock:5@3:node=999"
sim --graph torus:8x8 --steps 20 --drop 0.1 --fault-plan "shock:5@3:node=999"
sim --graph torus:8x8 --steps 20 --arrivals uniform \
  --fault-plan "shock:5@3:node=999"

section "invariant violations (exit 4)"
sim --graph cycle:3 --init point:30 --steps 5 --drop 0.9999
sim --graph cycle:3 --init point:30 --steps 5 --drop 0.9999 --arrivals uniform
