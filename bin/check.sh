#!/bin/sh
# CI gate: full build and test suite with warnings as errors (dune's dev
# profile default), plus formatting when an .ocamlformat file is present.
# Exits nonzero on the first failure.
set -eu

cd "$(dirname "$0")/.."

# Smoke benches write their BENCH_*.json under the temp directory, never
# over the committed full-scale artifacts at the repo root; every gate
# below reads them from there.
TMPDIR="$(mktemp -d)"
export TMPDIR
trap 'rm -rf "$TMPDIR"' EXIT

# Registration guard: a test file that exists but is not named in
# test/dune silently never runs — fail loudly instead.
echo "== test registration guard =="
for f in test/test_*.ml; do
  name="$(basename "$f" .ml)"
  if ! grep -qw "$name" test/dune; then
    echo "check.sh: $f is not registered in test/dune" >&2
    exit 1
  fi
done

echo "== dune build @default =="
dune build @default

echo "== dune build @runtest =="
dune build @runtest

if [ -f .ocamlformat ]; then
  echo "== dune build @fmt =="
  dune build @fmt
fi

# Perf-regression gate: the software-TLB fast path must stay measurably
# cheaper than the legacy per-byte translation path, measured in the same
# run (bench_tlb exits nonzero otherwise in smoke mode).
echo "== bench tlb (smoke) =="
WEDGE_TLB_SMOKE=1 dune exec bench/main.exe -- tlb

# Observability gate: export a demo trace through the CLI and
# schema-validate it (the trace subcommand exits nonzero when the export
# fails Chrome-trace validation).  Byte-identical determinism across two
# seeded runs is asserted separately by examples/trace_demo.exe in
# @runtest above.
echo "== trace export (smoke) =="
trace_out="$TMPDIR/smoke.trace.json"
dune exec bin/wedge_cli.exe -- trace httpd -n 25 -o "$trace_out"
test -s "$trace_out"

# Correctness-harness gate: explore 25 seeded schedules of every cell of
# the server x feature scenario matrix (3 servers x plain melee, fault
# storm with induced hangs on the reactor, pooled storm, sharded,
# synthesized profiles = 15 cells, plus the racy control; Byzantine
# clients + armed fault plans) under the invariant oracles.  wedge_cli check exits nonzero — printing a shrunk repro
# command — if any schedule violates an invariant, a storm ends with the
# breaker open, or a frame or descriptor leaks.
echo "== schedule exploration: scenario matrix =="
dune exec bin/wedge_cli.exe -- check --scenario all --schedules 25 --seed 1

# The same matrix under PCT strict priorities: the policy whose
# scheduling depends on every blocked fiber being parked, joins included
# (a top-priority waiter left runnable would be picked forever).
echo "== schedule exploration: scenario matrix (pct) =="
dune exec bin/wedge_cli.exe -- check --scenario all --schedules 25 --seed 1 --policy pct

# The same matrix with the reference-model differential armed: every
# memory event of every address space (maps, COW breaks, protection
# changes, each access's observed bytes or fault) is replayed against an
# independent model VM, which must agree at every step.  This is the
# check that follows the page-table and frame layers end to end.
echo "== schedule exploration: scenario matrix (reference-model diff) =="
dune exec bin/wedge_cli.exe -- check --scenario all --schedules 25 --seed 1 --diff

# Recovery benchmark: the MTTR benchmark must produce its artifact
# (shrunk incident count under the smoke flag; bench_recovery exits
# nonzero if a hang client is neither cut nor turned away), and the
# artifact — simulated time only — must be byte-stable across two runs.
echo "== self-healing recovery (smoke) =="
WEDGE_RECOVERY_SMOKE=1 dune exec bench/main.exe -- recovery
test -s "$TMPDIR/BENCH_recovery.json"
cp "$TMPDIR/BENCH_recovery.json" "$TMPDIR/recovery-first.json"
WEDGE_RECOVERY_SMOKE=1 dune exec bench/main.exe -- recovery
cmp "$TMPDIR/BENCH_recovery.json" "$TMPDIR/recovery-first.json"

# Snapshot-pool gate: spawn cost must stay flat for pooled stamps while
# fresh boot scales with the image (bench_spawn exits nonzero on either
# violation, or if a stamp ever loses to a fresh boot), and the artifact
# must be byte-stable across two runs — everything is simulated time, so
# any drift is nondeterminism.
echo "== spawn pool (smoke) =="
WEDGE_SPAWN_SMOKE=1 dune exec bench/main.exe -- spawn
test -s "$TMPDIR/BENCH_spawn.json"
cp "$TMPDIR/BENCH_spawn.json" "$TMPDIR/spawn-first.json"
WEDGE_SPAWN_SMOKE=1 dune exec bench/main.exe -- spawn
cmp "$TMPDIR/BENCH_spawn.json" "$TMPDIR/spawn-first.json"

# Reactor gate: the evented serve path must beat a bench-local polling
# loop by at least 2x on the simulated clock at 1k connections (bench_reactor
# exits nonzero below 2x, or if an idle connection leaks any simulated
# cost), and BENCH_reactor.json — simulated integers only — must be
# byte-stable across two runs.
echo "== reactor (smoke) =="
WEDGE_REACTOR_SMOKE=1 dune exec bench/main.exe -- reactor
test -s "$TMPDIR/BENCH_reactor.json"
grep -q '"read_ratio_x100"' "$TMPDIR/BENCH_reactor.json"
cp "$TMPDIR/BENCH_reactor.json" "$TMPDIR/reactor-first.json"
WEDGE_REACTOR_SMOKE=1 dune exec bench/main.exe -- reactor
cmp "$TMPDIR/BENCH_reactor.json" "$TMPDIR/reactor-first.json"

# Scale-out gate: the sharded multikernel bench (CI-sized population:
# 2k pop3 + httpd + sshd connections over 1 vs 2 shards) must show >=
# 1.3x makespan speedup per service, a non-degenerate latency tail
# (p99 > p50), and the exact cross-shard shootdown count for the gtag
# rotation (bench_scale exits nonzero on any of these); and
# BENCH_scale.json — simulated integers only — must be byte-stable
# across two runs.
echo "== scale (smoke) =="
WEDGE_SCALE_SMOKE=1 dune exec bench/main.exe -- scale
test -s "$TMPDIR/BENCH_scale.json"
grep -q '"speedup_x100"' "$TMPDIR/BENCH_scale.json"
cp "$TMPDIR/BENCH_scale.json" "$TMPDIR/scale-first.json"
WEDGE_SCALE_SMOKE=1 dune exec bench/main.exe -- scale
cmp "$TMPDIR/BENCH_scale.json" "$TMPDIR/scale-first.json"

# Policy-synthesis gate: close the Crowbar loop.  Synthesize the httpd
# least-privilege profile from a recorded run and re-run the same
# workload enforced (wedge_cli synth exits nonzero on any denial, a
# failed workload, or observed accesses beyond the installed profile);
# the profile file must be byte-stable across two record runs, and 25
# explored schedules of the record->enforce scenario must stay clean.
echo "== policy synthesis (smoke) =="
synth_first="$TMPDIR/synth-first.prof"
synth_second="$TMPDIR/synth-second.prof"
dune exec bin/wedge_cli.exe -- synth httpd -o "$synth_first"
test -s "$synth_first"
dune exec bin/wedge_cli.exe -- synth httpd -o "$synth_second" --mode record
cmp "$synth_first" "$synth_second"
dune exec bin/wedge_cli.exe -- check --scenario httpd_synth --schedules 25 --seed 1

# Paper-shape gate: the simulated rows of Figure 7, Figure 8, Table 2
# and the ablations (every one a pure function of the cost model) must
# match bench/paper_shape.expected byte for byte, so a change that moves
# a paper number has to update that file on purpose.  Each bench must
# also run to completion (exit 0), including Table 2's 10 MB scp.
echo "== paper shapes: fig7 fig8 table2 ablation =="
shape_start="$(date +%s)"
shape_out="$TMPDIR/paper-shape.txt"
for b in fig7 fig8 table2 ablation; do
  dune exec bench/main.exe -- "$b"
done > "$shape_out"
diff -u bench/paper_shape.expected "$shape_out"
echo "paper shapes: $(( $(date +%s) - shape_start )) s"

echo "check.sh: all green"
