#!/usr/bin/env bash
# Tier-1 gate: full build, full test suite, then the fault-injection
# suite on its own so a budget regression is visible in the CI log even
# when some other suite breaks first.
set -euo pipefail
cd "$(dirname "$0")/.."

# the dev profile (dune's default) carries -warn-error +a via the root
# env stanza, so any compiler warning fails this build
dune build @all
dune runtest

# source hygiene: no tabs, no trailing whitespace in tracked sources
fmt_bad=$(grep -rln -e '	' -e ' $' \
  --include='*.ml' --include='*.mli' --include='dune' \
  lib bin bench test 2>/dev/null || true)
if [ -n "$fmt_bad" ]; then
  echo "ci: tabs or trailing whitespace in:" >&2
  echo "$fmt_bad" >&2
  exit 1
fi

# the budget / fault-injection suite, explicitly
dune exec test/main.exe -- test budget

# the naive vs semi-naive differential oracle, explicitly
dune exec test/main.exe -- test differential

# the serve robustness suite, explicitly: the isolation barrier,
# fault-injection sweep, eviction, overload and metrics reconciliation
dune exec test/main.exe -- test serve

# the parallel-chase differential/chaos suite, explicitly: bit-identity
# to the sequential engine at 1/2/4/8 domains over the zoo and 100
# random theories, chaos scheduling inertness, fuel-trap determinism
dune exec test/main.exe -- test parallel

# the hash-consing differential suite, explicitly: unique-table
# properties, the containment fuzzing battery, memo-coherence replay,
# obs reconciliation and the serve eviction no-drift check
dune exec test/main.exe -- test hc

# the incremental-maintenance differential suite, explicitly: zoo +
# random churn batches hom-equivalent (both ways) to a from-scratch
# chase of the updated database, counter reconciliation, bailout
# bit-identity, strategy bit-identity and poisoned-state determinism
dune exec test/main.exe -- test maintain

# the multi-domain lane: the whole tier-1 suite again with every
# defaulted chase strategy forced to Parallel 4 (the env hook behind
# Chase.default_strategy), so each suite doubles as a differential
# oracle against its own sequential run above
BDDFC_TEST_DOMAINS=4 dune runtest --force

# the structural-containment lane: the whole tier-1 suite again with
# the hash-consed store switched off (every defaulted --hc forced to
# structural), so each suite doubles as a differential oracle for the
# interned run above
BDDFC_TEST_HC=structural dune runtest --force

# the CLI cram suite (exit codes, diagnostics, --strategy acceptance,
# and the bench gate self-test against doctored EX-20/EX-21 blobs)
dune build @test/cli/runtest

# the strategy agreement smoke: exits nonzero if the two chase
# evaluation strategies diverge on any bench workload or zoo entry
dune exec bench/main.exe -- --only strategy

# the join-engine smoke: compiled plans and the reference interpreter
# must agree on every workload and zoo entry, and the compiled engine's
# deterministic probe / index-op counts must stay within 10% of the
# committed EX-17 blob (wall times are informational only)
dune exec bench/main.exe -- --only eval --check BENCH_05.json

# the serve load harness: forked server children driven through
# cold/warm/overload/faulted phases.  Gated: both children exit 0,
# clean phases have zero errors, the overload burst sheds, warm p50 is
# >=5x better than cold, and the deterministic request/error counts
# (the error-rate of the seeded fault stream) match the committed
# EX-18 blob.  Latencies are reported, never gated.
dune exec bench/main.exe -- --only serve --check BENCH_06.json

# the parallel-chase smoke (EX-19): every workload at 1/2/4/8 domains
# must produce identical rounds/facts/probes/index-op counts and a
# bit-identical instance, matching the committed BENCH_07 blob exactly.
# The >= 2x speedup at 4 domains is gated only on machines with >= 4
# cores; wall times are reported either way.
dune exec bench/main.exe -- --only parallel --check BENCH_07.json

# the dataflow-analysis smoke (EX-20): every zoo entry's dataflow
# report must build and its JSON must re-parse; sliced and unsliced
# certain-answer verdicts must be identical on every slicing workload;
# the padded workloads must keep their >= 1.5x join-probe reduction;
# and the probe counts must stay within 10% of the committed EX-20
# blob.  Wall times are reported, never gated.
dune exec bench/main.exe -- --only analyze --check BENCH_08.json

# the hash-consing smoke (EX-21): every workload must produce
# byte-identical verdicts under the interned and structural containment
# backends; the depth-sweep rows must keep their >50% memo hit rate and
# the counters must stay within 10% of the committed EX-21 blob; at
# least one workload must show a >= 1.5x interned speedup (both arms
# run in the same process).  Absolute wall times are never gated.
dune exec bench/main.exe -- --only hc --check BENCH_09.json

# the incremental-maintenance smoke (EX-22): a churn stream of small
# assert/retract batches, the maintained instance bit-identical to a
# from-scratch re-chase after every batch, per-batch stats reconciling
# with the instance size, and the deterministic counters within 10% of
# the committed EX-22 blob.  The >= 5x maintained-vs-rechase speedup on
# at least one workload is gated only on machines with >= 4 cores (as
# in BENCH_07); wall times are reported either way.
dune exec bench/main.exe -- --only maintain --check BENCH_10.json

# the observability smoke: tracing must be semantically inert (same
# results, same counter deltas) and the disabled path within noise;
# the registry snapshot is archived as a BENCH_*-style blob
mkdir -p _ci_artifacts
dune exec bench/main.exe -- --only obs --metrics-out _ci_artifacts/BENCH_obs_smoke.json
python3 -m json.tool _ci_artifacts/BENCH_obs_smoke.json > /dev/null

# smoke-test the CLI exit-code contract
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# the analyzer gate: every shipped example and every zoo entry must lint
# clean (class-membership infos are fine; warnings are not)
for f in examples/programs/*.dlg; do
  dune exec bin/bddfc_cli.exe -- lint --deny-warnings "$f" > /dev/null
done
dune exec bin/bddfc_cli.exe -- zoo | awk '{print $1}' | while read -r n; do
  dune exec bin/bddfc_cli.exe -- zoo "$n" --dump > "$tmp/zoo_$n.dlg"
  dune exec bin/bddfc_cli.exe -- lint --deny-warnings "$tmp/zoo_$n.dlg" > /dev/null
done

# the analyze gate: the dataflow report must build over the whole zoo
# in every format, and the JSON must be parse-stable
for f in "$tmp"/zoo_*.dlg; do
  dune exec bin/bddfc_cli.exe -- analyze "$f" > /dev/null
  dune exec bin/bddfc_cli.exe -- analyze --format dot "$f" > /dev/null
  dune exec bin/bddfc_cli.exe -- analyze --format json "$f" \
    | python3 -m json.tool > /dev/null
done

# the Section 5.5 non-FC theory: the chase never settles the query and
# no finite countermodel exists, so only a budget can end the run
cat > "$tmp/diverge.dlg" <<'EOF'
e(X,Y) -> exists Z. e(Y,Z).
r(X,Y), e(X,X2), e(Y,Z), e(Z,Y2) -> r(X2,Y2).
e(a0,a1). r(a0,a0).
? e(X,Y), r(Y,Y).
EOF

# a non-terminating instance under --timeout must come back Unknown (4)
set +e
dune exec bin/bddfc_cli.exe -- model --timeout 2 "$tmp/diverge.dlg" >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 4 ]; then
  echo "ci: expected exit 4 (unknown) from budgeted model run, got $code" >&2
  exit 1
fi

# a malformed program must be a one-line input error (2), not a backtrace
echo 'e(X,Y -> broken' > "$tmp/bad.dlg"
set +e
dune exec bin/bddfc_cli.exe -- chase "$tmp/bad.dlg" >/dev/null 2>"$tmp/err"
code=$?
set -e
if [ "$code" -ne 2 ]; then
  echo "ci: expected exit 2 (input error) on malformed input, got $code" >&2
  exit 1
fi
if grep -q "Raised at" "$tmp/err"; then
  echo "ci: backtrace leaked to the user on malformed input" >&2
  exit 1
fi

# the serve contract: a protocol round-trip exits 0, a SIGTERM'd server
# drains, dumps its metrics and still exits 0 (never 143)
printf '{"id":1,"op":"ping"}\n{"id":2,"op":"shutdown"}\n' \
  | dune exec bin/bddfc_cli.exe -- serve > "$tmp/serve.out"
grep -q '"id":1,"ok":true,"op":"ping"' "$tmp/serve.out"
dune exec bin/bddfc_cli.exe -- serve \
  --socket "$tmp/bddfc.sock" --metrics-out "$tmp/serve_metrics.json" &
serve_pid=$!
for _ in $(seq 100); do [ -S "$tmp/bddfc.sock" ] && break; sleep 0.05; done
kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
code=$?
set -e
if [ "$code" -ne 0 ]; then
  echo "ci: expected exit 0 from SIGTERM'd serve, got $code" >&2
  exit 1
fi
python3 -m json.tool "$tmp/serve_metrics.json" > /dev/null

echo "ci: all green"
