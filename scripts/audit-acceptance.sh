#!/bin/sh
# The audited smokes, in one place (CI runs this script).
#
#  1. No false positives: commitbench's live mode on all three runtimes —
#     the in-memory mesh at tight U, loopback TCP, and the kv store over
#     sockets shaped by the us-eu-ap profile at two read fractions — with
#     the live NBAC auditor attached and no allowlist. Any property
#     violation (agreement, validity, stability, termination) exits 3 and
#     fails the script; so does a transaction that ends in an error. Each
#     kv run has two cells, so one auditor sees consecutive cells.
#
#  2. True positive: a made-to-order disagreement (a test module deciding
#     abort at P1 and commit elsewhere) must be flagged by the auditor as
#     an Agreement violation, delivered with a causally ordered
#     flight-recorder dump (every receive after its matching send).
#     TestAgreementViolationFlightRecorder asserts all of that.
#
# Leaves audit-*.json summaries in the repository root, and anomaly-*.json
# dumps if anything fired (both ignored by git, both uploaded by CI).
set -e
cd "$(dirname "$0")/.."
run() { name=$1; shift; go run ./cmd/commitbench -throughput -n 4 -f 1 -trace -audit -audit-json "audit-$name.json" "$@"; }

echo "== audited mesh, U = 5ms =="
run mesh -runtime mesh -txns 2048 -depths 16,64 -protocols inbac,2pc -timeout 5ms

echo
echo "== audited tcp =="
run tcp -runtime tcp -txns 600 -depths 16 -protocols inbac,2pc -timeout 20ms

for reads in 0.5 0.9; do
  echo
  echo "== audited kv over us-eu-ap, $reads reads =="
  run "kv-geo-$reads" -runtime kv -geo us-eu-ap -txns 24 -depths 2,4 -protocols inbac \
    -kv-thetas 0.7 -kv-keys 256 -kv-readfrac "$reads"
done

echo
echo "== made-to-order disagreement: auditor flags Agreement, dump is causal =="
go test -run 'TestAgreementViolationFlightRecorder' -count=1 ./commit/

echo
echo "audit acceptance: PASS"
