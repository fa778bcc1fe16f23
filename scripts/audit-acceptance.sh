#!/bin/sh
# Acceptance check for the live NBAC property auditor:
#
#  1. No false positives: audited runs on BOTH runtimes (in-memory mesh and
#     real TCP) with >=500 transactions per protocol and NO allowlist must
#     exit 0 — any property violation the auditor fires here fails the
#     script.
#
#  2. True positive: a made-to-order disagreement (a test module deciding
#     abort at P1 and commit elsewhere) must be flagged by the auditor as
#     an Agreement violation, delivered with a causally ordered
#     flight-recorder dump (every receive after its matching send).
#     TestAgreementViolationFlightRecorder asserts all of that.
set -e
cd "$(dirname "$0")/.."

echo "== audited mesh throughput, no allowlist (false-positive check) =="
go run ./cmd/commitbench -throughput -runtime mesh -n 4 -f 1 \
  -txns 512 -depths 16 -protocols inbac,2pc,paxoscommit -timeout 20ms -audit

echo
echo "== audited tcp throughput, no allowlist (false-positive check) =="
go run ./cmd/commitbench -throughput -runtime tcp -n 4 -f 1 \
  -txns 600 -depths 16 -protocols inbac,2pc -timeout 20ms -audit

echo
echo "== made-to-order disagreement: auditor flags Agreement, dump is causal =="
go test -run 'TestAgreementViolationFlightRecorder' -count=1 -v ./commit/ | tail -3

echo
echo "audit acceptance: PASS"
