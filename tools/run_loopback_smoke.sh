#!/usr/bin/env bash
# Loopback smoke for the wire transport: one dmt_coordinator plus one
# dmt_site process per site over 127.0.0.1, fixed seed, with --check
# asserting the wire run reproduced the in-process oracle bit-for-bit.
#
#   tools/run_loopback_smoke.sh <tools-bin-dir> [protocol]
#
# `protocol` is any registered wire protocol name (default p1). CMake
# registers one ctest per name, loopback_smoke_<name>, from its
# DMT_WIRE_PROTOCOLS list; the CI transport-smoke job runs those ctests.
set -euo pipefail

BIN_DIR=${1:?usage: run_loopback_smoke.sh <tools-bin-dir> [protocol]}
PROTOCOL=${2:-p1}

SITES=2
N=6000
CHUNK=512
EPS=0.2
SEED=7

WORKDIR=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT
PORT_FILE="$WORKDIR/port"

COMMON=(--protocol "$PROTOCOL" --sites "$SITES" --n "$N" --chunk "$CHUNK"
        --eps "$EPS" --seed "$SEED" --dim 16 --port-file "$PORT_FILE")

"$BIN_DIR/dmt_coordinator" "${COMMON[@]}" --port 0 --check \
    > "$WORKDIR/coordinator.log" 2>&1 &
COORD_PID=$!

for ((s = 0; s < SITES; ++s)); do
  "$BIN_DIR/dmt_site" "${COMMON[@]}" --site "$s" \
      > "$WORKDIR/site$s.log" 2>&1 &
done

STATUS=0
wait "$COORD_PID" || STATUS=$?
# Collect the site processes too, so a hung or failed site fails the smoke.
for job in $(jobs -p); do
  wait "$job" || STATUS=$?
done

cat "$WORKDIR/coordinator.log"
if [[ $STATUS -ne 0 ]]; then
  echo "--- site logs ---"
  cat "$WORKDIR"/site*.log
  echo "loopback smoke FAILED (exit $STATUS)" >&2
  exit "$STATUS"
fi
grep -q "EQUIVALENCE OK" "$WORKDIR/coordinator.log" || {
  echo "loopback smoke FAILED: coordinator did not report equivalence" >&2
  exit 1
}
echo "loopback smoke OK ($PROTOCOL, $SITES sites, $N arrivals)"
