#!/bin/sh
# trace-smoke: boot a three-member two-group urcgc cluster from the real
# binaries with lifecycle tracing on, let the chatter generate traffic,
# then require urcgc-ctl trace to stitch at least one cross-node message
# timeline out of the members' /trace reports (exit 0). This is the
# end-to-end gate for the tracing stack: per-group lifecycle spans ->
# /trace?group=N -> cross-node collection -> the (group, MID) join.
set -eu

# Fixed loopback ports, chosen high and unusual to avoid collisions (and
# distinct from inspect_smoke.sh so both smokes can run back to back).
NAME=trace-smoke
PEERS=127.0.0.1:17851,127.0.0.1:17852,127.0.0.1:17853
OBS0=127.0.0.1:18851
OBS1=127.0.0.1:18852
OBS2=127.0.0.1:18853
. "$(dirname "$0")/smoke_lib.sh"

# -groups 2 makes the (group, MID) join do real work; -chatter keeps every
# member submitting (and keeps it running past stdin EOF); -trace-slow
# enables the lifecycle tracer that /trace serves.
for i in 0 1 2; do
    start_node "$i" "node$i" -groups 2 -round 5ms -chatter 50ms -trace-slow 250ms
done

# Give the group a moment to form and chatter to flow, then require a
# non-empty stitched report (-min 1 exits 1 otherwise); retry briefly so a
# slow CI runner's boot doesn't flake the gate.
stitched() { "$BIN/urcgc-ctl" trace -nodes "$NODES" -min 1 >"$BIN/urcgc-ctl-trace.log" 2>&1; }
sleep 2
wait_until 8 2 "never stitched a message" stitched
head -2 "$BIN/urcgc-ctl-trace.log"
echo "trace-smoke: stitched"
