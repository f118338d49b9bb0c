#!/bin/sh
# trace-smoke: boot a three-member two-group urcgc cluster from the real
# binaries with lifecycle tracing on, let the chatter generate traffic,
# then require urcgc-ctl trace to stitch at least one cross-node message
# timeline out of the members' /trace reports (exit 0). This is the
# end-to-end gate for the tracing stack: per-group lifecycle spans ->
# /trace?group=N -> cross-node collection -> the (group, MID) join.
set -eu

GO=${GO:-go}
BIN=$(mktemp -d)
trap 'kill $P0 $P1 $P2 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$BIN"' EXIT

$GO build -o "$BIN/urcgc-node" ./cmd/urcgc-node
$GO build -o "$BIN/urcgc-ctl" ./cmd/urcgc-ctl

# Fixed loopback ports, chosen high and unusual to avoid collisions (and
# distinct from inspect_smoke.sh so both smokes can run back to back).
PEERS=127.0.0.1:17851,127.0.0.1:17852,127.0.0.1:17853
OBS0=127.0.0.1:18851
OBS1=127.0.0.1:18852
OBS2=127.0.0.1:18853

# -groups 2 makes the (group, MID) join do real work; -chatter keeps every
# member submitting (and keeps it running past stdin EOF); -trace-slow
# enables the lifecycle tracer that /trace serves.
FLAGS="-peers $PEERS -groups 2 -round 5ms -chatter 50ms -trace-slow 250ms -sample 100ms"
"$BIN/urcgc-node" -self 0 $FLAGS -metrics "$OBS0" </dev/null >"$BIN/node0.log" 2>&1 & P0=$!
"$BIN/urcgc-node" -self 1 $FLAGS -metrics "$OBS1" </dev/null >"$BIN/node1.log" 2>&1 & P1=$!
"$BIN/urcgc-node" -self 2 $FLAGS -metrics "$OBS2" </dev/null >"$BIN/node2.log" 2>&1 & P2=$!

# Give the group a moment to form and chatter to flow, then require a
# non-empty stitched report (-min 1 exits 1 otherwise); retry briefly so a
# slow CI runner's boot doesn't flake the gate.
sleep 2
tries=0
until "$BIN/urcgc-ctl" trace -nodes "$OBS0,$OBS1,$OBS2" -min 1 >"$BIN/report.txt" 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 8 ]; then
        echo "trace-smoke: never stitched a message" >&2
        echo "--- urcgc-ctl trace ---" >&2; cat "$BIN/report.txt" >&2
        echo "--- node 0 ---" >&2; cat "$BIN/node0.log" >&2
        echo "--- node 1 ---" >&2; cat "$BIN/node1.log" >&2
        echo "--- node 2 ---" >&2; cat "$BIN/node2.log" >&2
        exit 1
    fi
    sleep 2
done
head -2 "$BIN/report.txt"
echo "trace-smoke: stitched"
