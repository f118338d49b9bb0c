#!/bin/sh
# inspect-smoke: boot a three-member urcgc cluster from the real binaries,
# point urcgc-ctl inspect at the members' observability endpoints, and require
# a healthy one-shot verdict (exit 0). This is the end-to-end gate for the
# whole health stack: core callbacks -> rt gauges -> flight recorder ->
# /healthz + /timeseries -> cluster-wide reconstruction.
set -eu

GO=${GO:-go}
BIN=$(mktemp -d)
trap 'kill $P0 $P1 $P2 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$BIN"' EXIT

$GO build -o "$BIN/urcgc-node" ./cmd/urcgc-node
$GO build -o "$BIN/urcgc-ctl" ./cmd/urcgc-ctl

# Fixed loopback ports, chosen high and unusual to avoid collisions.
PEERS=127.0.0.1:17841,127.0.0.1:17842,127.0.0.1:17843
OBS0=127.0.0.1:18841
OBS1=127.0.0.1:18842
OBS2=127.0.0.1:18843

# -chatter keeps each member generating traffic (and keeps it running past
# stdin EOF); -sample 100ms gives the flight recorder a fast window.
"$BIN/urcgc-node" -self 0 -peers "$PEERS" -metrics "$OBS0" -round 5ms -sample 100ms -chatter 50ms </dev/null >"$BIN/node0.log" 2>&1 & P0=$!
"$BIN/urcgc-node" -self 1 -peers "$PEERS" -metrics "$OBS1" -round 5ms -sample 100ms -chatter 50ms </dev/null >"$BIN/node1.log" 2>&1 & P1=$!
"$BIN/urcgc-node" -self 2 -peers "$PEERS" -metrics "$OBS2" -round 5ms -sample 100ms -chatter 50ms </dev/null >"$BIN/node2.log" 2>&1 & P2=$!

# Give the group a moment to form, then require a healthy verdict; retry
# briefly so a slow CI runner's boot doesn't flake the gate.
sleep 2
tries=0
until "$BIN/urcgc-ctl" inspect -nodes "$OBS0,$OBS1,$OBS2" -grace 1s; do
    tries=$((tries + 1))
    if [ "$tries" -ge 8 ]; then
        echo "inspect-smoke: cluster never inspected healthy" >&2
        echo "--- node 0 ---" >&2; cat "$BIN/node0.log" >&2
        echo "--- node 1 ---" >&2; cat "$BIN/node1.log" >&2
        echo "--- node 2 ---" >&2; cat "$BIN/node2.log" >&2
        exit 1
    fi
    sleep 2
done
echo "inspect-smoke: healthy"
