#!/bin/sh
# capture-smoke: boot a three-member urcgc cluster from the real binaries
# with the frame flight recorder on, drive a burst of multicast traffic,
# then collect every member's /capture dump with urcgc-ctl replay and require
# the offline replay to reproduce a clean verdict — the end-to-end gate
# for the whole forensic pipeline: capture hooks -> ring -> /capture ->
# dump codec -> timeline merge -> deterministic replay -> invariant audit.
#
# Traffic is driven through stdin (not -chatter) so it stops before the
# captures are fetched: the atomicity audit compares survivors' processed
# sets exactly, and frames still in flight at the snapshot cut would read
# as spurious breaches. The retry loop absorbs any residual settle time.
set -eu

GO=${GO:-go}
BIN=$(mktemp -d)
trap 'kill $P0 $P1 $P2 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$BIN"' EXIT

$GO build -o "$BIN/urcgc-node" ./cmd/urcgc-node
$GO build -o "$BIN/urcgc-ctl" ./cmd/urcgc-ctl

# Fixed loopback ports, chosen high and unusual to avoid collisions (and
# distinct from the other smokes so they can share a CI job).
PEERS=127.0.0.1:17861,127.0.0.1:17862,127.0.0.1:17863
OBS0=127.0.0.1:18861
OBS1=127.0.0.1:18862
OBS2=127.0.0.1:18863

# Each member multicasts a burst of lines over stdin, then holds stdin
# open (EOF would shut the node down) while the cluster settles and the
# captures are fetched.
feed() {
    i=0
    while [ $i -lt 15 ]; do
        echo "smoke-$1-$i"
        i=$((i + 1))
        sleep 0.05
    done
    sleep 60
}
feed 0 | "$BIN/urcgc-node" -self 0 -peers "$PEERS" -metrics "$OBS0" -round 5ms -capture 16384 >"$BIN/node0.log" 2>&1 & P0=$!
feed 1 | "$BIN/urcgc-node" -self 1 -peers "$PEERS" -metrics "$OBS1" -round 5ms -capture 16384 >"$BIN/node1.log" 2>&1 & P1=$!
feed 2 | "$BIN/urcgc-node" -self 2 -peers "$PEERS" -metrics "$OBS2" -round 5ms -capture 16384 >"$BIN/node2.log" 2>&1 & P2=$!

# Let the burst decide everywhere (K subruns at round 5ms is ~tens of ms;
# the 15x50ms feeders dominate), then fetch + replay. Retries absorb a
# slow CI runner still settling its last decisions.
sleep 3
tries=0
until "$BIN/urcgc-ctl" replay -nodes "$OBS0,$OBS1,$OBS2" -save "$BIN/dumps" >"$BIN/replay.out" 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -ge 8 ]; then
        echo "capture-smoke: replay never reached a clean verdict" >&2
        cat "$BIN/replay.out" >&2
        echo "--- node 0 ---" >&2; cat "$BIN/node0.log" >&2
        echo "--- node 1 ---" >&2; cat "$BIN/node1.log" >&2
        echo "--- node 2 ---" >&2; cat "$BIN/node2.log" >&2
        exit 1
    fi
    sleep 2
done
cat "$BIN/replay.out"

# Guard against a vacuous pass: the replay must have fed real traffic.
if grep -q 'fed 0 ingress' "$BIN/replay.out"; then
    echo "capture-smoke: clean verdict but no frames were ever fed" >&2
    exit 1
fi

# The saved dumps must round-trip offline too — same clean verdict from
# the artifacts alone, the path an operator replays after the fact.
if ! "$BIN/urcgc-ctl" replay "$BIN/dumps" >"$BIN/replay-offline.out" 2>&1; then
    echo "capture-smoke: saved dumps did not replay clean" >&2
    cat "$BIN/replay-offline.out" >&2
    exit 1
fi
echo "capture-smoke: clean replay from live endpoints and saved dumps"
