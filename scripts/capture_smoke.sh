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

# Fixed loopback ports, chosen high and unusual to avoid collisions (and
# distinct from the other smokes so they can share a CI job).
NAME=capture-smoke
PEERS=127.0.0.1:17861,127.0.0.1:17862,127.0.0.1:17863
OBS0=127.0.0.1:18861
OBS1=127.0.0.1:18862
OBS2=127.0.0.1:18863
. "$(dirname "$0")/smoke_lib.sh"

# Each member multicasts a burst of lines over stdin, then holds stdin
# open (EOF would shut the node down) while the cluster settles and the
# captures are fetched, until the harness removes $BIN on exit.
feed() {
    j=0
    while [ $j -lt 15 ]; do
        echo "smoke-$1-$j"
        j=$((j + 1))
        sleep 0.05
    done
    while [ -d "$BIN" ]; do sleep 0.2; done
}
FEED=feed
for i in 0 1 2; do
    start_node "$i" "node$i" -round 5ms -capture 16384
done

# Let the burst decide everywhere (K subruns at round 5ms is ~tens of ms;
# the 15x50ms feeders dominate), then fetch + replay. Retries absorb a
# slow CI runner still settling its last decisions.
replayed() { "$BIN/urcgc-ctl" replay -nodes "$NODES" -save "$BIN/dumps" >"$BIN/replay.log" 2>&1; }
sleep 3
wait_until 8 2 "replay never reached a clean verdict" replayed
cat "$BIN/replay.log"

# Guard against a vacuous pass: the replay must have fed real traffic.
if grep -q 'fed 0 ingress' "$BIN/replay.log"; then
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
