#!/bin/sh
# inspect-smoke: boot a three-member urcgc cluster from the real binaries,
# point urcgc-ctl inspect at the members' observability endpoints, and require
# a healthy one-shot verdict (exit 0). This is the end-to-end gate for the
# whole health stack: core.Process's facts -> /status -> /healthz, and
# /status + /healthz -> cluster-wide reconstruction.
set -eu

# Fixed loopback ports, chosen high and unusual to avoid collisions.
NAME=inspect-smoke
PEERS=127.0.0.1:17841,127.0.0.1:17842,127.0.0.1:17843
OBS0=127.0.0.1:18841
OBS1=127.0.0.1:18842
OBS2=127.0.0.1:18843
. "$(dirname "$0")/smoke_lib.sh"

# -chatter keeps each member generating traffic (and keeps it running past
# stdin EOF); -sample 0 leaves the flight recorder off: /healthz judges
# /status alone.
for i in 0 1 2; do
    start_node "$i" "node$i" -round 5ms -sample 0 -chatter 50ms
done

# Give the group a moment to form, then require a healthy verdict; retry
# briefly so a slow CI runner's boot doesn't flake the gate.
sleep 2
wait_until 8 2 "cluster never inspected healthy" "$BIN/urcgc-ctl" inspect -nodes "$NODES" -grace 1s
echo "inspect-smoke: healthy"
