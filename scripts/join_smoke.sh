#!/bin/sh
# join-smoke: boot a three-member urcgc cluster from the real binaries,
# kill -9 one member, let the survivors exclude it, then restart it with
# -join and require the full end-to-end rejoin: state transfer from a live
# member, re-admission into every view, /healthz 200 on all members, and a
# healthy one-shot urcgc-ctl inspect verdict. This is the end-to-end gate for
# dynamic membership: Join/JoinState PDUs -> core join state machine ->
# rt restart -> joining status/health -> inspect informational kind.
# Last, the rejoined member is stalled past K subruns, and must leave the
# group and exit when it resumes.
set -eu

# Fixed loopback ports, chosen high and unusual to avoid collisions (and
# distinct from inspect_smoke/trace_smoke so the smokes can run in one CI
# job without racing each other's sockets).
NAME=join-smoke
PEERS=127.0.0.1:17851,127.0.0.1:17852,127.0.0.1:17853
OBS0=127.0.0.1:18851
OBS1=127.0.0.1:18852
OBS2=127.0.0.1:18853
. "$(dirname "$0")/smoke_lib.sh"

# preserve_captures saves the live members' frame flight recorders to
# URCGC_CAPTURE_DIR (CI exports it and uploads the dumps as artifacts),
# so a failed gate can be replayed offline with urcgc-ctl replay.
preserve_captures() {
    [ -n "${URCGC_CAPTURE_DIR:-}" ] || return 0
    mkdir -p "$URCGC_CAPTURE_DIR"
    for i in 0 1 2; do
        eval "obs=\$OBS$i"
        if curl -fsS "http://$obs/capture" -o "$URCGC_CAPTURE_DIR/capture-node$i.bin" 2>/dev/null; then
            echo "join-smoke: saved $URCGC_CAPTURE_DIR/capture-node$i.bin (replay with urcgc-ctl replay)" >&2
        fi
    done
}
ON_FAIL=preserve_captures

# -chatter keeps each member generating traffic (the protocol's silence
# detection and the joiner's re-admission both need live subruns).
FLAGS="-round 5ms -chatter 50ms -capture 16384"
for i in 0 1 2; do
    start_node "$i" "node$i" $FLAGS
done

# Phase 1: the cluster forms and inspects healthy.
inspected() { "$BIN/urcgc-ctl" inspect -nodes "$NODES" -grace 1s >/dev/null; }
sleep 2
wait_until 8 2 "cluster never inspected healthy" inspected

# Phase 2: kill -9 member 2; the survivors' silence detection must
# exclude it from the view (alive mask [true true false] at member 0).
kill -9 "$P2"
wait "$P2" 2>/dev/null || true
echo "join-smoke: killed member 2, waiting for exclusion"
excluded() { curl -fsS "http://$OBS0/status" 2>/dev/null | grep -q 'alive.*\[true true false\]'; }
wait_until 60 0.5 "survivors never excluded the killed member" excluded

# Phase 3: restart member 2 with -join. It must state-transfer, be
# re-admitted into every member's view, and log the completed join.
start_node 2 node2-rejoin $FLAGS -join
echo "join-smoke: restarted member 2 with -join"
rejoined_log() { grep -q 'rejoined group 0' "$BIN/node2-rejoin.log"; }
wait_until 60 0.5 "restarted member never completed its join" rejoined_log
readmitted() {
    for obs in "$OBS0" "$OBS1" "$OBS2"; do
        curl -fsS "http://$obs/status" 2>/dev/null | grep -q 'alive.*\[true true true\]' || return 1
    done
}
wait_until 60 0.5 "views never re-admitted the restarted member" readmitted

# Phase 4: /healthz answers 200 on every member (neither the joiner's
# facts, restarted at its admission, nor the survivors' exclusion of its old
# incarnation may leave a lingering 503), and the cluster-wide verdict is
# healthy again — the joining state may appear only informationally.
healthz_ok() {
    for obs in "$OBS0" "$OBS1" "$OBS2"; do
        curl -fsS "http://$obs/healthz" >/dev/null 2>&1 || return 1
    done
}
wait_until 30 1 "a member still answers /healthz 503 after the rejoin" healthz_ok
wait_until 8 2 "cluster never inspected healthy after the rejoin" inspected
echo "join-smoke: member 2 rejoined; cluster healthy"

# Phase 5: a member that leaves exits. The chatter members stop, and three
# quiet ones (-k 3 -round 20ms, stdin held open) take their addresses, so no
# processed message is in flight around the leave. SIGSTOP member 2 for 2 s,
# far past K subruns: the survivors exclude it, and once resumed it learns it
# was declared crashed and leaves. It must say so and exit — its listener
# closes — rather than linger out of the group.
kill "$P0" "$P1" "$P2" 2>/dev/null || true
wait "$P0" "$P1" "$P2" 2>/dev/null || true
hold() { while [ -d "$BIN" ]; do sleep 0.2; done; }
FEED=hold
for i in 0 1 2; do
    start_node "$i" "quiet$i" -k 3 -round 20ms
done
wait_until 60 0.5 "the quiet cluster never formed" readmitted
kill -STOP "$P2"
sleep 2
kill -CONT "$P2"
echo "join-smoke: stalled member 2 for 2s, waiting for it to leave and exit"
left_and_exited() {
    grep -q 'member left the group' "$BIN/quiet2.log" &&
        ! curl -fsS "http://$OBS2/status" >/dev/null 2>&1
}
wait_until 40 0.5 "stalled member 2 never left the group and exited" left_and_exited
echo "join-smoke: member 2 left the group and exited"
