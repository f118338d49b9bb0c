# smoke_lib.sh is the harness the *_smoke.sh gates share. A script sets NAME
# (its log prefix), PEERS (the three members' loopback UDP addresses) and
# OBS0..OBS2 (their observability endpoints), then sources this file, which
#   - builds urcgc-node and urcgc-ctl into a temporary directory, $BIN;
#   - on exit stops every member it started, removes $BIN (a feeder holding a
#     member's stdin open can wait for that) and waits for them all;
#   - sets NODES, the endpoint list urcgc-ctl -nodes takes.
# Member logs are $BIN/<name>.log; every *.log there is printed on failure.

set -eu

GO=${GO:-go}
BIN=$(mktemp -d)
PIDS=""
NODES="$OBS0,$OBS1,$OBS2"
trap 'kill $PIDS 2>/dev/null || true; rm -rf "$BIN"; wait 2>/dev/null || true' EXIT

$GO build -o "$BIN/urcgc-node" ./cmd/urcgc-node
$GO build -o "$BIN/urcgc-ctl" ./cmd/urcgc-ctl

# start_node <i> <log> [flags...] starts member i in the background with its
# -self, -peers and -metrics set and the given flags, logging to $BIN/<log>.log,
# and records its pid as P<i>. Its stdin is /dev/null, or the output of
# `$FEED <i>` when the script sets FEED.
start_node() {
    i=$1; log=$2; shift 2
    eval "obs=\$OBS$i"
    if [ -n "${FEED:-}" ]; then
        $FEED "$i" | "$BIN/urcgc-node" -self "$i" -peers "$PEERS" -metrics "$obs" "$@" >"$BIN/$log.log" 2>&1 &
    else
        "$BIN/urcgc-node" -self "$i" -peers "$PEERS" -metrics "$obs" "$@" </dev/null >"$BIN/$log.log" 2>&1 &
    fi
    eval "P$i=$!"
    PIDS="$PIDS $!"
}

# fail <message> reports the failed gate, prints every log in $BIN, runs the
# script's ON_FAIL command if it set one, and exits 1.
fail() {
    echo "$NAME: $1" >&2
    for f in "$BIN"/*.log; do
        [ -f "$f" ] || continue
        echo "--- $(basename "$f" .log) ---" >&2
        cat "$f" >&2
    done
    [ -z "${ON_FAIL:-}" ] || $ON_FAIL
    exit 1
}

# wait_until <tries> <pause> <message> <cmd...> retries a probe until it
# succeeds, and fails the gate with the message if it never does.
wait_until() {
    tries=$1; pause=$2; msg=$3; shift 3
    n=0
    until "$@"; do
        n=$((n + 1))
        [ "$n" -lt "$tries" ] || fail "$msg"
        sleep "$pause"
    done
}
