#!/usr/bin/env bash
# bench_pairs.sh PARENT_REF WORKLOAD SEED... runs alternating parent/change
# pairs of one end-to-end workload, one pair per seed: the parent is
# PARENT_REF exported to a temporary directory, the change is this working
# tree. Odd pairs run the parent first, even pairs the change. Each run is
# `benchmark/run.sh -workload W -seed S -seconds 18 -trace 0` in its own tree,
# which builds the harness from that tree's source into its own .bench_build/.
#
# Output, all JSON lines on stdout (progress goes to stderr):
#   one per run:    {side, pair, seed, correct, attempted, failed, metrics,
#                    host_cpu_share_after, legs_void, failed_share}
#   one per side:   {side, failed, attempted, failed_share, legs_void}, the
#                   sums over its runs: a side that fails a larger share of
#                   its operations, or measured on fresh legs after void
#                   ones, is not compared like for like.
#   one per metric: for every end_to_end metric of BENCHMARK.json, each side's
#                   median and quartiles, the change's wins by the metric's
#                   `better` (ties count for neither side), the gap between
#                   the medians and the parent's interquartile range.
# The gap is signed: positive when the change's median is better. A gain
# holds when the change wins at least 9 of 10 pairs and the gap exceeds the
# parent's IQR. A run that is not correct is recorded, not fatal.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 PARENT_REF WORKLOAD SEED..." >&2
	exit 2
fi
parent_ref=$1 workload=$2
shift 2
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# An exported tree, not a worktree: a killed run leaves nothing in .git.
mkdir "$tmp/parent"
git -C "$repo" archive "$parent_ref" | tar -x -C "$tmp/parent"

# run SIDE PAIR SEED appends the run's line to $tmp/runs and prints it.
run() {
	local side=$1 pair=$2 seed=$3 tree=$repo
	[ "$side" = parent ] && tree=$tmp/parent
	local report="$tmp/$side-$seed.json"
	echo "bench_pairs: pair $pair, $side, seed $seed" >&2
	local result
	result="$(cd "$tree" && bash benchmark/run.sh -workload "$workload" -seed "$seed" \
		-seconds 18 -trace 0 -report "$report" | tail -n 1)" || true
	if [ ! -s "$report" ]; then
		echo "bench_pairs: $side seed $seed wrote no report" >&2
		exit 1
	fi
	jq -c --arg side "$side" --argjson pair "$pair" --argjson seed "$seed" \
		--slurpfile rep "$report" \
		'{side: $side, pair: $pair, seed: $seed, correct, attempted, failed,
		  metrics: (.metrics | map_values(.value)),
		  host_cpu_share_after: $rep[0].diagnostics.host_cpu_share_after.value,
		  legs_void: $rep[0].diagnostics.legs_void.value,
		  failed_share: $rep[0].diagnostics.failed_share.value}' \
		<<<"$result" | tee -a "$tmp/runs"
}

pair=0
for seed in "$@"; do
	pair=$((pair + 1))
	if [ $((pair % 2)) -eq 1 ]; then
		run parent "$pair" "$seed"
		run change "$pair" "$seed"
	else
		run change "$pair" "$seed"
		run parent "$pair" "$seed"
	fi
done

jq -c -s 'group_by(.side)[]
	| {side: .[0].side, failed: (map(.failed) | add), attempted: (map(.attempted) | add),
	   legs_void: (map(.legs_void) | add)}
	| .failed_share = (if .attempted > 0 then .failed / .attempted else 0 end)' "$tmp/runs"

jq -c -s --slurpfile bench "$repo/BENCHMARK.json" '
	# q: the p-quantile of a sorted array, interpolated between ranks.
	def q($p): (((length - 1) * $p) as $h | ($h | floor) as $i
		| if $i + 1 < length then .[$i] + ($h - $i) * (.[$i + 1] - .[$i]) else .[$i] end);
	def stats: sort | {median: q(0.5), q1: q(0.25), q3: q(0.75)};
	. as $runs
	| $bench[0].end_to_end[]
	| .name as $m | .better as $better
	| [$runs[] | select(.side == "parent") | {pair, v: .metrics[$m]}] as $p
	| [$runs[] | select(.side == "change") | {pair, v: .metrics[$m]}] as $c
	| ($p | map(.v) | stats) as $ps | ($c | map(.v) | stats) as $cs
	| [$p[] as $x | $c[] | select(.pair == $x.pair)
		| if $better == "lower" then .v < $x.v else .v > $x.v end
		| select(.)] as $wins
	| {metric: $m, better: $better, parent: $ps, change: $cs,
	   change_wins: "\($wins | length)/\($p | length)",
	   median_gap: (($cs.median - $ps.median) * (if $better == "lower" then -1 else 1 end)),
	   parent_iqr: ($ps.q3 - $ps.q1)}' "$tmp/runs"
