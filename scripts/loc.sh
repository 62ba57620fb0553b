#!/usr/bin/env bash
# Non-test Go lines per package, excluding benchmark/ (the frozen live
# benchmark), counted the way ROADMAP counts them:
#   find <dir> -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
#
#   scripts/loc.sh           print the table
#   scripts/loc.sh --check   also fail if the ratcheted set exceeds CEILING
#
# The ratcheted set is the four baseline protocols, the kit and table
# they share, and the bench harness. It was 6,534 lines before they were
# collapsed onto internal/baseline; CEILING is ROADMAP's -25 % target,
# which that PR met. Lower it when a PR shrinks the set further; raising
# it needs a reason in the PR description.
set -euo pipefail
cd "$(dirname "$0")/.."

RATCHETED="internal/baseline internal/protocols internal/paxos internal/pbft internal/zab internal/zyzzyva internal/bench"
CEILING=4900

count() { find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 | xargs -0 -r cat | wc -l; }

total=0
while read -r dir; do
	n=$(count "$dir")
	[ "$n" -gt 0 ] || continue
	printf '%7d  %s\n' "$n" "$dir"
	total=$((total + n))
done < <(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -printf '%h\n' | sort -u | sed 's|^\./||')
printf '%7d  total (outside benchmark/)\n' "$total"

ratcheted=0
for dir in $RATCHETED; do
	ratcheted=$((ratcheted + $(count "$dir")))
done
printf '%7d  baselines + kit + table + bench (ceiling %d)\n' "$ratcheted" "$CEILING"

if [ "${1:-}" = "--check" ] && [ "$ratcheted" -gt "$CEILING" ]; then
	echo "loc.sh: ratcheted set is $ratcheted lines, over the $CEILING ceiling" >&2
	exit 1
fi
