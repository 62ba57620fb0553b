#!/usr/bin/env bash
# Non-test Go lines per package, excluding benchmark/ (the frozen live
# benchmark), counted the way ROADMAP counts them:
#   find <dir> -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
#
#   scripts/loc.sh           print the table and the three ratchets
#   scripts/loc.sh --check   also fail if a ratchet exceeds its ceiling
#
# Three counts are ratcheted, each against its own ceiling:
#
#   - the four baseline protocols, the kit and table they share, and the
#     bench harness. 6,534 lines before they were collapsed onto
#     internal/baseline, 4,874 after, 4,376 when their codecs became one
#     field list per wire type and the pbft/zyzzyva view change moved
#     into the kit, 4,356 when the TLS experiment began building its
#     nodes through internal/deploy, 4,278 when the arena came to run
#     through bench.RunPoint and the baselines moved onto the shared
#     verify pool, 4,277 when the paper's fault model became one
#     package, internal/model; CEILING is the count reached when the
#     sim-only multi-group sharding benchmark went.
#   - internal/xpaxos. 6,084 lines before the replica's per-sequence
#     maps became one sequence log, 6,067 after, 5,572 when codec.go
#     became field lists, 5,517 when the per-view maps became one view
#     log, 5,514 when the per-client and per-request maps became one
#     session table, 5,513 when each signature came to be verified
#     once, 5,512 when checkpoint snapshots came to be built in one
#     allocation and the unused StableCheckpointSN went, 5,510 when
#     Config.WAL's doc lost its shared-log case; XPAXOS_CEILING is the
#     count reached when MsgResend lost its Retransmit marker, read
#     only by the deleted intake limiter. ROADMAP's -15 % target for
#     the package is 5,171.
#   - the printed total outside benchmark/ (21,727 before the view log,
#     21,534 after, 21,527 after the session table, 21,443 when every
#     live node came to be built through internal/deploy, 21,437 when
#     the Ed25519 suite began deriving keys on first use, 21,286 when
#     internal/sim was folded into netsim, 21,231 when internal/core and
#     internal/reliability were merged into internal/model, 21,229 when
#     each signature came to be verified once and a batch's Merkle
#     proofs came to be cut from one tree, 21,226 when the Ed25519 field
#     arithmetic moved onto the amd64 assembly kernel, whose fe_amd64.s
#     this script does not count, 20,299 when sim-only multi-group
#     sharding was deleted: internal/shard, the group multiplexer, the
#     shared WAL and the sharded benchmark; TOTAL_CEILING is the count
#     reached when what only tests turned on was deleted: the
#     transport's intake rate limiter and two of its options, the
#     verify pool's Close, async API and nil-pool mode, and four fault
#     combinators),
#     so a package outside the two sets cannot absorb what they shed.
#
# A ceiling is lowered by the PR that shrinks its set: run this script,
# set the constant to the count it prints, and say so in CHANGES.md.
# Raising one needs a reason in the PR description.
set -euo pipefail
cd "$(dirname "$0")/.."

RATCHETED="internal/baseline internal/protocols internal/paxos internal/pbft internal/zab internal/zyzzyva internal/bench"
CEILING=4086
XPAXOS_CEILING=5505
TOTAL_CEILING=19914

count() { find "$1" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 | xargs -0 -r cat | wc -l; }

total=0
while read -r dir; do
	n=$(count "$dir")
	[ "$n" -gt 0 ] || continue
	printf '%7d  %s\n' "$n" "$dir"
	total=$((total + n))
done < <(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -printf '%h\n' | sort -u | sed 's|^\./||')
printf '%7d  total (outside benchmark/, ceiling %d)\n' "$total" "$TOTAL_CEILING"

ratcheted=0
for dir in $RATCHETED; do
	ratcheted=$((ratcheted + $(count "$dir")))
done
xpaxos=$(count internal/xpaxos)
printf '%7d  baselines + kit + table + bench (ceiling %d)\n' "$ratcheted" "$CEILING"
printf '%7d  internal/xpaxos (ceiling %d)\n' "$xpaxos" "$XPAXOS_CEILING"

if [ "${1:-}" = "--check" ]; then
	status=0
	if [ "$ratcheted" -gt "$CEILING" ]; then
		echo "loc.sh: baselines + kit + table + bench is $ratcheted lines, over the $CEILING ceiling" >&2
		status=1
	fi
	if [ "$xpaxos" -gt "$XPAXOS_CEILING" ]; then
		echo "loc.sh: internal/xpaxos is $xpaxos lines, over the $XPAXOS_CEILING ceiling" >&2
		status=1
	fi
	if [ "$total" -gt "$TOTAL_CEILING" ]; then
		echo "loc.sh: the total outside benchmark/ is $total lines, over the $TOTAL_CEILING ceiling" >&2
		status=1
	fi
	exit "$status"
fi
