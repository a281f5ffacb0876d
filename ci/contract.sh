#!/usr/bin/env bash
# The output contract: run one set of `repro` commands with a parent
# binary and a changed one, at --shards=1 and --shards=4, and require the
# same bytes out of both.
#
#   ci/contract.sh PARENT_REPRO CHANGE_REPRO OUT
#
# Each command runs under `timeout` from a directory of its own under
# OUT/<side>/shards<N>/, writing its exports to relative paths, so the two
# sides' trees, stdout and stderr are comparable byte for byte. Only three
# things are left out of the comparison, because they are host time:
#   - stderr's closing "N experiments, Xs ... wall time, Ys total" line;
#   - stdout's `--scope` hot-path tables (from each "Hot-path wall time"
#     heading through its "(probe overhead ...)" line);
#   - the `--scope` export directory (`sc`).
# The raw stdout and stderr stay under OUT/raw/.
#
# A command fails when it times out, when anything it writes differs, or
# when the change takes more than 3x the parent's wall time (and over
# one second: below that, this is start-up noise). Every command runs
# whatever fails before it; the exit status is 1 if any failed.
set -u -o pipefail

if [ $# -ne 3 ]; then
    echo "usage: $0 PARENT_REPRO CHANGE_REPRO OUT" >&2
    exit 2
fi
parent=$(realpath "$1")
change=$(realpath "$2")
out=$(realpath -m "$3")
limit=300

# name, then repro's arguments: the traced and faulted runs of the
# byte-identity set (narada TCP/UDP and gridlog through the reconnect
# path; every plane's exports).
commands='
all       --scale=20 --out=all all
observed  --scale=20 --no-csv --trace=t --profile=p --scope=sc --slo=s compare
s90       --scale=90 --out=s90 table2 fig3
crash     --scale=20 --no-csv --faults=broker-crash --trace=ct --slo=cs table2
crash-cmp --scale=20 --no-csv --faults=broker-crash --profile=cp compare
'

# Run one command on one side; print its wall seconds.
run() {
    local side=$1 bin=$2 shards=$3 name=$4
    shift 4
    local dir="$out/$side/shards$shards" raw="$out/raw/$side/shards$shards"
    mkdir -p "$dir/$name" "$raw"
    local start end status
    start=$(date +%s.%N)
    (cd "$dir/$name" && timeout "$limit" "$bin" --shards="$shards" "$@") \
        > "$raw/$name.stdout" 2> "$raw/$name.stderr"
    status=$?
    end=$(date +%s.%N)
    echo "$status" > "$dir/$name.status"
    awk '/^Hot-path wall time/ { skip = 1 }
         !skip { print }
         skip && /^\(probe overhead/ { print "[hot-path table]"; skip = 0 }' \
        "$raw/$name.stdout" > "$dir/$name.stdout"
    grep -v ' experiments, .*s total$' "$raw/$name.stderr" > "$dir/$name.stderr"
    awk -v s="$start" -v e="$end" 'BEGIN { printf "%.1f", e - s }'
}

failed=0
printf '%-9s %6s %9s %9s  %s\n' command shards parent_s change_s verdict
for shards in 1 4; do
    while read -r name args; do
        [ -n "$name" ] || continue
        # shellcheck disable=SC2086 # args are words on purpose
        p=$(run parent "$parent" "$shards" "$name" $args)
        # shellcheck disable=SC2086
        c=$(run change "$change" "$shards" "$name" $args)
        verdict=ok
        d="shards$shards"
        if [ "$(cat "$out/change/$d/$name.status")" = 124 ] ||
            [ "$(cat "$out/parent/$d/$name.status")" = 124 ]; then
            verdict="TIMEOUT after ${limit}s"
        elif ! diff -r -x sc "$out/parent/$d/$name" "$out/change/$d/$name" > /dev/null ||
            ! diff -q "$out/parent/$d/$name.stdout" "$out/change/$d/$name.stdout" > /dev/null ||
            ! diff -q "$out/parent/$d/$name.stderr" "$out/change/$d/$name.stderr" > /dev/null ||
            ! diff -q "$out/parent/$d/$name.status" "$out/change/$d/$name.status" > /dev/null; then
            verdict="DIFFERS (diff -r -x sc $out/parent/$d $out/change/$d)"
        elif awk -v p="$p" -v c="$c" 'BEGIN { exit !(c > 3 * p && c > 1) }'; then
            verdict="SLOW (over 3x the parent)"
        fi
        [ "$verdict" = ok ] || failed=1
        printf '%-9s %6s %9s %9s  %s\n' "$name" "$shards" "$p" "$c" "$verdict"
    done <<< "$commands"
done
exit "$failed"
