#!/usr/bin/env bash
# Census of the program's lines under crates/*/src: each file's lines
# before its test module, the `#[cfg(test)]` that heads a top-level `mod`
# (the whole file when it has none; none of a `tests.rs`, which is a test
# module of its own). A `#[cfg(test)]` inside the program, such as a
# test-only counter in a trait impl, does not end the count. The older
# census, which stopped at each file's first `#[cfg(test)]`, is printed
# beside it.
#
#   ci/lines.sh        the two totals
#   ci/lines.sh -v     both counts for each file where they differ, then
#                      the totals
#
# Run from the repository root.
set -eu -o pipefail

verbose=0
if [ "${1:-}" = -v ]; then
    verbose=1
fi

awk -v verbose="$verbose" '
    function flush() {
        if (file == "") return
        if (program < 0) program = last
        if (first < 0) first = last
        if (file ~ /\/tests\.rs$/) program = 0
        if (verbose && program != first) printf "%7d %7d  %s\n", program, first, file
        total_program += program
        total_first += first
    }
    FNR == 1 { flush(); file = FILENAME; program = -1; first = -1; attr = 0 }
    program < 0 && attr && /^mod / { program = FNR - 2 }
    { attr = /^#\[cfg\(test\)\]/; last = FNR }
    first < 0 && /^[[:space:]]*#\[cfg\(test\)\]/ { first = FNR - 1 }
    END {
        flush()
        printf "%7d lines before each file'"'"'s test module\n", total_program
        printf "%7d lines before each file'"'"'s first `#[cfg(test)]`\n", total_first
    }
' $(find crates/*/src -name '*.rs' | sort)
