#!/bin/sh
# Run `cargo test` and fail unless the run passes and at least MIN tests
# passed, so a rename cannot turn a filtered step into one that passes with
# nothing to run.
#
#   scripts/cargo-test-floor.sh MIN [cargo test arguments...] [-- filters...]
#
# `--color never` is passed to the test binaries. The full log is printed.
set -eu
min=$1
shift
log=$(mktemp)
trap 'rm -f "$log"' EXIT
case " $* " in
*" -- "*) set -- "$@" --color never ;;
*) set -- "$@" -- --color never ;;
esac
if ! cargo test "$@" >"$log" 2>&1; then
    cat "$log"
    echo "cargo test $*: failed" >&2
    exit 1
fi
cat "$log"
passed=$(sed -n 's/^test result: ok\. \([0-9][0-9]*\) passed.*/\1/p' "$log" | awk '{ n += $1 } END { print n + 0 }')
echo "cargo test $*: $passed tests passed (at least $min required)"
if [ "$passed" -lt "$min" ]; then
    echo "fewer than $min tests passed" >&2
    exit 1
fi
