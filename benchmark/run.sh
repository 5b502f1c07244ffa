#!/usr/bin/env bash
# Builds the benchmark from source and runs it; see README.md.
#
#   benchmark/run.sh [--workload <name>] [--seed <S>] [--seconds <F>]
#                    [--trace <0|1> | --traced] [--smoke] [--json <path>]
#
# Without --workload, runs all four workloads one process each. Paths are
# relative to the caller's directory: no `cd`, so a relative
# CARGO_TARGET_DIR means what cargo takes it to mean.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
bin="$target/release/routing-benchmark"

case " $* " in
*" --workload "* | *" --list "* | *" --contract "* | *" --compare "* | *" --help "*)
    exec "$bin" "$@"
    ;;
esac
status=0
for workload in $("$bin" --list); do
    "$bin" --workload "$workload" "$@" || status=1
done
exit "$status"
