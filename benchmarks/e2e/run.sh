#!/usr/bin/env bash
# The one command of the reference benchmark. Run from the repository root.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1 [--out DIR]
#       one run of one workload; the last line of output is the result
#       object (the form BENCHMARK.json's command is called in); --out also
#       writes the run's record (and Chrome trace) into DIR
#   run.sh [--seed N] [--seconds S] [--repeat K]
#       every workload, untraced (K times) then traced; prints every metric
#       as `name unit value n=<samples>`, runs the correctness checks, writes
#       out/<workload>*.json, out/<workload>.trace.json and out/run.json,
#       and exits non-zero if anything failed
#   run.sh collect DIR
#       gathers the records single runs wrote with --out DIR into DIR/run.json
#   run.sh compare A.json B.json
#       judges run B against run A (bounds and rules: src/compare.rs)
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

case "${1:-}" in
    compare) shift; exec "$target/release/e2e" compare "$@" ;;
    collect) exec "$target/release/e2e" collect "$2" "$2/run.json" ;;
esac

workload="" seed=1 seconds=20 trace="" repeat=1 outdir=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --workload) workload="$2" ;;
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --trace) trace="$2" ;;
        --repeat) repeat="$2" ;;
        --out) outdir="$2" ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift 2
done

# Untraced runs use the system allocator; traced runs the counting one.
binary() { if [[ "$1" == 1 ]]; then echo "$target/release/e2e_traced"; else echo "$target/release/e2e"; fi; }

if [[ -n "$workload" ]]; then
    exec "$(binary "${trace:-0}")" run --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "${trace:-0}" ${outdir:+--out "$outdir"}
fi

out="$here/out"
rm -rf "$out"
mkdir -p "$out"
status=0
traces=()
for ((i = 0; i < repeat; i++)); do traces+=(0); done
traces+=(1)
for w in $("$target/release/e2e" list); do
    for t in "${traces[@]}"; do
        echo "== $w (trace $t)"
        "$(binary "$t")" run --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace "$t" --out "$out" || status=1
    done
done
"$target/release/e2e" collect "$out" "$out/run.json"
echo "records: $out/run.json"
exit "$status"
