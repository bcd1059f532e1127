#!/bin/bash
# Regenerates every table and figure of the paper; logs under results/logs/.
#
# Steps: table1 (analytic, printed only), then the sweep over every
# experiment grid, then summarize, which renders results/SUMMARY.md
# from the sweep records. Flags are forwarded to the sweep: --seeds
# <n|a,b,c>, --jobs <n>, --experiments <list>, --out <dir>, --full
# (needs --out), --resume <dir> and --trace <dir>. Records already on
# disk are skipped, so rerunning after an interruption continues where
# it stopped. With --out the summary goes to <dir>/SUMMARY.md instead
# of results/SUMMARY.md; with --trace the script renders a combined
# trace_report at the end. Build first: cargo build --release
#
# pipefail matters: every run is piped through tee, and without it a
# crashed step would vanish into tee's exit status 0.
set -uo pipefail
cd "$(dirname "$0")"
mkdir -p results/logs

# Pick --out <dir> and --trace <dir> out of the forwarded flags for
# the summary and the trace report; the flags still reach the sweep.
out_dir=""
trace_dir=""
prev=""
for a in "$@"; do
    case "$prev" in
        --out) out_dir="$a" ;;
        --trace) trace_dir="$a" ;;
    esac
    prev="$a"
done

step() {
    local name="$1"
    shift
    echo "=== running $name ($(date +%H:%M:%S)) ==="
    if ! ./target/release/"$name" "$@" 2>&1 | tee "results/logs/$name.log"; then
        echo "=== FAILED: $name — see results/logs/$name.log ===" >&2
        exit 1
    fi
}

step table1
step sweep "$@"
step summarize ${out_dir:+--sweep "$out_dir"}
if [ -n "$trace_dir" ]; then
    step trace_report "$trace_dir"
fi
echo "=== all experiments done ($(date +%H:%M:%S)) ==="
