#!/usr/bin/env bash
# Paired parent/child benchmark runs: the evidence behind a claimed gain.
#
# Usage: scripts/pair.sh [--parent REV] [--pairs N] [--seconds S]
#                        [--workload NAME]... [--seed N] [--out FILE] [--quick]
#
# The child is the working tree this script sits in; the parent is REV
# (default HEAD~1), extracted with `git archive` into a temporary
# directory that is removed on exit. Both sides are built first, each
# into its own target directory. Then, N times (default 10), every chosen
# workload (default: all five in BENCHMARK.json) runs once on the parent
# and once on the child, alternating which side goes first, each side
# with its own frozen harness:
#
#   cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
#       --workload W --seed 1 --seconds S --trace 0
#
# For every end-to-end metric of BENCHMARK.json the result holds both
# sides' values per pair, the parent's median and quartiles, the child's
# median, the median of the per-pair child/parent ratios, and how many
# pairs the child won (by the metric's "better" direction). The ledger
# schema is in ledger/README.md. --quick is one pair of 2 s windows: a
# smoke run, too short to support a claim.
#
# Needs only git, cargo and POSIX tools; runs offline.

set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
parent_rev=HEAD~1
pairs=10
seconds=10
seed=1
out=
workloads=()

usage() {
    sed -n '4,5p' "$0" | sed 's/^# //'
    exit 2
}

while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent_rev=$2; shift 2 ;;
        --pairs) pairs=$2; shift 2 ;;
        --seconds) seconds=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        --out) out=$2; shift 2 ;;
        --quick) pairs=1; seconds=2; shift ;;
        *) usage ;;
    esac
done

bench="$root/BENCHMARK.json"
if [ ${#workloads[@]} -eq 0 ]; then
    # Workload entries are the only objects with a "why".
    mapfile -t workloads < <(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$bench")
fi
# "name better" per end-to-end metric: the only entries with a bound.
mapfile -t metrics < <(sed -n \
    's/.*{"name": "\([^"]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound".*/\1 \2/p' "$bench")

parent_sha=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
child_desc="$(git -C "$root" rev-parse HEAD)"
if [ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]; then
    child_desc="$child_desc+worktree"
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/gpml-pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$parent_sha" | tar -x -C "$tmp/parent"

# Each side builds into its own default target directories, never a
# shared one, so alternating runs never rebuild.
side_dir() {
    case "$1" in
        parent) echo "$tmp/parent" ;;
        child) echo "$root" ;;
    esac
}

for side in parent child; do
    dir=$(side_dir "$side")
    echo "pair.sh: building $side ($dir)" >&2
    (cd "$dir" && env -u CARGO_TARGET_DIR cargo build --release --offline --quiet --bin gpml)
    (cd "$dir" && env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml)
done

# One run: prints the harness's last stdout line (the result object).
run_once() {
    local side=$1 workload=$2 dir
    dir=$(side_dir "$side")
    (cd "$dir" && env -u CARGO_TARGET_DIR cargo run --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 2>/dev/null) \
        | tail -n 1
}

# value KEY < result-line: a metric's value ("null" when absent).
value() {
    local v
    v=$(sed -n "s/.*\"$1\": {\"value\": \([-0-9.eE+]*\).*/\1/p")
    echo "${v:-null}"
}

results="$tmp/results.tsv" # pair workload side correct failed metric...
: >"$results"
for pair in $(seq 1 "$pairs"); do
    # Odd pairs run the parent first, even pairs the child, so a drift
    # in the box's speed during the run favours neither side.
    order="parent child"
    if [ $((pair % 2)) -eq 0 ]; then order="child parent"; fi
    for w in "${workloads[@]}"; do
        for side in $order; do
            line=$(run_once "$side" "$w")
            correct=$(echo "$line" | sed -n 's/.*"correct": \([a-z]*\).*/\1/p')
            failed=$(echo "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')
            row="$pair	$w	$side	${correct:-false}	${failed:-null}"
            for m in "${metrics[@]}"; do
                row="$row	$(echo "$line" | value "${m%% *}")"
            done
            echo "$row" >>"$results"
            echo "pair.sh: pair $pair/$pairs $w $side: $(echo "$line" | value throughput_rps) req/s" >&2
        done
    done
done

# Summarize: one JSON object per workload, one entry per metric.
summary=$(awk -F'\t' -v metrics="${metrics[*]}" -v workloads="${workloads[*]}" '
function sort_n(a, n,    i, j, t) {
    for (i = 2; i <= n; i++)
        for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
# Linear-interpolated quantile q of a[1..n], already sorted.
function quantile(a, n, q,    h, lo) {
    if (n == 0) return "null"
    h = (n - 1) * q + 1; lo = int(h)
    if (lo >= n) return a[n]
    return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function num(x) { return x == "null" ? "null" : sprintf("%.6g", x) }
{
    key = $2 SUBSEP $1
    seen[$2] = 1
    if ($4 != "true") bad[$2]++
    if ($5 != "0") failed[$2] += ($5 == "null" ? 1 : $5)
    for (k = 6; k <= NF; k++) v[$3, key, k - 5] = $k
    if ($1 > maxpair) maxpair = $1
}
END {
    nm = split(metrics, mt, " ")
    nw = split(workloads, wl, " ")
    printf "{"
    for (wi = 1; wi <= nw; wi++) {
        w = wl[wi]
        if (!(w in seen)) continue
        printf "%s\n    \"%s\": {\"all_correct\": %s, \"failed\": %d, \"metrics\": {", \
            (wi > 1 ? "," : ""), w, (bad[w] ? "false" : "true"), failed[w]
        for (mi = 1; 2 * mi <= nm; mi++) {
            name = mt[2 * mi - 1]; better = mt[2 * mi]
            np = 0; nc = 0; nr = 0; wins = 0; pv = ""; cv = ""
            for (p = 1; p <= maxpair; p++) {
                a = v["parent", w SUBSEP p, mi]; b = v["child", w SUBSEP p, mi]
                pv = pv (p > 1 ? ", " : "") num(a); cv = cv (p > 1 ? ", " : "") num(b)
                if (a != "null" && a != "") P[++np] = a + 0
                if (b != "null" && b != "") C[++nc] = b + 0
                if (a != "null" && b != "null" && a != "" && b != "" && a + 0 != 0) {
                    R[++nr] = (b + 0) / (a + 0)
                    if ((better == "lower" && b + 0 < a + 0) || (better == "higher" && b + 0 > a + 0)) wins++
                }
            }
            sort_n(P, np); sort_n(C, nc); sort_n(R, nr)
            printf "%s\n      \"%s\": {\"better\": \"%s\", \"parent\": [%s], \"child\": [%s], " \
                "\"parent_median\": %s, \"parent_q1\": %s, \"parent_q3\": %s, " \
                "\"child_median\": %s, \"median_ratio\": %s, \"child_better_pairs\": %d, \"pairs\": %d}", \
                (mi > 1 ? "," : ""), name, better, pv, cv, \
                num(quantile(P, np, 0.5)), num(quantile(P, np, 0.25)), num(quantile(P, np, 0.75)), \
                num(quantile(C, nc, 0.5)), num(quantile(R, nr, 0.5)), wins, nr
            delete P; delete C; delete R
        }
        printf "\n    }}"
    }
    printf "\n  }"
}' "$results")

json=$(cat <<EOF
{
  "parent": "$parent_sha",
  "child": "$child_desc",
  "seed": $seed,
  "seconds": $seconds,
  "pairs": $pairs,
  "order": "odd pairs run the parent first, even pairs the child",
  "host": "$(uname -sm), $(getconf _NPROCESSORS_ONLN 2>/dev/null || echo '?') cpus",
  "workloads": $summary
}
EOF
)
if [ -n "$out" ]; then
    printf '%s\n' "$json" >"$out"
    echo "pair.sh: wrote $out" >&2
else
    printf '%s\n' "$json"
fi
