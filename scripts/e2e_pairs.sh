#!/usr/bin/env bash
# The paired protocol for the repo benchmark (choosing-metrics §8):
# builds the `e2e` binary of a parent revision and of the working tree,
# each from its own source directory into its own target directory, runs
# them in alternating order with the same seed on both sides of a pair,
# and prints — per workload and end-to-end metric of BENCHMARK.json —
# each side's median and quartiles, the change's wins/ties/losses and
# every run's value, then `e2e compare`'s verdict against the bounds.
# A claim of gain needs the change to win at least nine pairs in ten
# and the medians to differ by more than the parent's own quartile
# distance; this prints what that is judged on, it does not judge.
#
#   scripts/e2e_pairs.sh <parent-rev> [--pairs 10] [--seconds 10]
#                        [--seed 1] [workload...]
#
# No workload means all of BENCHMARK.json's. Pair `p` runs with seed
# `seed + p`; the parent goes first in odd pairs. Everything lives under
# target/pairs/ (git-ignored): the parent's sources (a `git archive` of
# the revision — nothing is registered in .git), both target
# directories, and runs/{parent,change}.jsonl, which are started afresh.
# The parent's target directory records the commit it was built for and
# is rebuilt from scratch for any other.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0" >&2; exit 2; }

[ $# -ge 1 ] || usage
rev="$1"; shift
pairs=10 seconds=10 seed=1
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) pairs="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        --seed) seed="$2"; shift ;;
        -*) usage ;;
        *) workloads+=("$1") ;;
    esac
    shift
done
command -v python3 >/dev/null || { echo "e2e_pairs: needs python3 for the tables" >&2; exit 2; }
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi

root="$PWD"
out="$root/target/pairs"
commit="$(git rev-parse --verify "$rev^{commit}")"
rm -rf "$out/parent-src" "$out/runs"
mkdir -p "$out/parent-src" "$out/runs"
git archive "$commit" | tar -x -C "$out/parent-src"

echo "[pairs] parent $commit, change: working tree of $(git rev-parse --short HEAD)"
# `git archive` stamps every file with the commit's time, so cargo can
# take an older parent's sources for fresh and keep the last revision's
# binary: a target directory built for another commit starts over.
stamp="$out/parent-target/commit"
if [ "$(cat "$stamp" 2>/dev/null)" != "$commit" ]; then
    rm -rf "$out/parent-target"
fi
CARGO_TARGET_DIR="$out/parent-target" \
    cargo build --release --quiet --manifest-path "$out/parent-src/perfbench/Cargo.toml"
echo "$commit" >"$stamp"
CARGO_TARGET_DIR="$out/change-target" \
    cargo build --release --quiet --manifest-path "$root/perfbench/Cargo.toml"

# Each side runs from its own sources, as the benchmark driver runs it.
run_side() { # side workload seed
    local src="$root" log="$out/runs/$1.log"
    [ "$1" = parent ] && src="$out/parent-src"
    if ! (cd "$src" && "$out/$1-target/release/e2e" run --workload "$2" --seed "$3" \
            --seconds "$seconds" --out "$out/runs/$1.jsonl") >"$log" 2>&1; then
        cat "$log" >&2
        echo "[pairs] $1 failed on $2, seed $3" >&2
        exit 1
    fi
    grep -q "correctness gate: clean" "$log" || { cat "$log" >&2; exit 1; }
}

for p in $(seq 1 "$pairs"); do
    order=(parent change)
    [ $((p % 2)) -eq 0 ] && order=(change parent)
    for w in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            echo "[pairs] pair $p/$pairs  $w  $side"
            run_side "$side" "$w" $((seed + p))
        done
    done
done

python3 - "$out/runs/parent.jsonl" "$out/runs/change.jsonl" <<'PYEOF'
import json
import statistics
import sys

metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

def load(path):
    runs = {}
    for line in open(path):
        doc = json.loads(line)
        values = {m["name"]: m["value"] for m in doc["metrics"]}
        runs.setdefault(doc["workload"], []).append(values)
    return runs

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

parent, change = load(sys.argv[1]), load(sys.argv[2])
for workload in parent:
    print(f"\n== {workload}: {len(parent[workload])} pairs ==")
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        a = [r[name] for r in parent[workload]]
        b = [r[name] for r in change[workload]]
        better = lambda x, y: x > y if higher else x < y
        wins = sum(better(y, x) for x, y in zip(a, b))
        losses = sum(better(x, y) for x, y in zip(a, b))
        (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
        delta = f"{(b2 - a2) / a2:+.1%}" if a2 else "n/a"
        print(f"{name} [{m['unit']}, {m['better']} is better]  "
              f"change wins/ties/losses {wins}/{len(a) - wins - losses}/{losses}")
        print(f"  parent  median {a2:.6g}  quartiles [{a1:.6g}, {a3:.6g}]  (distance {a3 - a1:.3g})")
        print(f"  change  median {b2:.6g}  quartiles [{b1:.6g}, {b3:.6g}]  median {delta}")
        print("  parent runs: " + " ".join(f"{x:.6g}" for x in a))
        print("  change runs: " + " ".join(f"{x:.6g}" for x in b))
PYEOF

echo
"$out/change-target/release/e2e" compare "$out/runs/parent.jsonl" "$out/runs/change.jsonl"
