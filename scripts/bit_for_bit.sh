#!/usr/bin/env bash
# The bit-for-bit rule (ROADMAP, "three standing rules") as one command:
# a change that claims no behaviour change leaves the seeded pins and the
# deterministic `figures` output exactly as they were at <rev>.
#
#   scripts/bit_for_bit.sh <rev>
#
# 1. On the working tree, runs the two golden pins: the scripted churn
#    run at seed 31's per-class bytes (`kvstore --test wire`) and the
#    hostile simulator run (`simnet hostile_run_is_what_it_was`).
# 2. Builds `figures` at <rev> from a `git archive` of it under a temp
#    directory, into its own target directory, and the working tree's
#    into another, so neither tree's `target/` is touched.
# 3. Diffs the whole output of `figures --e1 --e5 --e6 --e7 --e8 --a1
#    --a2`, and the first three columns of `--e9` (siblings and the two
#    byte columns; the rest of E9, like E4, is wall-clock ns).
#
# Exits non-zero on a failed pin or any difference. The temp directory is
# removed on exit; set KEEP=1 to keep it (its path is printed).
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -eq 1 ] || { awk 'NR > 1 && !/^#/ { exit } NR > 1 { sub(/^# ?/, ""); print }' "$0" >&2; exit 2; }
commit="$(git rev-parse --verify "$1^{commit}")"
root="$PWD"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/bit_for_bit.XXXXXX")"
if [ "${KEEP:-0}" = 1 ]; then
    echo "[bit-for-bit] keeping $tmp"
else
    trap 'rm -rf "$tmp"' EXIT
fi

echo "[bit-for-bit] pins on the working tree"
cargo test -q -p kvstore --test wire churn_converges_to_the_scripted_model_at_the_pinned_bytes
cargo test -q -p simnet --lib hostile_run_is_what_it_was_before_route

echo "[bit-for-bit] figures at $commit and on the working tree"
mkdir -p "$tmp/src"
git archive "$commit" | tar -x -C "$tmp/src"
CARGO_TARGET_DIR="$tmp/parent-target" \
    cargo build -q --release --manifest-path "$tmp/src/Cargo.toml" --bin figures
CARGO_TARGET_DIR="$tmp/change-target" \
    cargo build -q --release --manifest-path "$root/Cargo.toml" --bin figures

deterministic() { # side
    local bin="$tmp/$1-target/release/figures"
    "$bin" --e1 --e5 --e6 --e7 --e8 --a1 --a2
    echo "== E9, siblings and bytes =="
    "$bin" --e9 | awk 'NF >= 3 { print $1, $2, $3 }'
}
deterministic parent > "$tmp/parent.txt"
deterministic change > "$tmp/change.txt"
if ! diff -u "$tmp/parent.txt" "$tmp/change.txt"; then
    echo "[bit-for-bit] figures differ from $commit" >&2
    exit 1
fi
echo "[bit-for-bit] identical to $commit: pins green, $(wc -l < "$tmp/change.txt") lines of figures"
