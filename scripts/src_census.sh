#!/usr/bin/env bash
# Prints the counts every CHANGES.md entry used to take by hand: `src`
# lines per crate and in total, the size of the one file with a line
# budget, and the sizes of the protocol's and the configuration's
# surfaces. Informational — `ci_local.sh --lane build-test` prints it,
# nothing gates on it.
set -euo pipefail
cd "$(dirname "$0")/.."

# The body of the item whose declaration line matches $2 in file $1: the
# lines after it, up to the first line that is just a closing brace.
body() {
    awk -v start="$2" '
        inside && /^}/ { exit }
        inside { print }
        $0 ~ start { inside = 1 }
    ' "$1"
}

# Fields of a struct, or members of an enum: the lines of its body that
# open with a name at the first indentation level.
members() {
    body "$1" "$2" | grep -cE '^    (pub )?[A-Za-z_][A-Za-z0-9_]*( \{|\(|:|,)'
}

echo "src lines"
total=0
for crate in crates/*/; do
    lines=$(find "$crate/src" -name '*.rs' -print0 | xargs -0 cat | wc -l)
    total=$((total + lines))
    printf '  %-12s %6d\n' "$(basename "$crate")" "$lines"
done
printf '  %-12s %6d\n' total "$total"
echo "budgeted files"
printf '  %-32s %6d  (budget 2000)\n' crates/kvstore/src/node.rs \
    "$(wc -l < crates/kvstore/src/node.rs)"
# How many ordered maps and sets keyed by a stored key each storage layer
# keeps: one per layer holds every key once.
echo "per-key maps (BTreeMap<Key…> / BTreeSet<Key…> fields)"
for file in crates/kvstore/src/data.rs crates/storage/src/log.rs crates/storage/src/mem.rs; do
    printf '  %-32s %6d\n' "$file" \
        "$(grep -cE '^ +(pub )?[a-z_][a-z0-9_]*: BTree(Map|Set)<Key\b' "$file" || true)"
done
# The AAE index is current after every write: nothing reconciles it
# before a read. `DataStore` lives in kvstore, whose `src` defines no
# other `flush`, so every `.flush()` there would be one of its callers.
echo "AAE index (crates/*/src)"
printf '  %-32s %6d\n' \
    "DataStore::flush callers" \
    "$({ grep -rhE '\.flush\(\)' crates/kvstore/src || true; } | wc -l)"
echo "surfaces"
printf '  %-32s %6d\n' \
    "Msg variants" "$(members crates/kvstore/src/messages.rs '^pub enum Msg<')" \
    "Timer members" "$(members crates/kvstore/src/ctx.rs '^pub enum Timer ')" \
    "StoreConfig fields" "$(members crates/kvstore/src/config.rs '^pub struct StoreConfig ')" \
    "RuntimeConfig fields" "$(members crates/runtime/src/lib.rs '^pub struct RuntimeConfig ')" \
    "fleet config structs" "$({ grep -rhE '^pub struct [A-Za-z]*Config\b' \
        crates/runtime/src crates/transport/src || true; } | wc -l)"
# Both threaded fleets run one `RuntimeConfig`; the socket driver's old
# name survives only as an alias, named here so it is not forgotten.
printf '  %-32s %s\n' "fleet config aliases" "$({ grep -rhoE '^pub type [A-Za-z]*Config = [A-Za-z]+' \
    crates/runtime/src crates/transport/src || true; } | sed 's/^pub type //' | paste -sd ' ')"
# One membership truth per node: the mergeable view's status enum is the
# ring crate's only one, and no store type keeps a membership table
# beside its view (failure-detector marks are a plain set of replicas).
echo "membership surface"
printf '  %-32s %6d\n' \
    "ring: pub enum *Status" "$({ grep -rhE '^pub enum [A-Za-z]*Status\b' crates/ring/src || true; } | wc -l)" \
    "kvstore: Membership< fields" "$({ grep -rhE '^ +(pub )?[a-z_][a-z0-9_]*: Membership<' crates/kvstore/src || true; } | wc -l)"
# One agenda per worker: each worker's timers, held-back packets and
# scheduled crashes share one queue (counted below), and no atomic cell
# passes orders from the main loop to a worker.
echo "runtime schedule surface (crates/runtime/src)"
printf '  %-32s %6d\n' \
    "AtomicU8 mentions" "$({ grep -rh 'AtomicU8' crates/runtime/src || true; } | wc -l)"
# Lines of crates/*/src matching the extended regex $1.
src_count() {
    { grep -rhE "$1" crates/*/src --include='*.rs' || true; } | wc -l
}
# One run schedule for every driver: a `simnet::Scenario` of steps, each
# carried out by the host of its node, so no driver keeps a schedule type
# of its own and no link a schedule hook; and `Cluster` keeps no method
# that only forwards to `FleetHarness`.
link_methods=$(body crates/runtime/src/link.rs '^pub trait Link<' \
    | sed -nE 's/^    fn ([a-z_]+).*/\1/p' | paste -sd ' ')
echo "run schedule surface (crates/*/src)"
printf '  %-32s %6d\n' \
    "schedule types (pub struct)" "$(src_count '^pub struct (FaultPhase|CrashEvent|ConnKill|Scenario)\b')" \
    "Step members" "$(for f in $({ grep -rlE '^pub enum Step\b' crates/*/src || true; }); do
        members "$f" '^pub enum Step '; done | awk '{ n += $1 } END { print n + 0 }')" \
    "Link trait methods" "$(echo "$link_methods" | wc -w)" \
    "fn tick( definitions" "$(src_count 'fn tick\(')" \
    "Cluster forwarding methods" "$(grep -c 'Generic implementation' crates/kvstore/src/cluster.rs || true)"
printf '  %-32s %s\n' "Link trait method names" "$link_methods"
# One queue for everything due: the simulator's event queue and each
# worker's agenda are the same type, a timer is named by what it is for
# rather than by a minted id, and no node keeps a map from ids to kinds.
echo "timer surface (crates/*/src)"
printf '  %-32s %6d\n' \
    "due-ordered queue types" "$(src_count 'struct (EventQueue|TimerWheel)\b')" \
    "TimerId mentions" "$(src_count 'TimerId')" \
    "node timers: BTreeMap< fields" "$(src_count '^ +timers: BTreeMap<')"
# One host for every driver: the simulator and each threaded worker run
# their nodes through `simnet::Host`, whose one context every node sees
# and whose one `dispatch` runs every event.
echo "host surface (crates/*/src)"
printf '  %-32s %6d\n' \
    "node context types (*Ctx<)" "$(src_count '^(pub )?struct [A-Za-z]*Ctx<')" \
    "NodeCtx impls" "$(src_count 'impl<.*> NodeCtx<M> for')" \
    "fn dispatch definitions" "$(src_count '^ *(pub )?fn dispatch\b')" \
    "runtime hosting types" "$({ grep -rhE '^(pub )?(struct|enum) (Router|Crash|Hosted|Due|RtCtx)\b' \
        crates/runtime/src || true; } | wc -l)" \
    "impl NodeCtx<M> parameters" "$(src_count '&mut impl NodeCtx<M>')"
# Only an owner coordinates: a server outside a key's preference list
# relays the request to an owner instead of running a second coordinator
# role (no delegated-write message, no ownership flag on a request).
echo "coordination surface"
printf '  %-32s %6d\n' \
    "RepWrite lines (crates/*/src)" "$(src_count 'RepWrite')" \
    "Pending fields (node.rs)" "$(members crates/kvstore/src/node.rs '^struct Pending<')"
# Each client's writes are coordinated at most once by one exact
# per-client mark (`StoreNode::write_marks`), so no bounded window of
# recent ids — a FIFO queue and its size — should come back beside it.
echo "node dedupe state (node.rs)"
printf '  %-32s %6d\n' \
    "VecDeque fields" "$(grep -cE '^ +[a-z_][a-z0-9_]*: VecDeque<' crates/kvstore/src/node.rs || true)" \
    "_DEDUPE_ consts" "$(grep -cE '^ *(pub )?const [A-Z_]*_DEDUPE_' crates/kvstore/src/node.rs || true)"
# After `LogEngine::open` a log's file belongs to its writer thread, which
# the engine reaches over `std::sync::mpsc` channels, so no lock,
# condition variable or shared file handle should come back for a
# hand-rolled hand-off.
echo "log writer (crates/storage/src)"
printf '  %-32s %6d\n' \
    "Mutex|Condvar|OnceLock lines" "$({ grep -rhE 'Mutex|Condvar|OnceLock' crates/storage/src || true; } | wc -l)" \
    "Arc<File> lines" "$({ grep -rh 'Arc<File>' crates/storage/src || true; } | wc -l)"
# The fault plane: how many times each of its pieces is written.
# Environment variables the crates themselves read: each one is a switch
# a run can flip without a code change.
echo "env knobs read in crates/*/src"
printf '  %-32s %6d\n' \
    "std::env::var( sites" "$(src_count 'std::env::var\(')"
echo "fault surface (crates/*/src)"
printf '  %-32s %6d\n' \
    "hostile() profiles" "$(src_count 'pub fn hostile\(')" \
    "NET_FAULTS readers" "$(src_count '"NET_FAULTS"')" \
    "REPLAY_STASH_CAP definitions" "$(src_count 'const REPLAY_STASH_CAP')"
# The codec surface: every mechanism's states and contexts are written by
# their own codec, reached through one trait whose bodies are defaults in
# dvv/src/mechanisms/mod.rs — no mechanism writes its own.
echo "codec surface (crates/*/src)"
printf '  %-32s %6d\n' \
    "mechanisms with WireMechanism" "$({ grep -rhzoE 'WireMechanism<V>\s+for [A-Za-z]+Mechanism' \
        crates/*/src --include='*.rs' || true; } | tr '\0' '\n' \
        | grep -cE 'for [A-Za-z]+Mechanism' || true)" \
    "MsgSink impls" "$(src_count 'impl<.*> MsgSink<')" \
    "encode_state outside the trait" "$({ grep -rE 'fn encode_state' crates/*/src --include='*.rs' \
        | grep -v '^crates/dvv/src/mechanisms/mod.rs:' || true; } | wc -l)"
# The measuring instruments: `figures` and `perfbench` are the two, and
# nothing else should grow back beside them.
echo "instrument surface"
printf '  %-32s %6d\n' \
    "[[bench]] targets" "$(cat Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml \
        | grep -c '^\[\[bench\]\]' || true)" \
    "vendored shim crates" "$(find vendor -mindepth 2 -maxdepth 2 -name Cargo.toml | wc -l)" \
    "committed baseline files" "$(find . \( -name target -o -name .git \) -prune \
        -o -type f -name 'BENCH_*.json' -print | wc -l)" \
    "jobs in ci.yml" "$(awk '/^jobs:/ { inside = 1; next } inside && /^  [A-Za-z0-9_-]+:/' \
        .github/workflows/ci.yml | wc -l)"
# Where `unsafe` may live: one module of one crate (`ci_local.sh
# --lane build-test` fails on any other), and the threads the socket
# fabric spawns — on a fleet none, every node's accepting and reading is
# its worker's; only `Fabric::start` hosts pollers on threads of its own.
echo "unsafe surface (blocks, fns, impls, externs per crate)"
for crate in crates/*/; do
    printf '  %-32s %6d\n' "$(basename "$crate")" \
        "$({ grep -rhE '\bunsafe[[:space:]]*(\{|fn|impl|extern)' "$crate/src" || true; } | wc -l)"
done
# A method's body: the lines after its declaration in $1 matching $2, up
# to its closing brace at the impl's indentation.
method() {
    awk -v start="$2" '
        inside && /^    }$/ { exit }
        inside { print }
        $0 ~ start { inside = 1 }
    ' "$1"
}
spawns=$({ grep -rhE 'thread::spawn' crates/transport/src || true; } | wc -l)
start_spawns=$(method crates/transport/src/fabric.rs '^    pub fn start\(' | grep -c 'thread::spawn' || true)
fleet_spawns=$((spawns - start_spawns))
# The fleet's link either hosts its own pollers or starts the fabric's.
if method crates/transport/src/fleet.rs '^    fn open\(' | grep -q 'Fabric::start('; then
    fleet_spawns=$spawns
fi
echo "socket fabric threads (thread::spawn sites in crates/transport/src)"
printf '  %-32s %6d\n' \
    "on a fleet (FabricLink)" "$fleet_spawns" \
    "in Fabric::start" "$start_spawns"
# The socket send path: a fleet worker's send encodes and frames in place
# into its outbox (`Msg::encode_into`, `frame::append_frame`), so neither
# the allocating encoder nor the copying framer is called from the link.
echo "socket send path (call sites in crates/transport/src/fleet.rs)"
printf '  %-32s %6d\n' \
    "encode_transport(" "$({ grep -E 'encode_transport\(' crates/transport/src/fleet.rs || true; } | wc -l)" \
    "frame_bytes(" "$({ grep -E 'frame_bytes\(' crates/transport/src/fleet.rs || true; } | wc -l)"
