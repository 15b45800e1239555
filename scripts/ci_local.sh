#!/usr/bin/env bash
# The definition of every CI lane. Each job in .github/workflows/ci.yml
# is a checkout, a cache and `scripts/ci_local.sh --lane <name>`, so a
# lane is edited here and nowhere else, and a red lane is reproduced
# offline by the command CI ran.
#
#   scripts/ci_local.sh              # the PR gate: every lane but soak
#   scripts/ci_local.sh --soak       # additionally the nightly soak lane
#                                    #   (PROPTEST_CASES=1024 + extra
#                                    #   churn seeds)
#   scripts/ci_local.sh --lane elastic   # just one lane
#
# Lanes: build-test, elastic, examples, runtime, perfbench, socket,
# storage, faults, soak.
#
# Not a lane: a change that claims no behaviour change is checked
# against its parent with `scripts/bit_for_bit.sh <parent-rev>` (the
# seeded pins and the deterministic `figures` output, ROADMAP's
# bit-for-bit rule).
set -euo pipefail
cd "$(dirname "$0")/.."

want_soak=0
only_lane=""
while [ $# -gt 0 ]; do
    case "$1" in
        --soak) want_soak=1 ;;
        --lane)
            shift
            only_lane="${1:-}"
            [ -n "$only_lane" ] || { echo "--lane needs an argument" >&2; exit 2; }
            ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
    shift
done

runs_lane() {
    if [ -n "$only_lane" ]; then
        [ "$only_lane" = "$1" ]
    elif [ "$1" = soak ]; then
        [ "$want_soak" -eq 1 ]
    else
        return 0
    fi
}

banner() {
    echo
    echo "━━━ lane: $1 ━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━━"
}

# The PR gate needs the suites green, not statistically exhaustive, so
# it runs them with a cheap case count (the soak lane overrides it);
# export PROPTEST_CASES yourself to override.
export PROPTEST_CASES="${PROPTEST_CASES:-64}"

if runs_lane build-test; then
    banner "build-test"
    rustc --version
    cargo --version
    cargo build --release
    cargo test -q
    cargo clippy --all-targets -- -D warnings
    cargo fmt --all --check
    # Docs link to items by path, and nothing else notices when a PR
    # deletes or hides one of them.
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
    # `unsafe` lives in one module, the transport's `epoll` interface:
    # every other crate forbids it, and no block, fn, impl or extern
    # appears anywhere else.
    stray=$(grep -rnE '\bunsafe[[:space:]]*(\{|fn|impl|extern)' crates/*/src \
        | grep -v '^crates/transport/src/poll.rs:' || true)
    if [ -n "$stray" ]; then
        echo "unsafe outside crates/transport/src/poll.rs:" >&2
        echo "$stray" >&2
        exit 1
    fi
    for lib in crates/*/src/lib.rs; do
        [ "$lib" = crates/transport/src/lib.rs ] && continue
        grep -q '^#!\[forbid(unsafe_code)\]' "$lib" \
            || { echo "$lib lacks #![forbid(unsafe_code)]" >&2; exit 1; }
    done
    # Informational, not a gate: the counts a change log quotes.
    ./scripts/src_census.sh
fi

if runs_lane elastic; then
    banner "elastic"
    # The join/leave/churn scenario suites run in their own lane: they
    # are the only suites that reshape the ring live, so a regression
    # here should be visible at a glance rather than buried in the full
    # run. `gossip` covers ring-view dissemination (partitioned
    # announces, request-digest catch-up, residual-copy retirement);
    # `overlap` covers concurrent membership changes over mergeable
    # views and the in-band re-admission path.
    cargo test -p kvstore --test elastic -- --nocapture
    cargo test -p kvstore --test gossip -- --nocapture
    cargo test -p kvstore --test overlap -- --nocapture
    cargo test -p ring --test view_merge -- --nocapture
fi

if runs_lane examples; then
    banner "examples"
    # Every doc-level entry point must keep running: examples rot
    # silently otherwise, because `cargo test` only compiles them.
    ./scripts/smoke_examples.sh
    cargo run -q --release --bin figures
fi

if runs_lane runtime; then
    banner "runtime"
    # The multi-threaded driver gets its own lane: these suites exercise
    # real thread interleavings (not the deterministic simulator), so a
    # failure here is a concurrency bug and should be visible at a
    # glance. Each worker runs its nodes through a `simnet::Host`, the
    # simulator's own: `timer_order` (simnet's) proves the one timer
    # wheel every host queues on pops in stable (due, FIFO) order and
    # never pops a cancelled timer;
    # `watchdog` proves the main loop's stall check catches a wedged
    # node; `link_loop` drives the one worker loop message by message
    # through a scripted link (queued reply before due timer,
    # self-sends on the host's agenda, a down server's inbox, held-back
    # sends, full-inbox loss, prompt shutdown and teardown, the idle
    # poll's hits and its
    # cut at the next due timer); `idle` bounds what that poll costs a
    # quiet or thinking fleet, on the fleet's own counters;
    # `thread_census` counts a run's threads
    # (its workers, nothing else), `thread_census_durable` a durable
    # run's (plus one log writer per server); `conformance` runs the same seeded
    # workload on both drivers and requires AAE-equivalent,
    # oracle-clean end states.
    cargo test -p simnet --test timer_order -- --nocapture
    cargo test -p runtime --test watchdog -- --nocapture
    cargo test -p runtime --test link_loop -- --nocapture
    cargo test -p runtime --test idle -- --nocapture
    cargo test -p runtime --test thread_census -- --nocapture
    # A log writer that outlives its engine, or a second one per log,
    # shows only in a durable run's thread count.
    cargo test -p runtime --test thread_census_durable -- --nocapture
    cargo test -p runtime --test conformance -- --nocapture
fi

if runs_lane perfbench; then
    banner "perfbench"
    # The repo benchmark (BENCHMARK.json -> perfbench/) is a package of
    # its own, outside the workspace, so no other lane compiles it — and
    # it drives the fleets through the public API of `runtime` and
    # `transport`, and implements `storage::StorageEngine` itself (its
    # `TracedEngine` wraps a `LogEngine`), so that trait's method set is
    # frozen with `perfbench/`. Build it and run its own unit tests so
    # an API change that breaks the benchmark turns this lane red, not
    # the next measurement. Builds into perfbench/target (git-ignored).
    cargo build --release --manifest-path perfbench/Cargo.toml
    cargo test --release --manifest-path perfbench/Cargo.toml
fi

if runs_lane socket; then
    banner "socket"
    # The real-TCP driver gets its own lane: these suites open actual
    # loopback sockets, so a failure here is a transport bug (framing,
    # reconnect, backpressure, accounting), not a protocol bug.
    # `frame_robustness` fuzzes the frame decoders (partial reads, torn
    # streams, bit flips, oversized lengths, and the in-place parser
    # against `read_frame` at any read split); `charge_parity` proves
    # ledger bytes == socket bytes on both ends of a connection;
    # `conformance` runs the same seeded workload on the simulator and
    # the socket fleet (3 seeds) and requires AAE-equivalent,
    # oracle-clean end states plus an exact fleet-wide byte-ledger
    # identity (charged == fabric enqueued + dropped + the self-send
    # bytes the hosts counted), then the fault plane over TCP (calm and
    # hostile, which the faults lane runs again on its own), where the
    # identity also counts each copy the plane dropped, found
    # unreachable, duplicated or replayed; `lifecycle` severs live
    # connections mid-burst and requires reconnect + unaided
    # convergence; `thread_census` counts
    # the fabric's threads (one poller per node on `Fabric::start`, none
    # per connection, none on the send side) and `fleet_thread_census` a
    # socket fleet's (its workers, nothing else, on one client worker
    # and on two); `watchdog` wedges a socket fleet's only server and
    # requires the stall check to name it; `receive_path` holds
    # the worker-hosted receive side to what reader threads gave (a
    # stalled connection holds up no other, two workers bursting at
    # each other both return, teardown wakes a waiting worker);
    # `mechanisms` runs the paper's comparison over TCP, every clock in
    # its own codec (ledger identity for all eight, the precise ones
    # clean, the deficient ones anomalous); `scenario` runs one kill,
    # cut and revive on all three drivers, the first socket run with a
    # server crash, and holds a refusal test per rule of `Scenario::check`;
    # `idle` bounds what the socket link's idle poll costs an idle or a
    # thinking fleet and checks that a busy fleet's poll reads sockets.
    cargo test -p transport --test frame_robustness -- --nocapture
    cargo test -p transport --test charge_parity -- --nocapture
    cargo test -p transport --test conformance -- --nocapture
    cargo test -p transport --test lifecycle -- --nocapture
    cargo test -p transport --test thread_census -- --nocapture
    cargo test -p transport --test fleet_thread_census -- --nocapture
    cargo test -p transport --test watchdog -- --nocapture
    cargo test -p transport --test receive_path -- --nocapture
    cargo test -p transport --test mechanisms -- --nocapture
    cargo test -p transport --test scenario -- --nocapture
    cargo test -p transport --test idle -- --nocapture
fi

if runs_lane storage; then
    banner "storage"
    # The persistence stack gets its own lane: the log engine's unit
    # and property suites (codec round-trip, torn-tail and bit-flip
    # replay), then crash/restart recovery on BOTH drivers — the
    # deterministic simulator and the threaded runtime — each ending
    # in the full convergence + no-loss audit stack. `conditional_read`
    # counts the records a GET leaves in its coordinator's log: a read
    # writes only what it changes, so a read of a key no replica holds,
    # or one every replica answers `RepGetSame`, must log nothing.
    # `aae_oracle` is the AAE index's equivalence oracle: every write
    # keeps the per-arc summaries above the engine current, and it
    # audits them against a from-scratch rebuild after every step —
    # a storage change that skips a leaf update fails here first.
    cargo test -p storage -- --nocapture
    cargo test -p kvstore --test recovery -- --nocapture
    cargo test -p runtime --test recovery -- --nocapture
    cargo test -p kvstore --test conditional_read -- --nocapture
    cargo test -p kvstore --test aae_oracle -- --nocapture
fi

if runs_lane faults; then
    banner "faults"
    # The robustness lane: every link duplicating, reordering and
    # stale-replaying traffic, composed with crashes. `crash_burst`
    # kills a replica mid write-burst under group-sync durability
    # (unsynced log tail lost), restarts it into a half-open partition +
    # replay storm, and audits the fleet-wide dot-uniqueness census over
    # live states AND durable log histories — including the committed
    # guard-disabled regression proving the epoch guard is load-bearing.
    # Then the reservation codec properties, the hello-authentication
    # lifecycle suite, and the churn suites re-run under
    # NET_FAULTS=hostile: handlers must be idempotent and commutative to
    # converge when the network is adversarial. The same variable, read
    # by the same `NetworkConfig::with_env_faults`, turns the threaded
    # conformance run (simulator baseline included) hostile too. The
    # fault plane over TCP runs calm and hostile by itself: it sits
    # above the link, so the socket fleet takes the same network value.
    cargo test -p kvstore --test crash_burst -- --nocapture
    cargo test -p runtime --test crash_burst -- --nocapture
    cargo test -p storage --test meta_record -- --nocapture
    cargo test -p transport --test lifecycle -- --nocapture
    cargo test -p transport --test conformance the_fault_plane_over_sockets -- --nocapture
    NET_FAULTS=hostile cargo test -p kvstore --test elastic -- --nocapture
    NET_FAULTS=hostile cargo test -p kvstore --test gossip -- --nocapture
    NET_FAULTS=hostile cargo test -p kvstore --test overlap -- --nocapture
    NET_FAULTS=hostile cargo test -p runtime --test conformance -- --nocapture
fi

if runs_lane soak; then
    banner "soak"
    # The nightly: the cheap PR gate above is backed by a statistically
    # meaningful run — 1024 proptest cases, and extra deterministic
    # seeds appended to every churn / crash scenario's base list (see
    # workloads::churn_seeds). Covers the membership and sloppy-quorum
    # properties, the churn suites, the incremental-AAE equivalence
    # oracle, the wire scenario (every seed converges to the state its
    # script implies, seed 31's bytes per class exact), the
    # message-codec fuzz and golden bytes,
    # crash/recovery and crash-mid-burst on both drivers, and the
    # hostile-network reruns.
    PROPTEST_CASES="${SOAK_PROPTEST_CASES:-1024}" \
    EXTRA_CHURN_SEEDS="${EXTRA_CHURN_SEEDS:-59,83,127,211,349}" \
    bash -c '
        set -euo pipefail
        cargo test -p ring --test view_merge -- --nocapture
        cargo test -p ring --test properties -- --nocapture
        cargo test -p kvstore --test elastic -- --nocapture
        cargo test -p kvstore --test gossip -- --nocapture
        cargo test -p kvstore --test overlap -- --nocapture
        cargo test -p kvstore --test aae_oracle -- --nocapture
        cargo test -p kvstore --test wire -- --nocapture
        cargo test -p kvstore --test wire_parity -- --nocapture
        cargo test -p kvstore --test wire_golden -- --nocapture
        cargo test -p kvstore --test recovery -- --nocapture
        cargo test -p storage -- --nocapture
        cargo test -p kvstore --test crash_burst -- --nocapture
        cargo test -p runtime --test crash_burst -- --nocapture
        cargo test -p storage --test meta_record -- --nocapture
        NET_FAULTS=hostile cargo test -p kvstore --test elastic -- --nocapture
        NET_FAULTS=hostile cargo test -p kvstore --test gossip -- --nocapture
        NET_FAULTS=hostile cargo test -p kvstore --test overlap -- --nocapture
        NET_FAULTS=hostile cargo test -p runtime --test conformance -- --nocapture
    '
    # The log round-trip properties at soak breadth, named on their own:
    # every group the compaction property syncs goes through the log
    # writer's hand-off and is waited for, so a writer that reorders,
    # drops or half-writes a group fails here first.
    PROPTEST_CASES="${SOAK_PROPTEST_CASES:-1024}" \
        cargo test -p storage --test log_roundtrip -- --nocapture
    # cross-backend conformance at soak breadth: several seeds so rare
    # thread interleavings get real coverage
    RUNTIME_CONFORMANCE_SEEDS="${RUNTIME_CONFORMANCE_SEEDS:-8}" \
        cargo test -p runtime --test conformance -- --nocapture
    SOCKET_CONFORMANCE_SEEDS="${SOCKET_CONFORMANCE_SEEDS:-8}" \
        cargo test -p transport --test conformance -- --nocapture
fi

echo
echo "all requested lanes green ✓"
