//! Call-level tracing from outside the program: wrappers around the two
//! seams the fleets expose generically — the causality mechanism and
//! the storage engine — that record count / total ns / max ns per call.
//!
//! Counters are thread-local (a fleet's node threads never contend on
//! them) and fold into a process-wide total when their thread exits,
//! which a fleet's `run()` guarantees by joining every thread it
//! spawned. The main thread folds or discards its own explicitly:
//! fleet construction belongs to the run, the oracle audit does not.

use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

use dvv::encode::{Decoder, Encode};
use dvv::mechanisms::{Mechanism, WireMechanism, WriteOrigin};
use dvv::{DecodeError, ReplicaId};
use storage::{Key, LogEngine, StorageEngine};

/// The traced entry points. `Read`..`Size` are the mechanism calls the
/// protocol makes; the four codec calls are nested inside message
/// encode/decode on the socket driver; the last three are the engine.
#[derive(Clone, Copy, Debug)]
pub enum Call {
    Read,
    Write,
    Merge,
    MergeCtx,
    Size,
    EncodeState,
    DecodeState,
    EncodeCtx,
    DecodeCtx,
    Apply,
    Sync,
    Reserve,
}

const CALLS: usize = 12;

/// Count, total and maximum duration of one traced entry point.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStat {
    pub calls: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl CallStat {
    /// Mean ns per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// One `CallStat` per [`Call`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters([CallStat; CALLS]);

impl Counters {
    pub fn get(&self, call: Call) -> CallStat {
        self.0[call as usize]
    }

    /// Sum of the total ns of `calls`.
    pub fn total_ns(&self, calls: &[Call]) -> u64 {
        calls.iter().map(|c| self.get(*c).total_ns).sum()
    }

    fn absorb(&mut self, other: &Counters) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.calls += b.calls;
            a.total_ns += b.total_ns;
            a.max_ns = a.max_ns.max(b.max_ns);
        }
    }
}

static TOTAL: Mutex<Counters> = Mutex::new(Counters(
    [CallStat {
        calls: 0,
        total_ns: 0,
        max_ns: 0,
    }; CALLS],
));

/// A thread's counters, folded into [`TOTAL`] when the thread exits.
#[derive(Default)]
struct Local {
    counters: Counters,
    /// Running sum of mechanism time on this thread, so an engine call
    /// can subtract the mechanism calls nested inside it.
    mech_ns: u64,
}

impl Drop for Local {
    fn drop(&mut self) {
        if let Ok(mut total) = TOTAL.lock() {
            total.absorb(&self.counters);
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn record(call: Call, ns: u64, is_mech: bool) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let s = &mut l.counters.0[call as usize];
        s.calls += 1;
        s.total_ns += ns;
        s.max_ns = s.max_ns.max(ns);
        if is_mech {
            l.mech_ns += ns;
        }
    });
}

fn mech_ns_so_far() -> u64 {
    LOCAL.with(|l| l.borrow().mech_ns)
}

/// Folds the calling thread's counters into the process-wide total.
pub fn fold_thread() {
    LOCAL.with(|l| drop(std::mem::take(&mut *l.borrow_mut())));
}

/// Forgets the calling thread's counters.
pub fn discard_thread() {
    LOCAL.with(|l| l.borrow_mut().counters = Counters::default());
}

/// Returns the process-wide total and resets it.
pub fn take_total() -> Counters {
    std::mem::take(&mut *TOTAL.lock().expect("trace total lock"))
}

fn mech_call<R>(call: Call, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    record(call, t0.elapsed().as_nanos() as u64, true);
    r
}

/// Runs an engine call and returns its *self* time: its duration minus
/// the mechanism calls that ran inside it (`apply`'s mutate closure is
/// where the protocol calls `write`/`merge`).
fn self_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let nested_before = mech_ns_so_far();
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    let nested = mech_ns_so_far() - nested_before;
    (r, ns.saturating_sub(nested))
}

fn engine_call<R>(call: Call, f: impl FnOnce() -> R) -> R {
    let (r, ns) = self_ns(f);
    record(call, ns, false);
    r
}

/// A mechanism that times every call into `M` and otherwise behaves
/// exactly like it (same states, contexts, names and wire bytes).
#[derive(Clone, Copy, Debug, Default)]
pub struct Traced<M>(pub M);

impl<V: Clone, M: Mechanism<V>> Mechanism<V> for Traced<M> {
    type State = M::State;
    type Context = M::Context;

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn read(&self, state: &Self::State) -> (Vec<V>, Self::Context) {
        mech_call(Call::Read, || self.0.read(state))
    }

    fn write(&self, state: &mut Self::State, origin: WriteOrigin, ctx: &Self::Context, value: V) {
        mech_call(Call::Write, || self.0.write(state, origin, ctx, value));
    }

    fn write_with_floor(
        &self,
        state: &mut Self::State,
        origin: WriteOrigin,
        ctx: &Self::Context,
        value: V,
        floor: u64,
    ) -> Option<u64> {
        mech_call(Call::Write, || {
            self.0.write_with_floor(state, origin, ctx, value, floor)
        })
    }

    fn dot_map(&self, state: &Self::State) -> Vec<((ReplicaId, u64), V)> {
        self.0.dot_map(state)
    }

    fn merge(&self, local: &mut Self::State, remote: &Self::State) {
        mech_call(Call::Merge, || self.0.merge(local, remote));
    }

    fn merge_contexts(&self, into: &mut Self::Context, from: &Self::Context) {
        mech_call(Call::MergeCtx, || self.0.merge_contexts(into, from));
    }

    fn metadata_size(&self, state: &Self::State) -> usize {
        mech_call(Call::Size, || self.0.metadata_size(state))
    }

    fn context_size(&self, ctx: &Self::Context) -> usize {
        mech_call(Call::Size, || self.0.context_size(ctx))
    }

    fn sibling_count(&self, state: &Self::State) -> usize {
        self.0.sibling_count(state)
    }

    fn is_empty(&self, state: &Self::State) -> bool {
        self.0.is_empty(state)
    }
}

impl<V: Clone + Encode, M: WireMechanism<V>> WireMechanism<V> for Traced<M> {
    fn encode_state(&self, state: &Self::State, buf: &mut Vec<u8>) {
        mech_call(Call::EncodeState, || self.0.encode_state(state, buf));
    }

    fn decode_state(&self, d: &mut Decoder<'_>) -> Result<Self::State, DecodeError> {
        mech_call(Call::DecodeState, || self.0.decode_state(d))
    }

    fn encode_context(&self, ctx: &Self::Context, buf: &mut Vec<u8>) {
        mech_call(Call::EncodeCtx, || self.0.encode_context(ctx, buf));
    }

    fn decode_context(&self, d: &mut Decoder<'_>) -> Result<Self::Context, DecodeError> {
        mech_call(Call::DecodeCtx, || self.0.decode_context(d))
    }
}

/// The log engine with its disk-touching calls timed: `apply`, `sync`
/// and `store_reservation`. The log group-syncs *inside* an `apply`
/// once enough records are buffered, so an apply that advanced the
/// engine's sync counter is recorded as a [`Call::Sync`] (buffer write,
/// fsync and any compaction it triggered) and only the others as
/// [`Call::Apply`] (encode and buffer).
#[derive(Debug)]
pub struct TracedEngine<S>(pub LogEngine<S>);

impl<S: Clone + Send + std::fmt::Debug + 'static> StorageEngine<S> for TracedEngine<S> {
    fn get(&self, key: &[u8]) -> Option<&S> {
        self.0.get(key)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn apply(
        &mut self,
        key: &[u8],
        init: &mut dyn FnMut() -> S,
        mutate: &mut dyn FnMut(&mut S),
    ) -> &S {
        let syncs_before = self.0.stats().syncs;
        let ((), ns) = self_ns(|| {
            self.0.apply(key, init, mutate);
        });
        let call = if self.0.stats().syncs > syncs_before {
            Call::Sync
        } else {
            Call::Apply
        };
        record(call, ns, false);
        self.0.get(key).expect("apply stores the key")
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        self.0.remove(key)
    }

    fn clear(&mut self) {
        self.0.clear();
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (&Key, &S)> + '_> {
        self.0.iter()
    }

    fn snapshot(&self) -> Box<dyn StorageEngine<S>> {
        self.0.snapshot()
    }

    fn sync(&mut self) {
        engine_call(Call::Sync, || self.0.sync());
    }

    fn load_reservation(&self) -> Option<(u64, u64)> {
        self.0.load_reservation()
    }

    fn store_reservation(&mut self, epoch: u64, ceiling: u64) {
        engine_call(Call::Reserve, || self.0.store_reservation(epoch, ceiling));
    }

    fn kind(&self) -> &'static str {
        self.0.kind()
    }
}
