//! [`ClientNode`]: a closed-loop client session issuing read-modify-write
//! cycles, with timeouts, retries, and the observation log the oracle
//! needs.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use dvv::mechanisms::Mechanism;
use dvv::{ClientId, ReplicaId};
use ring::{HashRing, RingView};
use simnet::{NodeId, SimTime};
use workloads::{Histogram, KeySpace, Popularity};

use crate::config::{ClientConfig, StoreConfig};
use crate::ctx::{Ctx, Timer};
use crate::messages::{Msg, ReqId, WireStats};
use crate::value::{Key, StampedValue, WriteId};

/// One logged write: what the client wrote and what it had observed —
/// the raw material for ground-truth causality reconstruction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteLogEntry {
    /// Key written.
    pub key: Key,
    /// Identity of the write.
    pub id: WriteId,
    /// Writes whose values this client had observed (from its latest read
    /// of the key) when it issued this write.
    pub observed: Vec<WriteId>,
    /// Whether the store acknowledged the write.
    pub acked: bool,
}

/// Latency and outcome counters for one client.
#[derive(Clone, Debug, Default)]
pub struct ClientStats {
    /// GET round-trip latencies (µs).
    pub get_latency: Histogram,
    /// PUT round-trip latencies (µs).
    pub put_latency: Histogram,
    /// Cycles abandoned after exhausting retries.
    pub failed_cycles: u64,
    /// Individual request retries.
    pub retries: u64,
}

#[derive(Debug)]
enum Kind<M: Mechanism<StampedValue>> {
    Get,
    Put {
        value: StampedValue,
        ctx: M::Context,
    },
}

/// What this session has read of one key: the join of every read
/// context it got for the key, and each write id it saw there, once, in
/// first-seen order. One entry per key, so a response updates both with
/// one lookup.
#[derive(Debug)]
struct Seen<C> {
    ctx: C,
    ids: Vec<WriteId>,
}

#[derive(Debug)]
struct InFlight<M: Mechanism<StampedValue>> {
    req: ReqId,
    key: Key,
    kind: Kind<M>,
    sent_at: SimTime,
    retries: u32,
}

/// A closed-loop client process: `GET key → PUT key (with context) →
/// think → repeat`, over a Zipf-popular key space.
#[derive(Debug)]
pub struct ClientNode<M: Mechanism<StampedValue>> {
    client: ClientId,
    node_index: u32,
    mech: M,
    config: ClientConfig,
    /// The store's N, per-message header and ring geometry.
    store: StoreConfig,
    /// The mergeable membership state this client routes under.
    view: RingView<ReplicaId>,
    ring: HashRing<ReplicaId>,
    /// Replicas marked down; routing skips them.
    down: BTreeSet<ReplicaId>,
    keyspace: KeySpace,
    seen: BTreeMap<Key, Seen<M::Context>>,
    write_seq: u64,
    cycles_done: u32,
    next_req: u64,
    current: Option<InFlight<M>>,
    /// Public write log for the oracle.
    write_log: Vec<WriteLogEntry>,
    stats: ClientStats,
    /// Per-class bytes/messages this client has put on the wire.
    wire: WireStats,
    done: bool,
}

impl<M: Mechanism<StampedValue>> ClientNode<M> {
    /// Creates a client. `node_index` is its simulation node id (servers
    /// occupy `0..server_count`); the store's N, per-message header and
    /// ring geometry come from `store`; the ring it routes over derives
    /// from `view`, and no replica starts marked down.
    pub fn new(
        client: ClientId,
        node_index: u32,
        mech: M,
        config: ClientConfig,
        store: &StoreConfig,
        view: RingView<ReplicaId>,
    ) -> Self {
        let keyspace = KeySpace::new(
            "key",
            config.key_count,
            if config.zipf_alpha > 0.0 {
                Popularity::Zipf(config.zipf_alpha)
            } else {
                Popularity::Uniform
            },
        );
        let ring = view.to_ring(store.vnodes);
        ClientNode {
            client,
            node_index,
            mech,
            config,
            store: *store,
            view,
            ring,
            down: BTreeSet::new(),
            keyspace,
            seen: BTreeMap::new(),
            write_seq: 0,
            cycles_done: 0,
            next_req: 0,
            current: None,
            write_log: Vec::new(),
            stats: ClientStats::default(),
            wire: WireStats::default(),
            done: false,
        }
    }

    /// Whether the session has completed all its cycles.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Completed cycles so far.
    pub fn cycles_done(&self) -> u32 {
        self.cycles_done
    }

    /// The observation log for the oracle.
    pub fn write_log(&self) -> &[WriteLogEntry] {
        &self.write_log
    }

    /// Latency/outcome counters.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Per-class wire bytes/messages this client has sent.
    pub fn wire_stats(&self) -> WireStats {
        self.wire
    }

    /// Marks a replica up/down in this client's routing view.
    pub fn set_peer_status(&mut self, peer: ReplicaId, up: bool) {
        if up {
            self.down.remove(&peer);
        } else {
            self.down.insert(peer);
        }
    }

    /// Monotone version of this client's ring view.
    pub fn ring_epoch(&self) -> u64 {
        self.view.version()
    }

    /// Digest of this client's ring view (convergence check).
    pub fn view_digest(&self) -> u64 {
        self.view.digest()
    }

    /// Merges a view a server pushed ([`Msg::RingEpoch`]): on change,
    /// rebuilds the ring and forgets the down marks of replicas that left
    /// it. Returns `(changed, sender_lacks)` as reported by
    /// [`RingView::absorb`].
    fn force_view(&mut self, view: &RingView<ReplicaId>) -> (bool, bool) {
        let (changed, sender_lacks) = self.view.absorb(view);
        if changed {
            self.ring = self.view.to_ring(self.store.vnodes);
            let members = self.ring.nodes();
            self.down.retain(|r| members.contains(r));
        }
        (changed, sender_lacks)
    }

    fn fresh_req(&mut self) -> ReqId {
        self.next_req += 1;
        (u64::from(self.node_index) << 32) | self.next_req
    }

    /// The client's one send door: charges the message ([`Msg::charge`],
    /// into this client's ledger) and hands the driver the same number.
    fn send(&mut self, ctx: &mut Ctx<'_, M>, to: NodeId, msg: Msg<M>) {
        let bytes = msg.charge(&self.mech, self.store.header_bytes, &mut self.wire);
        ctx.send(to, msg, bytes);
    }

    fn pick_coordinator(&mut self, ctx: &mut Ctx<'_, M>, key: &[u8]) -> Option<NodeId> {
        let routable = |r: &ReplicaId| !self.down.contains(r);
        let (active, _) =
            self.ring
                .sloppy_preference_list_at(ring::hash_key(key), self.store.n, routable);
        if active.is_empty() {
            return None;
        }
        let pick = ctx.rng().range_u64(0, active.len() as u64) as usize;
        Some(NodeId(active[pick].0))
    }

    fn begin_cycle(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.cycles_done >= self.config.cycles {
            self.done = true;
            return;
        }
        let u = ctx.rng().unit_f64();
        let key = self.keyspace.sample_key(u);
        self.issue_get(ctx, key, 0);
    }

    fn issue_get(&mut self, ctx: &mut Ctx<'_, M>, key: Key, retries: u32) {
        let req = self.fresh_req();
        let Some(coord) = self.pick_coordinator(ctx, &key) else {
            self.abandon_cycle(ctx);
            return;
        };
        // the timeout is cancelled when the answer arrives
        ctx.set_timer(self.config.request_timeout, Timer::Request(req));
        self.current = Some(InFlight {
            req,
            key: key.clone(),
            kind: Kind::Get,
            sent_at: ctx.now(),
            retries,
        });
        let digest = self.view.digest();
        self.send(ctx, coord, Msg::ClientGet { req, key, digest });
    }

    fn issue_put(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        key: Key,
        value: StampedValue,
        put_ctx: M::Context,
        retries: u32,
    ) {
        let req = self.fresh_req();
        let Some(coord) = self.pick_coordinator(ctx, &key) else {
            self.abandon_cycle(ctx);
            return;
        };
        ctx.set_timer(self.config.request_timeout, Timer::Request(req));
        self.current = Some(InFlight {
            req,
            key: key.clone(),
            kind: Kind::Put {
                value: value.clone(),
                ctx: put_ctx.clone(),
            },
            sent_at: ctx.now(),
            retries,
        });
        let digest = self.view.digest();
        self.send(
            ctx,
            coord,
            Msg::ClientPut {
                req,
                key,
                value,
                ctx: put_ctx,
                digest,
            },
        );
    }

    fn abandon_cycle(&mut self, ctx: &mut Ctx<'_, M>) {
        self.stats.failed_cycles += 1;
        self.current = None;
        self.cycles_done += 1; // the cycle is spent even though it failed
        self.think_then_continue(ctx);
    }

    fn think_then_continue(&mut self, ctx: &mut Ctx<'_, M>) {
        if self.cycles_done >= self.config.cycles {
            self.done = true;
            return;
        }
        ctx.set_timer(self.config.think_time, Timer::Think);
    }

    /// Folds one read of `key` into the session's entry for it and
    /// returns the entry.
    fn record_observation(
        &mut self,
        key: &Key,
        values: &[StampedValue],
        read_ctx: M::Context,
    ) -> &Seen<M::Context> {
        // Session causality: contexts and observations *accumulate* — a
        // later quorum read may return less than an earlier one saw, and
        // replacing would regress the session (and could make this
        // client's next write falsely concurrent with its own past).
        let seen = match self.seen.entry(key.clone()) {
            Entry::Occupied(entry) => {
                let seen = entry.into_mut();
                self.mech.merge_contexts(&mut seen.ctx, &read_ctx);
                seen
            }
            Entry::Vacant(entry) => entry.insert(Seen {
                ctx: read_ctx,
                ids: Vec::new(),
            }),
        };
        for v in values {
            if !seen.ids.contains(&v.id) {
                seen.ids.push(v.id);
            }
        }
        seen
    }

    fn retry_or_abandon(&mut self, ctx: &mut Ctx<'_, M>, flight: InFlight<M>) {
        if flight.retries >= self.config.max_retries {
            self.abandon_cycle(ctx);
            return;
        }
        self.stats.retries += 1;
        match flight.kind {
            Kind::Get => self.issue_get(ctx, flight.key, flight.retries + 1),
            Kind::Put {
                ctx: put_ctx,
                value,
            } => {
                // A retried PUT is a *new physical write*: the first
                // attempt may have been applied before its ack was lost,
                // in which case the two attempts are genuinely concurrent
                // versions (at-least-once delivery). Give the retry a
                // fresh identity and its own log entry so the oracle
                // models exactly that.
                let observed = self.seen.get(&flight.key).map(|s| s.ids.clone());
                let value = self.stamp_new_write(
                    &flight.key,
                    observed.unwrap_or_default(),
                    value.tombstone,
                );
                self.issue_put(ctx, flight.key, value, put_ctx, flight.retries + 1)
            }
        }
    }

    /// Mints a fresh stamped value (or tombstone) for `key` and logs the
    /// write against `observed`, the client's current observations of
    /// that key.
    fn stamp_new_write(
        &mut self,
        key: &Key,
        observed: Vec<WriteId>,
        tombstone: bool,
    ) -> StampedValue {
        self.write_seq += 1;
        let id = WriteId::new(self.client, self.write_seq);
        self.write_log.push(WriteLogEntry {
            key: key.clone(),
            id,
            observed,
            acked: false,
        });
        if tombstone {
            StampedValue::tombstone(id)
        } else {
            let mut payload = self.write_seq.to_le_bytes().to_vec();
            payload.resize(self.config.value_size.max(8), 0xA5);
            StampedValue::new(id, payload)
        }
    }

    /// Entry point: dispatches one message.
    pub fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: Msg<M>) {
        match msg {
            Msg::ClientGetResp {
                req,
                ok,
                values,
                ctx: read_ctx,
            } => {
                let Some(flight) = self.current.take() else {
                    return;
                };
                if flight.req != req || !matches!(flight.kind, Kind::Get) {
                    self.current = Some(flight); // stale response
                    return;
                }
                ctx.cancel_timer(Timer::Request(req));
                if !ok {
                    self.retry_or_abandon(ctx, flight);
                    return;
                }
                self.stats
                    .get_latency
                    .record((ctx.now() - flight.sent_at).as_micros());
                // per the workload mix, some cycles are read-only
                let read_only = self.config.read_only_fraction > 0.0
                    && ctx.rng().chance(self.config.read_only_fraction);
                // the rest read-modify-write: they issue the put (or, per
                // the workload mix, a causal delete) under the fresh context
                let tombstone = !read_only
                    && self.config.delete_fraction > 0.0
                    && ctx.rng().chance(self.config.delete_fraction);
                let seen = self.record_observation(&flight.key, &values, read_ctx);
                if read_only {
                    self.cycles_done += 1;
                    self.think_then_continue(ctx);
                    return;
                }
                let (put_ctx, observed) = (seen.ctx.clone(), seen.ids.clone());
                let value = self.stamp_new_write(&flight.key, observed, tombstone);
                self.issue_put(ctx, flight.key, value, put_ctx, 0);
            }
            Msg::ClientPutResp {
                req,
                ok,
                values,
                ctx: read_ctx,
            } => {
                let Some(flight) = self.current.take() else {
                    return;
                };
                if flight.req != req || !matches!(flight.kind, Kind::Put { .. }) {
                    self.current = Some(flight);
                    return;
                }
                ctx.cancel_timer(Timer::Request(req));
                if !ok {
                    self.retry_or_abandon(ctx, flight);
                    return;
                }
                self.stats
                    .put_latency
                    .record((ctx.now() - flight.sent_at).as_micros());
                if let Kind::Put { value, .. } = &flight.kind {
                    let id = value.id;
                    if let Some(entry) = self.write_log.iter_mut().rev().find(|e| e.id == id) {
                        entry.acked = true;
                    }
                }
                // return_body: refresh context and observations
                self.record_observation(&flight.key, &values, read_ctx);
                self.cycles_done += 1;
                self.think_then_continue(ctx);
            }
            // a server noticed our view digest differs from its own and
            // pushed its full view: merge it, and push the merged view
            // back when the server's copy was the incomplete one (the
            // protocol-critical check lives in RingView::absorb, shared
            // with the server-side receive path)
            Msg::RingEpoch { view } => {
                let (_, sender_lacks) = self.force_view(&view);
                if sender_lacks {
                    let merged = self.view.clone();
                    self.send(ctx, from, Msg::RingEpoch { view: merged });
                }
            }
            // clients receive nothing else
            _ => {}
        }
    }

    /// Entry point: kicks off the first cycle.
    pub fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        // Stagger session starts a little so clients do not phase-lock.
        let jitter = simnet::Duration::from_micros(ctx.rng().range_u64(0, 500));
        ctx.set_timer(jitter, Timer::Think);
    }

    /// Entry point: dispatches one timer.
    pub fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, timer: Timer) {
        match timer {
            Timer::Think if self.current.is_none() && !self.done => self.begin_cycle(ctx),
            Timer::Request(req) => {
                if let Some(flight) = self.current.take_if(|f| f.req == req) {
                    self.retry_or_abandon(ctx, flight);
                }
            }
            // a Think mid-request or after the last cycle, or a server's kind
            _ => {}
        }
    }
}
