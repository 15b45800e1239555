//! Session-level guarantees: accumulated contexts give monotonic
//! sessions, read-only mixes work, and sessions never conflict with
//! their own causal past.

use dvv::mechanisms::DvvMechanism;
use dvv::{ClientId, ReplicaId, VersionVector};
use kvstore::client::ClientNode;
use kvstore::cluster::{Cluster, ClusterConfig, StoreProc};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::ctx::Timer;
use kvstore::messages::Msg;
use kvstore::value::{StampedValue, WriteId};
use kvstore::FleetHarness;
use ring::RingView;
use simnet::{
    Due, Duration, Host, LatencyModel, LinkConfig, Network, NetworkConfig, NodeId, Outlet, SimRng,
    SimTime,
};

type M = DvvMechanism;

/// What a hosted client sent, in send order.
#[derive(Default)]
struct Sent(Vec<Msg<M>>);

impl Outlet<Msg<M>> for Sent {
    fn forward(&mut self, _from: NodeId, _to: NodeId, msg: Msg<M>, _bytes: usize) {
        self.0.push(msg);
    }
}

/// One client session alone in a `simnet::Host` with the network off:
/// every answer and timer is handed to it by the test.
struct Session {
    host: Host<StoreProc<M>>,
    sent: Sent,
}

impl Session {
    fn new(config: ClientConfig) -> Self {
        let view = RingView::from_members((0..3).map(ReplicaId));
        let store = StoreConfig::default();
        let client = ClientNode::new(ClientId(1), 5, DvvMechanism, config, &store, view);
        let rng = SimRng::new(5);
        let network = Network::new(NetworkConfig::default(), rng.fork("network"));
        let mut host = Host::new(
            network,
            vec![(NodeId(5), Some(StoreProc::Client(client)), rng)],
        );
        host.set_faults(false);
        Session {
            host,
            sent: Sent::default(),
        }
    }

    /// Runs `due` and returns what the session sent while handling it.
    fn run(&mut self, due: Due<Msg<M>, Timer>) -> Vec<Msg<M>> {
        self.host.dispatch(SimTime::ZERO, due, &mut self.sent);
        std::mem::take(&mut self.sent.0)
    }

    /// Delivers a server's `msg` and returns what the session sent.
    fn deliver(&mut self, msg: Msg<M>) -> Vec<Msg<M>> {
        let to = self.host.id(0);
        self.run(Due::Deliver {
            from: NodeId(0),
            to,
            msg,
            bytes: 0,
        })
    }

    /// Ends the think time: the session starts its next cycle with a
    /// GET, whose request id this returns.
    fn next_cycle(&mut self) -> u64 {
        match &self.run(Due::Timer(self.host.id(0), Timer::Think))[..] {
            [Msg::ClientGet { req, .. }] => *req,
            other => panic!("a cycle starts with one GET, got {other:?}"),
        }
    }

    /// Answers GET `req` with `values` under `ctx`; returns the PUT the
    /// session issues next, as `(req, ctx)`.
    fn read(
        &mut self,
        req: u64,
        values: &[WriteId],
        ctx: &VersionVector<ReplicaId>,
    ) -> (u64, VersionVector<ReplicaId>) {
        let values = values
            .iter()
            .map(|id| StampedValue::new(*id, b"v".to_vec()));
        let answer = Msg::ClientGetResp {
            req,
            ok: true,
            values: values.collect(),
            ctx: ctx.clone(),
        };
        match &self.deliver(answer)[..] {
            [Msg::ClientPut { req, ctx, .. }] => (*req, ctx.clone()),
            other => panic!("a read-modify-write cycle PUTs next, got {other:?}"),
        }
    }

    fn write_log(&self) -> &[kvstore::client::WriteLogEntry] {
        self.host.node(0).client().write_log()
    }
}

/// The session keeps one entry per key: the join of every read context
/// it got for the key, and each write id it saw there once, in
/// first-seen order. A later read whose context regresses behind an
/// earlier one's (a quorum that missed a replica) still writes under
/// both, and the oracle is handed exactly what each read showed.
#[test]
fn a_session_joins_regressing_contexts_and_logs_each_observed_write_once() {
    let mut session = Session::new(ClientConfig {
        cycles: 2,
        key_count: 1,
        max_retries: 0,
        ..ClientConfig::default()
    });
    let vv = |entries: [(u32, u64); 2]| -> VersionVector<ReplicaId> {
        entries.iter().map(|&(r, n)| (ReplicaId(r), n)).collect()
    };
    let [w1, w2, w3] = [1, 2, 3].map(|seq| WriteId::new(ClientId(7), seq));
    let (first, second) = (vv([(0, 2), (1, 1)]), vv([(0, 1), (1, 3)]));

    let get = session.next_cycle();
    let (put, ctx) = session.read(get, &[w1, w2], &first);
    assert_eq!(ctx, first);
    // the PUT fails and, with no retries left, the cycle is abandoned
    let refused = Msg::ClientPutResp {
        req: put,
        ok: false,
        values: Vec::new(),
        ctx: VersionVector::new(),
    };
    assert!(session.deliver(refused).is_empty());

    let get = session.next_cycle();
    let (_, ctx) = session.read(get, &[w3, w2], &second);
    assert_eq!(ctx, first.merged(&second), "the join of both reads");
    assert_ne!(ctx, second);

    let observed: Vec<_> = session
        .write_log()
        .iter()
        .map(|e| e.observed.clone())
        .collect();
    assert_eq!(observed, [vec![w1, w2], vec![w1, w2, w3]]);
}

#[test]
fn read_only_mix_reduces_writes() {
    let config = |read_only: f64| ClusterConfig {
        servers: 3,
        clients: 4,
        cycles_per_client: 20,
        client: ClientConfig {
            key_count: 2,
            read_only_fraction: read_only,
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut rw = Cluster::new(3, DvvMechanism, config(0.0));
    assert!(rw.run());
    let mut ro = Cluster::new(3, DvvMechanism, config(0.8));
    assert!(ro.run());

    let rw_writes = rw.anomaly_report().total_writes;
    let ro_writes = ro.anomaly_report().total_writes;
    assert_eq!(rw_writes, 80, "pure RMW: one write per cycle");
    assert!(
        ro_writes < rw_writes / 2,
        "80% read-only cycles must cut writes: {ro_writes} vs {rw_writes}"
    );
    // reads happened for every cycle either way
    assert_eq!(ro.latency_report().get.count(), 80);

    ro.converge();
    assert!(ro.anomaly_report().is_clean());
}

#[test]
fn sessions_never_self_conflict() {
    // A single client doing RMW cycles must never produce siblings by
    // itself (every write dominates its previous one), even on a slow,
    // jittery network where quorum reads could regress without context
    // accumulation.
    let config = ClusterConfig {
        servers: 3,
        clients: 1,
        cycles_per_client: 30,
        client: ClientConfig {
            key_count: 1,
            think_time: Duration::from_micros(100),
            ..ClientConfig::default()
        },
        network: NetworkConfig::uniform(LinkConfig {
            latency: LatencyModel::Uniform {
                lo: Duration::from_micros(100),
                hi: Duration::from_micros(2_000),
            },
            ..LinkConfig::default()
        }),
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(17, DvvMechanism, config);
    assert!(c.run());
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(
        report.surviving_values, 1,
        "a lone session must converge to exactly one version"
    );
}

#[test]
fn interleaved_sessions_on_disjoint_keys_never_conflict() {
    // Clients on disjoint keys: zero siblings anywhere.
    let config = ClusterConfig {
        servers: 3,
        clients: 4,
        cycles_per_client: 10,
        client: ClientConfig {
            key_count: 16, // plenty of keys ⇒ rare contention by chance
            zipf_alpha: 0.0,
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut c = Cluster::new(23, DvvMechanism, config);
    assert!(c.run());
    c.converge();
    let report = c.anomaly_report();
    assert!(report.is_clean());
    // most keys should have exactly one survivor (low contention)
    let single = c
        .oracle()
        .keys()
        .iter()
        .filter(|k| c.surviving_at(0, k).len() == 1)
        .count();
    assert!(
        single as f64 >= c.oracle().keys().len() as f64 * 0.5,
        "uniform 16-key workload should mostly be uncontended"
    );
}
