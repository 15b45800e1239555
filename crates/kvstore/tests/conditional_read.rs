//! The conditional replica read (`RepGetIf` / `RepGetSame`), what a read
//! writes to the coordinator's store (only what it changes), the one
//! completion rule reads and writes share, the relay of a request a
//! server does not own, and the failure detector's down marks as routing
//! sees them, handler by handler: single
//! `StoreNode`s, each alone in a `simnet::Host` with the network off, so
//! what a node sends to another node leaves through the host's outlet at
//! once and is recorded there — no simulator, no fleet, every message
//! delivered (and every timer fired) by hand in the order the test wants.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use dvv::mechanisms::{DvvMechanism, Mechanism, WriteOrigin};
use dvv::{ClientId, ReplicaId};
use kvstore::cluster::StoreProc;
use kvstore::config::StoreConfig;
use kvstore::ctx::Timer;
use kvstore::merkle::fingerprint;
use kvstore::messages::{Msg, MsgClass};
use kvstore::node::StoreNode;
use kvstore::value::{Key, StampedValue, WriteId};
use ring::{MemberStatus, RingView};
use simnet::{Due, Host, Network, NetworkConfig, NodeId, Outlet, SimRng, SimTime};
use storage::{LogConfig, LogEngine};

type M = DvvMechanism;
type State = <M as Mechanism<StampedValue>>::State;
type Ctx = <M as Mechanism<StampedValue>>::Context;

const CLIENT: NodeId = NodeId(9);
const REQ: u64 = 77;

/// What a hosted node sent to other nodes, in send order.
#[derive(Default)]
struct Sent(Vec<(NodeId, Msg<M>)>);

impl Outlet<Msg<M>> for Sent {
    fn forward(&mut self, _from: NodeId, to: NodeId, msg: Msg<M>, _bytes: usize) {
        self.0.push((to, msg));
    }
}

/// One server of a four-member ring (N=3, R=W=2), hosted alone: what
/// it arms waits on the host's agenda, and nothing there runs unless
/// the test runs it.
struct Server {
    host: Host<StoreProc<M>>,
    sent: Sent,
}

fn members() -> RingView<ReplicaId> {
    RingView::from_members((0..4).map(ReplicaId))
}

impl Server {
    fn new(replica: ReplicaId) -> Self {
        Server::with_view(replica, members())
    }

    /// A server that routes under `view` instead of the four members'.
    fn with_view(replica: ReplicaId, view: RingView<ReplicaId>) -> Self {
        let node = StoreNode::new(replica, DvvMechanism, StoreConfig::default(), view);
        Server::hosting(replica, node)
    }

    /// [`Server::new`] over a durable log at `path` instead of memory.
    fn on_log(replica: ReplicaId, path: &Path) -> Self {
        let log = LogEngine::open(path, LogConfig::default()).expect("open the log");
        let config = StoreConfig::default();
        let node = StoreNode::with_engine(replica, DvvMechanism, config, members(), Box::new(log));
        Server::hosting(replica, node)
    }

    fn hosting(replica: ReplicaId, node: StoreNode<M>) -> Self {
        let rng = SimRng::new(u64::from(replica.0));
        let network = Network::new(NetworkConfig::default(), rng.fork("network"));
        let id = NodeId(replica.0);
        let mut host = Host::new(network, vec![(id, Some(StoreProc::Server(node)), rng)]);
        host.set_faults(false);
        Server {
            host,
            sent: Sent::default(),
        }
    }

    fn holding(replica: ReplicaId, key: &Key, state: &State) -> Self {
        let mut s = Server::new(replica);
        s.node_mut().merge_state_direct(key, state);
        s
    }

    fn node(&self) -> &StoreNode<M> {
        self.host.node(0).server()
    }

    fn node_mut(&mut self) -> &mut StoreNode<M> {
        self.host.node_mut(0).server_mut()
    }

    fn id(&self) -> NodeId {
        self.host.id(0)
    }

    /// The timers the node has pending.
    fn armed(&self) -> Vec<Timer> {
        self.host.timers(self.id())
    }

    /// Runs `due` and returns what the node sent while handling it.
    fn run(&mut self, due: Due<Msg<M>, Timer>) -> Vec<(NodeId, Msg<M>)> {
        self.host.dispatch(SimTime::ZERO, due, &mut self.sent);
        std::mem::take(&mut self.sent.0)
    }

    /// Delivers `msg` and returns what the node sent while handling it.
    fn deliver(&mut self, from: NodeId, msg: Msg<M>) -> Vec<(NodeId, Msg<M>)> {
        let to = self.id();
        self.run(Due::Deliver {
            from,
            to,
            msg,
            bytes: 0,
        })
    }

    /// Fires `timer`, pending or not, and returns what the node sent
    /// while handling it.
    fn fire(&mut self, timer: Timer) -> Vec<(NodeId, Msg<M>)> {
        self.run(Due::Timer(self.id(), timer))
    }

    /// Starts coordinating a GET of `key` for [`CLIENT`].
    fn client_get(&mut self, key: &Key) -> Vec<(NodeId, Msg<M>)> {
        self.client_get_as(REQ, key)
    }

    /// [`Server::client_get`] under request id `req`.
    fn client_get_as(&mut self, req: u64, key: &Key) -> Vec<(NodeId, Msg<M>)> {
        let digest = self.node().view_digest();
        let get = Msg::ClientGet {
            req,
            key: key.clone(),
            digest,
        };
        self.deliver(CLIENT, get)
    }

    fn stored(&self, key: &Key) -> State {
        self.node().data().get(key).cloned().unwrap_or_default()
    }
}

/// A key, its three owners in preference order, and the one member
/// that does not replicate it.
fn placement() -> (Key, [ReplicaId; 3], ReplicaId) {
    let ring = members().to_ring(StoreConfig::default().vnodes);
    let key: Key = b"cart:17".to_vec();
    let prefs = ring.preference_list(&key, 3);
    let outsider = (0..4)
        .map(ReplicaId)
        .find(|r| !prefs.contains(r))
        .expect("four members, three owners");
    (key, [prefs[0], prefs[1], prefs[2]], outsider)
}

/// `base` with one more write on top that has seen all of it.
fn written(base: &State, replica: ReplicaId, seq: u64, payload: &[u8]) -> State {
    let mech = DvvMechanism;
    let mut st = base.clone();
    let (_, seen) = mech.read(base);
    let client = ClientId(5);
    mech.write(
        &mut st,
        WriteOrigin::new(replica, client),
        &seen,
        StampedValue::new(WriteId::new(client, seq), payload.to_vec()),
    );
    st
}

fn old_and_new(owner: ReplicaId) -> (State, State) {
    let old = written(&State::default(), owner, 1, b"old");
    let new = written(&old, owner, 2, b"new");
    (old, new)
}

/// The `RepGetIf`s in `sent`, as `(replica, req, have)`.
fn conditional_reads(sent: &[(NodeId, Msg<M>)], key: &Key) -> Vec<(NodeId, u64, u64)> {
    sent.iter()
        .map(|(to, msg)| match msg {
            Msg::RepGetIf { req, key: k, have } => {
                assert_eq!(k, key);
                (*to, *req, *have)
            }
            other => panic!("a GET fans out conditional reads only, got {other:?}"),
        })
        .collect()
}

fn same(req: u64) -> Msg<M> {
    Msg::RepGetSame { req }
}

fn full(key: &Key, state: &State) -> Msg<M> {
    Msg::RepGetResp {
        req: REQ,
        key: key.clone(),
        state: state.clone(),
    }
}

/// The one message in `sent`, which must be the client's read result.
fn client_reply(sent: &[(NodeId, Msg<M>)]) -> (bool, Vec<StampedValue>, Ctx) {
    match sent {
        [(
            to,
            Msg::ClientGetResp {
                req,
                ok,
                values,
                ctx,
            },
        )] => {
            assert_eq!((*to, *req), (CLIENT, REQ));
            (*ok, values.clone(), ctx.clone())
        }
        other => panic!("expected exactly the client reply, got {other:?}"),
    }
}

/// The replicas `sent` pushes a read repair of `state` to.
fn repaired(sent: &[(NodeId, Msg<M>)], key: &Key, state: &State) -> Vec<NodeId> {
    sent.iter()
        .map(|(to, msg)| match msg {
            Msg::Push {
                class: MsgClass::Replication,
                id: None,
                entries,
                hint: None,
            } => {
                assert_eq!(entries[..], [(key.clone(), state.clone())]);
                *to
            }
            other => panic!("expected read repairs only, got {other:?}"),
        })
        .collect()
}

#[test]
fn replica_in_sync_answers_same_and_the_client_sees_what_a_full_read_gives() {
    let (key, [a, b, c], _) = placement();
    let (_, state) = old_and_new(a);
    let mut coord = Server::holding(a, &key, &state);
    let mut replicas = [
        Server::holding(b, &key, &state),
        Server::holding(c, &key, &state),
    ];

    let reads = conditional_reads(&coord.client_get(&key), &key);
    assert_eq!(
        reads,
        vec![
            (NodeId(b.0), REQ, fingerprint(&state)),
            (NodeId(c.0), REQ, fingerprint(&state))
        ]
    );
    for (replica, (to, req, have)) in replicas.iter_mut().zip(&reads) {
        assert_eq!(replica.id(), *to);
        let get = Msg::RepGetIf {
            req: *req,
            key: key.clone(),
            have: *have,
        };
        let sent = replica.deliver(coord.id(), get);
        assert!(
            matches!(sent[..], [(to, Msg::RepGetSame { req: REQ })] if to == coord.id()),
            "an in-sync replica ships nothing, got {sent:?}"
        );
        let stats = replica.node().stats();
        assert_eq!((stats.rep_reads_same, stats.rep_reads_full), (1, 0));
    }
    let reply = client_reply(&coord.deliver(replicas[0].id(), same(REQ)));
    assert!(coord.deliver(replicas[1].id(), same(REQ)).is_empty());

    // the same read with both replicas answering in full
    let mut twin = Server::holding(a, &key, &state);
    twin.client_get(&key);
    let full_reply = client_reply(&twin.deliver(replicas[0].id(), full(&key, &state)));
    assert!(twin
        .deliver(replicas[1].id(), full(&key, &state))
        .is_empty());

    assert_eq!(reply, full_reply);
    let (ok, values, _) = reply;
    assert!(ok);
    assert_eq!(values.len(), 1);
    assert_eq!(values[0].payload, b"new".to_vec());
}

#[test]
fn replica_ahead_answers_in_full_and_is_merged_and_folded() {
    let (key, [a, b, c], _) = placement();
    let (old, new) = old_and_new(a);
    let mut coord = Server::holding(a, &key, &old);
    let mut ahead = Server::holding(b, &key, &new);

    let reads = conditional_reads(&coord.client_get(&key), &key);
    let get = Msg::RepGetIf {
        req: REQ,
        key: key.clone(),
        have: reads[0].2,
    };
    let sent = ahead.deliver(coord.id(), get);
    match &sent[..] {
        [(to, Msg::RepGetResp { req, key: k, state })] => {
            assert_eq!((*to, *req, k, state), (coord.id(), REQ, &key, &new));
        }
        other => panic!("a replica that differs answers in full, got {other:?}"),
    }
    let stats = ahead.node().stats();
    assert_eq!((stats.rep_reads_same, stats.rep_reads_full), (0, 1));

    let (_, answer) = sent.into_iter().next().unwrap();
    let (ok, values, _) = client_reply(&coord.deliver(ahead.id(), answer));
    assert!(ok);
    assert_eq!(values.len(), 1, "the newer write supersedes the older");
    assert_eq!(values[0].payload, b"new".to_vec());

    // the third replica holds what the coordinator started from: it is
    // the stale one now, and the coordinator folds the merge into itself
    let sent = coord.deliver(NodeId(c.0), same(REQ));
    assert_eq!(repaired(&sent, &key, &new), vec![NodeId(c.0)]);
    assert_eq!(coord.stored(&key), new);
}

#[test]
fn replica_behind_never_answers_same_and_is_the_only_one_repaired() {
    let (key, [a, b, c], _) = placement();
    let (old, new) = old_and_new(a);
    let mut coord = Server::holding(a, &key, &new);
    let mut behind = Server::holding(b, &key, &old);
    let mut level = Server::holding(c, &key, &new);

    let reads = conditional_reads(&coord.client_get(&key), &key);
    let mut answers = Vec::new();
    for (replica, (_, req, have)) in [&mut behind, &mut level].into_iter().zip(&reads) {
        let get = Msg::RepGetIf {
            req: *req,
            key: key.clone(),
            have: *have,
        };
        let mut sent = replica.deliver(coord.id(), get);
        assert_eq!(sent.len(), 1);
        answers.push(sent.remove(0).1);
    }
    assert!(
        matches!(&answers[0], Msg::RepGetResp { state, .. } if *state == old),
        "a replica behind the coordinator answers in full, got {:?}",
        answers[0]
    );
    assert!(matches!(answers[1], Msg::RepGetSame { req: REQ }));

    let mut answers = answers.into_iter();
    let (ok, values, _) = client_reply(&coord.deliver(behind.id(), answers.next().unwrap()));
    assert!(ok);
    assert_eq!(values[0].payload, b"new".to_vec());
    let sent = coord.deliver(level.id(), answers.next().unwrap());
    assert_eq!(repaired(&sent, &key, &new), vec![behind.id()]);
}

#[test]
fn coordinator_copy_moving_mid_read_changes_nothing_about_the_read() {
    // Between the fan-out and the answers a replicated write lands on
    // the coordinator. `have` names the snapshot the quorum started
    // from, not the live copy: the accumulated state, the client reply
    // and the repair targets must equal those of a full-state read.
    // Neither replica is repaired: each answered with what the read
    // merged, so neither was stale when it answered.
    let (key, [a, b, c], _) = placement();
    let (old, new) = old_and_new(b);
    let run = |answer: &dyn Fn() -> Msg<M>| {
        let mut coord = Server::holding(a, &key, &old);
        let reads = conditional_reads(&coord.client_get(&key), &key);
        assert_eq!(reads[0].2, fingerprint(&old));
        let put = Msg::RepPut {
            req: 1,
            key: key.clone(),
            state: new.clone(),
            hint: None,
        };
        let acked = coord.deliver(NodeId(b.0), put);
        assert!(matches!(acked[..], [(_, Msg::RepPutAck { req: 1 })]));
        let reply = client_reply(&coord.deliver(NodeId(b.0), answer()));
        let repairs = coord.deliver(NodeId(c.0), answer());
        (reply, repaired(&repairs, &key, &new), coord.stored(&key))
    };
    let conditional = run(&|| same(REQ));
    let full_state = run(&|| full(&key, &old));
    assert_eq!(conditional, full_state);

    let ((ok, values, _), repairs, stored) = conditional;
    assert!(ok);
    assert_eq!(
        values[0].payload,
        b"old".to_vec(),
        "the read is of the snapshot"
    );
    assert_eq!(
        repairs,
        Vec::<NodeId>::new(),
        "both replicas reported the snapshot the read merged"
    );
    assert_eq!(stored, new);
}

/// The race a read used to lose: the coordinator's copy moves on (a
/// replicated write for the key) between the first and the last answer.
/// Both answers equal what the read merged, so no replica is stale and
/// none is repaired; the write stays applied.
#[test]
fn a_write_between_the_answers_repairs_no_one() {
    let (key, [a, b, c], _) = placement();
    let (old, new) = old_and_new(a);
    let mut coord = Server::holding(a, &key, &old);
    let reads = conditional_reads(&coord.client_get(&key), &key);
    assert!(reads.iter().all(|(.., have)| *have == fingerprint(&old)));

    let (ok, values, _) = client_reply(&coord.deliver(NodeId(b.0), same(REQ)));
    assert!(ok);
    assert_eq!(values[0].payload, b"old".to_vec());
    let put = Msg::RepPut {
        req: 1,
        key: key.clone(),
        state: new.clone(),
        hint: None,
    };
    let acked = coord.deliver(NodeId(b.0), put);
    assert!(matches!(acked[..], [(_, Msg::RepPutAck { req: 1 })]));

    let sent = coord.deliver(NodeId(c.0), same(REQ));
    assert!(sent.is_empty(), "no replica is stale, got {sent:?}");
    assert_eq!(coord.node().stats().read_repairs, 0);
    assert_eq!(coord.stored(&key), new);
}

#[test]
fn same_for_a_retired_or_unknown_request_is_ignored() {
    let (key, [a, b, c], _) = placement();
    let (_, state) = old_and_new(a);
    let mut coord = Server::holding(a, &key, &state);
    coord.client_get(&key);
    client_reply(&coord.deliver(NodeId(b.0), same(REQ)));
    assert!(coord.deliver(NodeId(c.0), same(REQ)).is_empty());
    let before = coord.node().stats();

    for from in [b, c] {
        assert!(coord.deliver(NodeId(from.0), same(REQ)).is_empty());
    }
    assert!(coord.deliver(NodeId(b.0), same(REQ + 1)).is_empty());
    assert_eq!(coord.node().stats(), before);
    assert_eq!(coord.stored(&key), state);
}

/// Regression: only writes were deduplicated, so a network copy of a
/// GET arriving while the first was in flight fanned out again, armed a
/// second timeout and answered the client twice.
#[test]
fn a_get_delivered_twice_in_flight_is_coordinated_once() {
    let (key, [a, b, c], _) = placement();
    let (_, state) = old_and_new(a);
    let mut coord = Server::holding(a, &key, &state);
    assert_eq!(conditional_reads(&coord.client_get(&key), &key).len(), 2);
    assert!(coord.client_get(&key).is_empty(), "the copy sends nothing");
    assert_eq!(coord.armed(), [Timer::Request(REQ)], "and arms nothing");

    let mut sent = coord.deliver(NodeId(b.0), same(REQ));
    sent.extend(coord.deliver(NodeId(c.0), same(REQ)));
    client_reply(&sent);
    assert_eq!(coord.node().stats().gets_ok, 1);
}

/// A coordinator over a durable log, for counting what a read writes.
struct Logged {
    coord: Server,
    dir: PathBuf,
    path: PathBuf,
}

impl Logged {
    /// Replica `replica` on a fresh log, holding `state` for `key` if
    /// given (which writes one record).
    fn new(replica: ReplicaId, key: &Key, state: Option<&State>) -> Self {
        let dir = storage::scratch_dir("read-writes");
        let path = dir.join("coord.log");
        let mut coord = Server::on_log(replica, &path);
        if let Some(state) = state {
            coord.node_mut().merge_state_direct(key, state);
        }
        Logged { coord, dir, path }
    }

    /// Every put record the log holds for `key`, oldest first, once the
    /// buffered ones are synced.
    fn records(&mut self, key: &Key) -> Vec<State> {
        self.coord.node_mut().sync_storage();
        let history = storage::scan_history::<State>(&self.path).expect("read the log");
        let mine = history.into_iter().filter(|(k, _)| k == key);
        mine.map(|(_, state)| state).collect()
    }
}

impl Drop for Logged {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// A read of a key no replica holds stores nothing: no key, no record,
/// no repair.
#[test]
fn a_get_of_a_key_nobody_holds_writes_nothing() {
    let (key, [a, b, c], _) = placement();
    let mut log = Logged::new(a, &key, None);
    let reads = conditional_reads(&log.coord.client_get(&key), &key);
    assert!(reads
        .iter()
        .all(|(.., have)| *have == fingerprint(&State::default())));
    let (ok, values, _) = client_reply(&log.coord.deliver(NodeId(b.0), same(REQ)));
    assert!(ok && values.is_empty());
    assert!(log.coord.deliver(NodeId(c.0), same(REQ)).is_empty());

    assert!(!log.coord.node().data().contains_key(&key), "no key");
    assert_eq!(log.records(&key), Vec::<State>::new(), "no record");
}

/// A read every replica answers with `RepGetSame` brought nothing new:
/// the coordinator's copy is left as it was, with no further record.
#[test]
fn a_get_every_replica_answers_same_writes_nothing() {
    let (key, [a, b, c], _) = placement();
    let (_, state) = old_and_new(a);
    let mut log = Logged::new(a, &key, Some(&state));
    assert_eq!(log.records(&key), std::slice::from_ref(&state));

    log.coord.client_get(&key);
    client_reply(&log.coord.deliver(NodeId(b.0), same(REQ)));
    assert!(log.coord.deliver(NodeId(c.0), same(REQ)).is_empty());

    assert_eq!(log.coord.stored(&key), state);
    assert_eq!(log.records(&key), [state], "no record for the read");
}

/// A read that brings a newer state advances the coordinator with
/// exactly one record, and the replica still behind is repaired.
#[test]
fn a_get_that_brings_a_newer_state_writes_it_once_and_repairs_the_stale() {
    let (key, [a, b, c], _) = placement();
    let (old, new) = old_and_new(a);
    let mut log = Logged::new(a, &key, Some(&old));

    log.coord.client_get(&key);
    client_reply(&log.coord.deliver(NodeId(b.0), full(&key, &new)));
    let sent = log.coord.deliver(NodeId(c.0), same(REQ));
    assert_eq!(repaired(&sent, &key, &new), vec![NodeId(c.0)]);

    assert_eq!(log.coord.stored(&key), new);
    assert_eq!(log.records(&key), [old, new], "one record for the read");
}

/// The client's reply to `start`: `ok`, with what `state` reads as, or
/// — `None` — the refusal.
fn reply_to(start: &Msg<M>, state: Option<&State>) -> Msg<M> {
    let ok = state.is_some();
    let (values, ctx) = state.map(|st| DvvMechanism.read(st)).unwrap_or_default();
    match start {
        Msg::ClientGet { .. } => Msg::ClientGetResp {
            req: REQ,
            ok,
            values,
            ctx,
        },
        _ => Msg::ClientPutResp {
            req: REQ,
            ok,
            values,
            ctx,
        },
    }
}

/// One request as the node the client asked sees it: what the client
/// sent, what that sends on, and the answers that come back, in delivery
/// order. R = W = 2, so an owner coordinating has its quorum at the first
/// replica's answer (its own copy counts); a relay has its one answer.
struct Row {
    name: &'static str,
    coord: Server,
    start: Msg<M>,
    /// Everything handling the client's request sends.
    on_start: Vec<(NodeId, Msg<M>)>,
    answers: Vec<(NodeId, Msg<M>)>,
    /// The one `ok` reply the client gets.
    reply: Msg<M>,
    /// Whether the node runs the quorum itself, counting the success in
    /// its own `gets_ok` / `puts_ok`, rather than relaying it.
    coordinates: bool,
    /// What the request leaves in the node's store.
    stored: State,
    /// Read repairs once every answer is in, and once the timeout fires
    /// with only the quorum's answers in.
    repairs: [Vec<NodeId>; 2],
}

/// `{GET, PUT}` x `{an owner coordinates, an outsider relays}`. The
/// outsider hands the client's request on, under its own view digest,
/// to the first owner, and that owner's reply, whatever it says, back.
fn rows() -> Vec<Row> {
    let (key, [a, b, c], outsider) = placement();
    let (old, new) = old_and_new(a);
    let put_state = written(&State::default(), a, 1, b"put");
    let [na, nb, nc] = [a, b, c].map(|r| NodeId(r.0));
    let digest = Server::new(a).node().view_digest();
    let get = || Msg::ClientGet {
        req: REQ,
        key: key.clone(),
        digest,
    };
    let put = || Msg::ClientPut {
        req: REQ,
        key: key.clone(),
        value: StampedValue::new(WriteId::new(ClientId(5), 1), b"put".to_vec()),
        ctx: Ctx::default(),
        digest,
    };
    let ack = || Msg::RepPutAck { req: REQ };
    let read_from = |to: NodeId| {
        let have = fingerprint(&old);
        let get = Msg::RepGetIf {
            req: REQ,
            key: key.clone(),
            have,
        };
        (to, get)
    };
    let fan_out = |to: NodeId| {
        let put = Msg::RepPut {
            req: REQ,
            key: key.clone(),
            state: put_state.clone(),
            hint: None,
        };
        (to, put)
    };
    let got = reply_to(&get(), Some(&new));
    let put_done = reply_to(&put(), Some(&put_state));
    vec![
        Row {
            name: "GET, owner",
            coord: Server::holding(a, &key, &old),
            start: get(),
            on_start: vec![read_from(nb), read_from(nc)],
            answers: vec![(nb, full(&key, &new)), (nc, same(REQ))],
            reply: got.clone(),
            coordinates: true,
            stored: new.clone(),
            repairs: [vec![nc], Vec::new()],
        },
        Row {
            name: "GET, relayed",
            coord: Server::new(outsider),
            start: get(),
            on_start: vec![(na, get())],
            answers: vec![(na, got.clone())],
            reply: got,
            coordinates: false,
            stored: State::default(),
            repairs: [Vec::new(), Vec::new()],
        },
        Row {
            name: "PUT, owner",
            coord: Server::new(a),
            start: put(),
            on_start: vec![fan_out(nb), fan_out(nc)],
            answers: vec![(nb, ack()), (nc, ack())],
            reply: put_done.clone(),
            coordinates: true,
            stored: put_state.clone(),
            repairs: [Vec::new(), Vec::new()],
        },
        Row {
            name: "PUT, relayed",
            coord: Server::new(outsider),
            start: put(),
            on_start: vec![(na, put())],
            answers: vec![(na, put_done.clone())],
            reply: put_done,
            coordinates: false,
            stored: State::default(),
            repairs: [Vec::new(), Vec::new()],
        },
    ]
}

/// Splits `sent` into what went to the client and everything else.
#[allow(clippy::type_complexity)]
fn split_replies(sent: Vec<(NodeId, Msg<M>)>) -> (Vec<(NodeId, Msg<M>)>, Vec<(NodeId, Msg<M>)>) {
    sent.into_iter().partition(|(to, _)| *to == CLIENT)
}

/// `sent`, comparably (a `Msg` has no `PartialEq`).
fn render(sent: &[(NodeId, Msg<M>)]) -> Vec<String> {
    sent.iter().map(|m| format!("{m:?}")).collect()
}

/// Reads and writes complete by one rule: gather answers from the key's
/// active replicas until R or W *distinct* ones are in, reply, retire
/// when all are — or when the timer fires first. A node outside the
/// key's preference list runs no quorum: it relays the request and passes
/// the owner's reply back, under the same one reply, one timer.
#[test]
fn one_completion_rule_for_both_ops() {
    let (key, [a, _, _], _) = placement();
    let (_, new) = old_and_new(a);
    let completions = |row: &Row| {
        let stats = row.coord.node().stats();
        (stats.gets_ok + stats.puts_ok, stats.quorum_timeouts)
    };
    let timer = Timer::Request(REQ);

    // Every answer comes, and the network delivers each one twice.
    for mut row in rows() {
        let name = row.name;
        let sent = row.coord.deliver(CLIENT, row.start.clone());
        assert_eq!(
            render(&sent),
            render(&row.on_start),
            "{name}: what goes out"
        );
        assert_eq!(row.coord.armed(), [timer], "{name}: one request, one timer");
        let all_at = row.answers.len();
        for (i, (from, answer)) in row.answers.iter().enumerate() {
            let sent = row.coord.deliver(*from, answer.clone());
            let (replies, rest) = split_replies(sent);
            if i == 0 {
                let reply = [(CLIENT, row.reply.clone())];
                assert_eq!(render(&replies), render(&reply), "{name}: one reply");
            } else {
                assert!(replies.is_empty(), "{name}: answer {i} replies again");
            }
            if i + 1 == all_at {
                assert_eq!(repaired(&rest, &key, &new), row.repairs[0], "{name}");
                assert_eq!(row.coord.armed(), [], "{name}: retired");
            } else {
                assert!(rest.is_empty(), "{name}: answer {i} sent {rest:?}");
                assert_eq!(row.coord.armed(), [timer], "{name}: in flight");
            }
            let again = row.coord.deliver(*from, answer.clone());
            assert!(again.is_empty(), "{name}: an answer counts once");
        }
        // retired: further answers and the timer's late fire are ignored
        let before = row.coord.node().stats();
        for (from, answer) in &row.answers {
            assert!(row.coord.deliver(*from, answer.clone()).is_empty());
        }
        assert!(row.coord.fire(timer).is_empty(), "{name}");
        assert_eq!(row.coord.node().stats(), before, "{name}");
        let ok = u64::from(row.coordinates);
        assert_eq!(completions(&row), (ok, 0), "{name}");
        assert_eq!(before.read_repairs, row.repairs[0].len() as u64, "{name}");
        assert_eq!(before.remote_coordinations, 1 - ok, "{name}");
        assert_eq!(row.coord.stored(&key), row.stored, "{name}");
        if !row.coordinates {
            let minted = row.coord.node().dot_guard_state();
            assert_eq!(minted, (0, 0, 0), "{name}: a relay mints nothing");
        }
    }

    // No answer comes before the timer fires.
    for mut row in rows() {
        let name = row.name;
        row.coord.deliver(CLIENT, row.start.clone());
        let (replies, rest) = split_replies(row.coord.fire(timer));
        let refusal = [(CLIENT, reply_to(&row.start, None))];
        assert_eq!(render(&replies), render(&refusal), "{name}: one refusal");
        assert!(
            rest.is_empty(),
            "{name}: an unanswered read repairs nothing"
        );
        for (from, answer) in &row.answers {
            assert!(row.coord.deliver(*from, answer.clone()).is_empty());
        }
        assert!(row.coord.fire(timer).is_empty(), "{name}");
        assert_eq!(completions(&row), (0, 1), "{name}");
    }

    // The timer fires after the reply, before the last answer.
    for mut row in rows() {
        let name = row.name;
        let ok = u64::from(row.coordinates);
        row.coord.deliver(CLIENT, row.start.clone());
        let (from, answer) = &row.answers[0];
        row.coord.deliver(*from, answer.clone());
        assert_eq!(completions(&row), (ok, 0), "{name}");
        let (replies, rest) = split_replies(row.coord.fire(timer));
        assert!(replies.is_empty(), "{name}: the client has its reply");
        assert_eq!(repaired(&rest, &key, &new), row.repairs[1], "{name}");
        for (from, answer) in &row.answers {
            assert!(row.coord.deliver(*from, answer.clone()).is_empty());
        }
        assert_eq!(completions(&row), (ok, 0), "{name}");
        assert_eq!(row.coord.stored(&key), row.stored, "{name}");
    }
}

/// Two stale views that each route the key to the other: `a` and `b`,
/// its first two owners, each route under a view without themselves. The
/// relay that comes back is a repeat and is dropped, each timer refuses,
/// and the client hears once — the refusal of the node it asked. Nothing
/// is minted anywhere.
#[test]
fn a_relay_that_comes_back_is_dropped_and_the_client_hears_once() {
    let (key, [a, b, c], outsider) = placement();
    let view_without = |me: ReplicaId| {
        let others = [a, b, c, outsider].into_iter().filter(|r| *r != me);
        RingView::from_members(others)
    };
    let value = StampedValue::new(WriteId::new(ClientId(5), 1), b"put".to_vec());
    for read in [true, false] {
        let mut sa = Server::with_view(a, view_without(a));
        let mut sb = Server::with_view(b, view_without(b));
        let [da, db] = [&sa, &sb].map(|s| s.node().view_digest());
        let request = |digest: u64| {
            let key = key.clone();
            match read {
                true => Msg::ClientGet {
                    req: REQ,
                    key,
                    digest,
                },
                false => Msg::ClientPut {
                    req: REQ,
                    key,
                    value: value.clone(),
                    ctx: Ctx::default(),
                    digest,
                },
            }
        };
        let sent = sa.deliver(CLIENT, request(da));
        assert_eq!(render(&sent), render(&[(sb.id(), request(da))]));
        // b realigns views with a, then relays under its own digest
        let mut sent = sb.deliver(sa.id(), request(da));
        assert!(matches!(sent.remove(0), (to, Msg::RingEpoch { .. }) if to == sa.id()));
        assert_eq!(render(&sent), render(&[(sa.id(), request(db))]));
        // the copy that comes back to a is a repeat
        let sent = sa.deliver(sb.id(), request(db));
        assert!(
            matches!(sent[..], [(to, Msg::RingEpoch { .. })] if to == sb.id()),
            "a repeat is only realigned with, got {sent:?}"
        );
        let (replies, rest) = split_replies(sa.fire(Timer::Request(REQ)));
        let refusal = reply_to(&request(da), None);
        assert_eq!(render(&replies), render(&[(CLIENT, refusal.clone())]));
        assert!(rest.is_empty());
        // b's refusal goes to a, which is no longer waiting for it
        let sent = sb.fire(Timer::Request(REQ));
        assert_eq!(render(&sent), render(&[(sa.id(), refusal.clone())]));
        assert!(sa.deliver(sb.id(), refusal).is_empty());
        for s in [&sa, &sb] {
            assert!(s.node().data().is_empty(), "a relay stores nothing");
            assert_eq!(s.node().dot_guard_state(), (0, 0, 0));
            assert_eq!(s.node().stats().remote_coordinations, 1);
        }
        let dups = sa.node().stats().dup_writes_ignored;
        assert_eq!(dups, u64::from(!read), "a write is refused as a repeat");
    }
}

/// Write `seq` of client 5's session to `key`, on top of `ctx`, as it
/// reaches `to` under request id `req` (under `to`'s own view digest).
fn client_put(to: &Server, req: u64, key: &Key, seq: u64, ctx: Ctx) -> Msg<M> {
    Msg::ClientPut {
        req,
        key: key.clone(),
        value: StampedValue::new(WriteId::new(ClientId(5), seq), b"put".to_vec()),
        ctx,
        digest: to.node().view_digest(),
    }
}

/// A client write is coordinated at most once however late a copy of it
/// comes: one the network replays after 256 later writes of its client —
/// more than a window of recent request ids remembers — is refused, with
/// no new dot and no new log record.
#[test]
fn a_write_replayed_after_256_later_ones_is_refused() {
    let (key, [a, b, c], _) = placement();
    let mut log = Logged::new(a, &key, None);
    let put = |coord: &Server, seq: u64| {
        let (_, ctx) = DvvMechanism.read(&coord.stored(&key));
        client_put(coord, REQ + seq, &key, seq, ctx)
    };
    // coordinated, acked by both other owners, retired
    let write = |coord: &mut Server, put: Msg<M>, req: u64| {
        coord.deliver(CLIENT, put);
        for peer in [b, c] {
            coord.deliver(NodeId(peer.0), Msg::RepPutAck { req });
        }
    };
    let first = put(&log.coord, 1);
    write(&mut log.coord, first.clone(), REQ + 1);
    for seq in 2..=257 {
        let later = put(&log.coord, seq);
        write(&mut log.coord, later, REQ + seq);
    }
    assert!(log.coord.armed().is_empty(), "every write retired");
    let (stored, records) = (log.coord.stored(&key), log.records(&key).len());
    assert_eq!(records, 257);

    assert!(
        log.coord.deliver(CLIENT, first).is_empty(),
        "the replay sends nothing"
    );
    assert_eq!(log.coord.stored(&key), stored, "no new dot");
    assert_eq!(log.records(&key).len(), records, "no new record");
    let stats = log.coord.node().stats();
    assert_eq!((stats.puts_ok, stats.dup_writes_ignored), (257, 1));
}

/// A client numbers its writes with one counter and has one request in
/// flight, so its write 1 arriving after its write 2 is a stale copy:
/// refused, not coordinated.
#[test]
fn a_client_write_older_than_one_coordinated_is_refused() {
    let (key, [a, ..], _) = placement();
    let mut coord = Server::new(a);
    let [older, newer] = [1, 2].map(|seq| client_put(&coord, REQ + seq, &key, seq, Ctx::default()));
    assert_eq!(coord.deliver(CLIENT, newer).len(), 2, "write 2 fans out");
    let stored = coord.stored(&key);

    assert!(
        coord.deliver(CLIENT, older).is_empty(),
        "write 1 sends nothing"
    );
    assert_eq!(coord.stored(&key), stored, "and mints nothing");
    assert_eq!(coord.armed(), [Timer::Request(REQ + 2)], "nor arms a timer");
    assert_eq!(coord.node().stats().dup_writes_ignored, 1);
}

/// A client reply that reaches a server which relayed nothing under its
/// id is dropped: the server sends nothing and changes nothing — also
/// while it coordinates a request of that id itself.
#[test]
fn an_unsolicited_client_reply_sends_nothing_and_changes_nothing() {
    let (key, [a, b, c], _) = placement();
    let (_, state) = old_and_new(a);
    let mut coord = Server::holding(a, &key, &state);
    let get = Msg::ClientGet {
        req: REQ,
        key: key.clone(),
        digest: coord.node().view_digest(),
    };
    let put = Msg::ClientPut {
        req: REQ,
        key: key.clone(),
        value: StampedValue::new(WriteId::new(ClientId(5), 1), b"put".to_vec()),
        ctx: Ctx::default(),
        digest: 0,
    };
    let strays = [&get, &put].map(|start| [Some(&state), None].map(|st| reply_to(start, st)));
    for in_flight in [false, true] {
        if in_flight {
            coord.deliver(CLIENT, get.clone());
        }
        let before = (coord.node().stats(), coord.armed(), coord.stored(&key));
        for stray in strays.iter().flatten() {
            for from in [NodeId(b.0), CLIENT] {
                let sent = coord.deliver(from, stray.clone());
                assert!(sent.is_empty(), "a stray {stray:?} sent {sent:?}");
            }
        }
        let after = (coord.node().stats(), coord.armed(), coord.stored(&key));
        assert_eq!(after, before, "in flight: {in_flight}");
    }
    // the GET in flight is untouched: its quorum still forms as ever
    let (ok, values, _) = client_reply(&coord.deliver(NodeId(b.0), same(REQ)));
    assert!(ok);
    assert_eq!(values[0].payload, b"new".to_vec());
    assert!(coord.deliver(NodeId(c.0), same(REQ)).is_empty());
}

/// The failure detector's marks as routing sees them: a replica marked
/// down is routed around; its mark survives a view change that keeps it
/// on the ring and is forgotten once a view drops it, so a re-join routes
/// to it again.
#[test]
fn a_down_mark_lasts_as_long_as_the_replica_stays_on_the_ring() {
    let (key, [a, b, c], outsider) = placement();
    let mut coord = Server::new(a);
    let asked = |sent: &[(NodeId, Msg<M>)]| -> BTreeSet<NodeId> {
        let reads = conditional_reads(sent, &key).into_iter();
        reads.map(|(to, ..)| to).collect()
    };
    let ids = |rs: &[ReplicaId]| -> BTreeSet<NodeId> { rs.iter().map(|r| NodeId(r.0)).collect() };
    let mut view = members();
    let adopt = |coord: &mut Server, view: &RingView<ReplicaId>| {
        coord.deliver(NodeId(c.0), Msg::RingEpoch { view: view.clone() });
        assert_eq!(coord.node().view(), view);
    };

    coord.node_mut().set_peer_status(b, false);
    let sent = coord.client_get_as(101, &key);
    assert_eq!(asked(&sent), ids(&[c, outsider]), "a fallback reads for b");

    // a view change that keeps b on the ring keeps its mark
    view.bump(&outsider, MemberStatus::Up);
    adopt(&mut coord, &view);
    let sent = coord.client_get_as(102, &key);
    assert_eq!(asked(&sent), ids(&[c, outsider]), "b is still down");

    // a view that drops b forgets its mark, so its re-join routes to it
    view.bump(&b, MemberStatus::Leaving);
    adopt(&mut coord, &view);
    let sent = coord.client_get_as(103, &key);
    assert_eq!(asked(&sent), ids(&[c, outsider]), "a three-member ring");
    view.bump(&b, MemberStatus::Up);
    adopt(&mut coord, &view);
    let sent = coord.client_get_as(104, &key);
    assert_eq!(asked(&sent), ids(&[b, c]), "the re-joined b is asked again");
}
