//! The conditional replica read (`RepGetIf` / `RepGetSame`), the one
//! completion rule reads and writes share, and the failure detector's
//! down marks as routing sees them, handler by handler: single
//! `StoreNode`s, each alone in a `simnet::Host` with the network off, so
//! what a node sends to another node leaves through the host's outlet at
//! once and is recorded there — no simulator, no fleet, every message
//! delivered (and every timer fired) by hand in the order the test wants.

use std::collections::BTreeSet;

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
        let node = StoreNode::new(replica, DvvMechanism, StoreConfig::default(), members());
        let rng = SimRng::new(u64::from(replica.0));
        let network = Network::new(NetworkConfig::default(), rng.fork("network"));
        let id = NodeId(replica.0);
        let mut host = Host::new(network, vec![(id, StoreProc::Server(node), rng)]);
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
fn outsider_coordinator_reads_an_empty_key_from_two_sames() {
    let (key, owners, outsider) = placement();
    let mut coord = Server::new(outsider);
    let empty = fingerprint(&State::default());

    let reads = conditional_reads(&coord.client_get(&key), &key);
    assert_eq!(
        reads,
        owners.map(|r| (NodeId(r.0), REQ, empty)).to_vec(),
        "a non-owner starts from the empty state and asks every owner"
    );
    for (to, req, have) in &reads {
        let mut replica = Server::new(ReplicaId(to.0));
        let get = Msg::RepGetIf {
            req: *req,
            key: key.clone(),
            have: *have,
        };
        let sent = replica.deliver(coord.id(), get);
        assert!(matches!(sent[..], [(_, Msg::RepGetSame { req: REQ })]));
    }

    assert!(
        coord.deliver(reads[0].0, same(REQ)).is_empty(),
        "one answer is not a read quorum for a coordinator that holds no copy"
    );
    let (ok, values, ctx) = client_reply(&coord.deliver(reads[1].0, same(REQ)));
    assert!(ok);
    assert!(values.is_empty());
    assert_eq!(ctx, Ctx::default());
    assert!(coord.deliver(reads[2].0, same(REQ)).is_empty());
    assert!(coord.node().data().is_empty(), "a non-owner keeps no state");
    assert_eq!(coord.node().stats().read_repairs, 0);
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

/// One coordinated request as the completion rule sees it: what the
/// client sent, and the answers of the replicas asked, in delivery order.
struct Row {
    name: &'static str,
    coord: Server,
    start: Msg<M>,
    /// How many of the W or R = 2 responses are the coordinator's own.
    own: usize,
    answers: Vec<(NodeId, Msg<M>)>,
    /// What handling the first answer sends besides any client reply.
    on_first_answer: Vec<(NodeId, Msg<M>)>,
    /// Payload of the one value the `ok` reply must carry.
    replied: &'static [u8],
    /// What the request leaves in the coordinator's store.
    stored: State,
    /// Read repairs once every answer is in, and once the timeout fires
    /// with only the quorum's answers in.
    repairs: [Vec<NodeId>; 2],
}

/// `{GET, PUT}` x `{an owner coordinates, an outsider does}`. The
/// outsider's PUT is the delegated write: `RepWrite` to the first owner,
/// whose `RepWriteResp` is both its vote and the state to fan out.
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
    let fan_out = |to: NodeId| {
        let put = Msg::RepPut {
            req: REQ,
            key: key.clone(),
            state: put_state.clone(),
            hint: None,
        };
        (to, put)
    };
    vec![
        Row {
            name: "GET, owner",
            coord: Server::holding(a, &key, &old),
            start: get(),
            own: 1,
            answers: vec![(nb, full(&key, &new)), (nc, same(REQ))],
            on_first_answer: Vec::new(),
            replied: b"new",
            stored: new.clone(),
            repairs: [vec![nc], Vec::new()],
        },
        Row {
            name: "GET, outsider",
            coord: Server::new(outsider),
            start: get(),
            own: 0,
            answers: vec![
                (na, full(&key, &old)),
                (nb, full(&key, &new)),
                (nc, same(REQ)),
            ],
            on_first_answer: Vec::new(),
            replied: b"new",
            stored: State::default(),
            repairs: [vec![na, nc], vec![na]],
        },
        Row {
            name: "PUT, owner",
            coord: Server::new(a),
            start: put(),
            own: 1,
            answers: vec![(nb, ack()), (nc, ack())],
            on_first_answer: Vec::new(),
            replied: b"put",
            stored: put_state.clone(),
            repairs: [Vec::new(), Vec::new()],
        },
        Row {
            name: "PUT, outsider",
            coord: Server::new(outsider),
            start: put(),
            own: 0,
            answers: vec![
                (
                    na,
                    Msg::RepWriteResp {
                        req: REQ,
                        key: key.clone(),
                        state: put_state.clone(),
                    },
                ),
                (nb, ack()),
                (nc, ack()),
            ],
            on_first_answer: vec![fan_out(nb), fan_out(nc)],
            replied: b"put",
            stored: State::default(),
            repairs: [Vec::new(), Vec::new()],
        },
    ]
}

/// Splits `sent` into the client's replies — `(ok, payloads)`, each of
/// the variant that answers `start` — and everything else.
#[allow(clippy::type_complexity)]
fn split_replies(
    start: &Msg<M>,
    sent: Vec<(NodeId, Msg<M>)>,
) -> (Vec<(bool, Vec<Vec<u8>>)>, Vec<(NodeId, Msg<M>)>) {
    let (mut replies, mut rest) = (Vec::new(), Vec::new());
    for (to, msg) in sent {
        let (ok, values) = match (start, msg) {
            (Msg::ClientGet { .. }, Msg::ClientGetResp { ok, values, .. })
            | (Msg::ClientPut { .. }, Msg::ClientPutResp { ok, values, .. }) => (ok, values),
            (_, other) => {
                rest.push((to, other));
                continue;
            }
        };
        assert_eq!(to, CLIENT);
        replies.push((ok, values.into_iter().map(|v| v.payload).collect()));
    }
    (replies, rest)
}

/// `sent`, comparably (a `Msg` has no `PartialEq`).
fn render(sent: &[(NodeId, Msg<M>)]) -> Vec<String> {
    sent.iter().map(|m| format!("{m:?}")).collect()
}

/// Reads and writes complete by one rule: gather answers from the key's
/// active replicas until R or W *distinct* ones are in, reply, retire
/// when all are — or when the timer fires first.
#[test]
fn one_completion_rule_for_both_ops() {
    let (key, [a, _, _], _) = placement();
    let (_, new) = old_and_new(a);
    let completions = |row: &Row| {
        let stats = row.coord.node().stats();
        (stats.gets_ok + stats.puts_ok, stats.quorum_timeouts)
    };

    // Every replica answers, and the network delivers each answer twice.
    for mut row in rows() {
        let name = row.name;
        let quorum_at = 2 - row.own;
        let all_at = row.answers.len();
        row.coord.deliver(CLIENT, row.start.clone());
        let timer = Timer::Request(REQ);
        assert_eq!(row.coord.armed(), [timer], "{name}: one request, one timer");
        for (i, (from, answer)) in row.answers.iter().enumerate() {
            let sent = row.coord.deliver(*from, answer.clone());
            let (replies, rest) = split_replies(&row.start, sent);
            if i + 1 == quorum_at {
                let reply = (true, vec![row.replied.to_vec()]);
                assert_eq!(replies, [reply], "{name}: the reply leaves at the quorum");
            } else {
                assert!(replies.is_empty(), "{name}: answer {i} is no quorum");
            }
            if i + 1 == all_at {
                assert_eq!(repaired(&rest, &key, &new), row.repairs[0], "{name}");
                assert_eq!(row.coord.armed(), [], "{name}: retired");
            } else {
                let expect: &[_] = if i == 0 { &row.on_first_answer } else { &[] };
                assert_eq!(render(&rest), render(expect), "{name}: answer {i}");
                assert_eq!(row.coord.armed(), [timer], "{name}: in flight");
            }
            let again = row.coord.deliver(*from, answer.clone());
            assert!(again.is_empty(), "{name}: a replica counts once");
        }
        // retired: further answers and the timer's late fire are ignored
        let before = row.coord.node().stats();
        for (from, answer) in &row.answers {
            assert!(row.coord.deliver(*from, answer.clone()).is_empty());
        }
        assert!(row.coord.fire(timer).is_empty(), "{name}");
        assert_eq!(row.coord.node().stats(), before, "{name}");
        assert_eq!(completions(&row), (1, 0), "{name}");
        assert_eq!(before.read_repairs, row.repairs[0].len() as u64, "{name}");
        assert_eq!(row.coord.stored(&key), row.stored, "{name}");
    }

    // The timer fires one answer short of the quorum.
    for mut row in rows() {
        let name = row.name;
        row.coord.deliver(CLIENT, row.start.clone());
        let timer = Timer::Request(REQ);
        for (from, answer) in &row.answers[..1 - row.own] {
            for _ in 0..2 {
                let sent = row.coord.deliver(*from, answer.clone());
                assert!(split_replies(&row.start, sent).0.is_empty(), "{name}");
            }
        }
        let (replies, rest) = split_replies(&row.start, row.coord.fire(timer));
        assert_eq!(replies, [(false, Vec::new())], "{name}: one refusal");
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
        row.coord.deliver(CLIENT, row.start.clone());
        let timer = Timer::Request(REQ);
        for (from, answer) in &row.answers[..2 - row.own] {
            row.coord.deliver(*from, answer.clone());
        }
        assert_eq!(completions(&row), (1, 0), "{name}");
        let (replies, rest) = split_replies(&row.start, row.coord.fire(timer));
        assert!(replies.is_empty(), "{name}: the client has its reply");
        assert_eq!(repaired(&rest, &key, &new), row.repairs[1], "{name}");
        for (from, answer) in &row.answers {
            assert!(row.coord.deliver(*from, answer.clone()).is_empty());
        }
        assert_eq!(completions(&row), (1, 0), "{name}");
        assert_eq!(row.coord.stored(&key), row.stored, "{name}");
    }
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
