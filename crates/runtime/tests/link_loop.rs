//! The worker loop, driven message by message through a scripted
//! [`Link`].
//!
//! Whole-fleet runs exercise the loop only statistically; here an
//! in-memory link records what the hosted nodes send, delivers nothing
//! on its own, and lets each test post exactly the packets it wants —
//! from the link's `send` (on the worker thread, so the worker is
//! provably not looking at its inbox meanwhile) or from the fleet's main
//! thread while the run is live ([`Fleet::run_during`], which a crash
//! never waits on: the workers carry it out on their own clocks).
//! Interleavings are forced through the inbox channel and the progress
//! counters, never through sleeps longer than the loop's 20 ms wait cap.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::DvvMechanism;
use dvv::{ClientId, ReplicaId};
use kvstore::config::{ClientConfig, StoreConfig};
use kvstore::harness::FleetHarness;
use kvstore::messages::Msg;
use kvstore::value::{Key, StampedValue, WriteId};
use ring::RingView;
use runtime::link::deliver;
use runtime::{ChannelLink, Fleet, Link, Packet, Progress, RuntimeConfig, Wiring};
use simnet::{
    Duration, LatencyModel, LinkConfig, LinkFaults, NetworkConfig, NodeId, Scenario, Step,
};

type M = DvvMechanism;

const SERVER: NodeId = NodeId(0);
/// A sender id no worker hosts: replies to it reach only the link.
const STRANGER: NodeId = NodeId(7);

/// What a test configures and reads back; shared with the opened link.
#[derive(Default)]
struct Script {
    /// Runs inside `send`, on the sending worker's thread.
    on_send: Option<fn(&ScriptLink, &Packet<M>)>,
    /// Runs on the fleet's main thread once its workers are up
    /// ([`Script::main`]).
    on_main: Option<fn(&ScriptLink)>,
    /// The link the run opened, for `on_main`.
    opened: Mutex<Option<ScriptLink>>,
    /// `(from, to)` of everything the loop handed to `send`.
    sent: Mutex<Vec<(NodeId, NodeId)>>,
    /// Numbers a script wants the test body to assert on.
    notes: Mutex<Vec<u64>>,
}

#[derive(Clone)]
struct ScriptLink {
    inboxes: Vec<SyncSender<Packet<M>>>,
    progress: Arc<Progress>,
    script: Arc<Script>,
}

impl ScriptLink {
    /// Posts a packet into `to`'s inbox the way a real link does.
    fn inject(&self, from: NodeId, to: NodeId, msg: Msg<M>) {
        let pkt = Packet { from, to, msg };
        assert!(deliver(&self.inboxes, &self.progress, to, pkt));
    }

    fn probe(&self, req: u64) {
        let key = b"probe".to_vec();
        self.inject(STRANGER, SERVER, Msg::RepGet { req, key });
    }

    fn events(&self, node: NodeId) -> u64 {
        self.progress.events[node.0 as usize].load(Ordering::Relaxed)
    }

    fn depth(&self, node: NodeId) -> i64 {
        self.progress.inbox_depth[node.0 as usize].load(Ordering::Relaxed)
    }

    fn sent_count(&self) -> u64 {
        self.script.sent.lock().unwrap().len() as u64
    }

    fn note(&self, n: u64) {
        self.script.notes.lock().unwrap().push(n);
    }
}

/// Polls `cond` (1 ms naps) until it holds; a script that waits on the
/// worker must not be able to hang the test.
fn await_that(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + StdDuration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(StdDuration::from_millis(1));
    }
}

impl Link<M> for ScriptLink {
    type Spec = Arc<Script>;
    type Ledger = ();

    fn open(spec: &Arc<Script>, wiring: Wiring<M>) -> Self {
        let link = ScriptLink {
            inboxes: wiring.inboxes,
            progress: wiring.progress,
            script: Arc::clone(spec),
        };
        if spec.on_main.is_some() {
            *spec.opened.lock().unwrap() = Some(link.clone());
        }
        link
    }

    fn send(&self, pkt: Packet<M>) {
        self.script.sent.lock().unwrap().push((pkt.from, pkt.to));
        if let Some(f) = self.script.on_send {
            f(self, &pkt);
        }
    }

    fn close(self) {}
}

/// One server (N=R=W=1) whose periodic timers lie beyond any test, so
/// every event it dispatches is one the test caused.
fn quiet_config(clients: usize) -> RuntimeConfig {
    let far = Duration::from_secs(600);
    RuntimeConfig {
        servers: 1,
        clients,
        client_workers: 1,
        cycles_per_client: 1,
        store: StoreConfig {
            n: 1,
            r: 1,
            w: 1,
            anti_entropy_interval: far,
            gossip_interval: far,
            handoff_interval: far,
            ..StoreConfig::default()
        },
        quiesce: StdDuration::ZERO,
        ..RuntimeConfig::default()
    }
}

fn fleet(config: RuntimeConfig, script: &Arc<Script>) -> Fleet<M, ScriptLink> {
    Fleet::with_link(0x11AC, DvvMechanism, config, None, Arc::clone(script))
}

const CLIENT_TIMEOUT: StdDuration = StdDuration::from_millis(2);

/// Answers a client request the way a coordinator would — but only
/// after the request's timer has come due, and while the client's
/// worker is still inside `send`: when the worker next looks, the due
/// timer and the queued reply are both pending, as after a host freeze.
fn reply_after_timeout(link: &ScriptLink, pkt: &Packet<M>) {
    let reply = match &pkt.msg {
        Msg::ClientGet { req, .. } => Msg::ClientGetResp {
            req: *req,
            ok: true,
            values: Vec::new(),
            ctx: Default::default(),
        },
        Msg::ClientPut { req, .. } => Msg::ClientPutResp {
            req: *req,
            ok: true,
            values: Vec::new(),
            ctx: Default::default(),
        },
        _ => return,
    };
    std::thread::sleep(2 * CLIENT_TIMEOUT);
    link.inject(pkt.to, pkt.from, reply);
}

/// Regression (found by the benchmark PR): the loop fired due timers
/// before it drained its inbox, so a request whose reply was already
/// queued timed out and was retried.
#[test]
fn queued_reply_is_handled_before_a_due_timer() {
    let script = Arc::new(Script {
        on_send: Some(reply_after_timeout),
        ..Script::default()
    });
    let mut config = quiet_config(1);
    config.client = ClientConfig {
        request_timeout: Duration::from_micros(CLIENT_TIMEOUT.as_micros() as u64),
        think_time: Duration::from_micros(0),
        ..ClientConfig::default()
    };
    let mut fleet = fleet(config, &script);
    let report = fleet.run().expect("no stall");
    assert!(report.all_done);
    assert_eq!(report.ops_ok, 2, "one GET and one PUT");
    let stats = fleet.client(0).stats();
    assert_eq!(
        (stats.retries, stats.failed_cycles),
        (0, 0),
        "a queued reply must win over the timer it answers"
    );
}

/// A message a node addresses to itself is an agenda entry due at once
/// on its worker's host: the host counts it, the link never carries it,
/// and the node handles it once.
#[test]
fn self_send_is_delivered_locally_exactly_once() {
    fn script(link: &ScriptLink) {
        await_that("the server to start", || link.events(SERVER) >= 1);
        let base = link.events(SERVER);
        // A replica read "from itself": the server answers its sender.
        let key = b"k".to_vec();
        link.inject(SERVER, SERVER, Msg::RepGet { req: 1, key });
        await_that("the request and its self-sent answer", || {
            link.events(SERVER) >= base + 2
        });
        link.note(base);
        link.note(link.depth(SERVER) as u64);
    }
    let script = Arc::new(Script {
        on_main: Some(script),
        ..Script::default()
    });
    let mut fleet = fleet(quiet_config(0), &script);
    fleet.run_during(script.main()).expect("no stall");

    let notes = script.notes.lock().unwrap().clone();
    let (base, depth) = (notes[0], notes[1]);
    let network = fleet.network_report().expect("a run");
    assert_eq!(network.self_sent, 1, "{network:?}");
    assert_eq!(*script.sent.lock().unwrap(), vec![], "nothing on the link");
    assert_eq!(depth, 0, "a self-send does not count as inbox depth");
    assert_eq!(
        fleet.stats().snapshot(0).events,
        base + 2,
        "the request, then the self-sent answer once"
    );
}

/// A server the crash schedule has taken down drains its inbox onto
/// the floor: nothing is dispatched or answered, and `inbox_depth`
/// returns to zero.
#[test]
fn down_server_discards_inbound_and_keeps_depth_honest() {
    fn script(link: &ScriptLink) {
        // The kill is due at once, and the server's own worker carries
        // it out: it marks the server down as it does.
        await_that("the kill", || {
            link.progress.expected_down[0].load(Ordering::Relaxed)
        });
        link.probe(1);
        await_that("the first probe to be taken", || link.depth(SERVER) == 0);
        // The second probe is taken only after the first was handled,
        // so counters read now are final.
        link.probe(2);
        await_that("the second probe to be taken", || link.depth(SERVER) == 0);
        let (events, answers) = (link.events(SERVER), link.sent_count());
        for req in 3..8 {
            link.probe(req);
        }
        await_that("the inbox to drain", || link.depth(SERVER) == 0);
        link.note(link.events(SERVER) - events);
        link.note(link.sent_count() - answers);
    }
    let script = Arc::new(Script {
        on_main: Some(script),
        ..Script::default()
    });
    let mut config = quiet_config(0);
    // The respawn is on the worker's clock too, and must come after the
    // script is done.
    config.scenario = Scenario::new([
        (Duration::ZERO, Step::Kill(0)),
        (Duration::from_secs(1), Step::Revive(0)),
    ]);
    let mut fleet = fleet(config, &script);
    fleet.run_during(script.main()).expect("no stall");

    let notes = script.notes.lock().unwrap().clone();
    assert_eq!(notes, vec![0, 0], "a down server dispatched or answered");
    assert!(
        script.sent_to(STRANGER) <= 1,
        "only the probe that raced the kill may have been answered"
    );
}

/// A scheduled crash is carried out by its server's own worker, from
/// its agenda: with no packet arriving and nothing posted from outside,
/// the server goes down at its kill instant — its timers go with it —
/// and comes back at its respawn instant, merges the re-admission view
/// its worker queued for it, at the incarnation the audit view names,
/// and runs its periodic timers again.
#[test]
fn a_crash_runs_on_its_servers_own_clock() {
    const GOSSIP: StdDuration = StdDuration::from_millis(5);
    fn script(link: &ScriptLink) {
        let down = &link.progress.expected_down[0];
        await_that("the kill", || down.load(Ordering::Relaxed));
        let at_kill = link.events(SERVER);
        // Two gossip intervals into a 40 ms outage: a timer that had
        // outlived the kill would have come due by now.
        std::thread::sleep(2 * GOSSIP);
        let later = link.events(SERVER);
        if down.load(Ordering::Relaxed) {
            link.note(later - at_kill);
        }
        await_that("the respawn", || !down.load(Ordering::Relaxed));
        await_that("the re-admission and two gossip timers", || {
            link.events(SERVER) >= at_kill + 3
        });
    }
    let script = Arc::new(Script {
        on_main: Some(script),
        ..Script::default()
    });
    let mut config = quiet_config(0);
    config.store.gossip_interval = Duration::from_micros(GOSSIP.as_micros() as u64);
    config.scenario = Scenario::new([
        (Duration::from_millis(20), Step::Kill(0)),
        (Duration::from_millis(60), Step::Revive(0)),
    ]);
    let mut fleet = fleet(config, &script);
    fleet.run_during(script.main()).expect("no stall");

    let notes = script.notes.lock().unwrap().clone();
    assert!(notes.iter().all(|n| *n == 0), "a down server dispatched");
    assert_eq!(*script.sent.lock().unwrap(), vec![], "nothing on the link");
    let network = fleet.network_report().expect("a run");
    assert_eq!(network.self_sent, 0, "{network:?}");
    let me = ReplicaId(0);
    let audit = fleet.audit_view().entry(&me).map(|e| e.incarnation);
    assert_eq!(audit, Some(2), "genesis, then the crash's one Up bump");
    let merged = fleet.server(0).view();
    assert_eq!(merged.entry(&me).map(|e| e.incarnation), audit);
    assert_eq!(merged.digest(), fleet.audit_view().digest());
}

impl Script {
    /// What the fleet's main thread runs once its workers are up:
    /// `on_main`, on the link the run opened.
    fn main(&self) -> impl FnOnce() + '_ {
        move || {
            let link = self.opened.lock().unwrap().take();
            if let (Some(f), Some(link)) = (self.on_main, link) {
                f(&link);
            }
        }
    }

    fn sent_to(&self, to: NodeId) -> usize {
        let sent = self.sent.lock().unwrap();
        sent.iter().filter(|(_, t)| *t == to).count()
    }
}

/// A key on a four-server fleet and its three owners, in preference
/// order, under the fleet's genesis view (whose digest comes last).
fn cart_placement() -> (Key, [NodeId; 3], u64) {
    let view = RingView::from_members((0..4).map(ReplicaId));
    let key: Key = b"cart:17".to_vec();
    let owners = view
        .to_ring(StoreConfig::default().vnodes)
        .preference_list(&key, 3);
    let owners = [0, 1, 2].map(|i| NodeId(owners[i].0));
    (key, owners, view.digest())
}

/// The node that coordinates the cart key: its first owner.
fn cart_coordinator() -> NodeId {
    cart_placement().1[0]
}

/// Regression: replies were counted, not attributed, so a link that
/// delivers one replica's answer twice could hand a coordinator its
/// quorum from too few replicas. With N = R = W = 3 the first owner
/// coordinates and counts itself; only the second owner ever answers,
/// always twice, and the third never does, so both requests must time
/// out.
#[test]
fn a_reply_delivered_twice_counts_once_toward_the_quorum() {
    fn second_owner_answers_twice(link: &ScriptLink, pkt: &Packet<M>) {
        let reply = match &pkt.msg {
            Msg::RepGetIf { req, .. } => Msg::RepGetSame { req: *req },
            Msg::RepPut { req, .. } => Msg::RepPutAck { req: *req },
            Msg::ClientGetResp { ok, .. } | Msg::ClientPutResp { ok, .. } => {
                return link.note(u64::from(*ok));
            }
            _ => return,
        };
        if pkt.to == cart_placement().1[1] {
            link.inject(pkt.to, pkt.from, reply.clone());
            link.inject(pkt.to, pkt.from, reply);
        }
    }
    fn script(link: &ScriptLink) {
        let (key, _, digest) = cart_placement();
        let get = Msg::ClientGet {
            req: 1,
            key: key.clone(),
            digest,
        };
        link.inject(STRANGER, cart_coordinator(), get);
        await_that("the GET to be answered", || {
            link.script.sent_to(STRANGER) >= 1
        });
        let put = Msg::ClientPut {
            req: 2,
            key,
            value: StampedValue::new(WriteId::new(ClientId(0), 1), b"v".to_vec()),
            ctx: Default::default(),
            digest,
        };
        link.inject(STRANGER, cart_coordinator(), put);
        await_that("the PUT to be answered", || {
            link.script.sent_to(STRANGER) >= 2
        });
    }
    let script = Arc::new(Script {
        on_send: Some(second_owner_answers_twice),
        on_main: Some(script),
        ..Script::default()
    });
    let mut config = quiet_config(0);
    config.servers = 4;
    config.store = StoreConfig {
        n: 3,
        r: 3,
        w: 3,
        request_timeout: Duration::from_millis(10),
        ..config.store
    };
    let mut fleet = fleet(config, &script);
    fleet.run_during(script.main()).expect("no stall");

    assert_eq!(
        *script.notes.lock().unwrap(),
        vec![0, 0],
        "one replica's answer, delivered twice, passed for two"
    );
    let stats = fleet.server(cart_coordinator().0 as usize).stats();
    assert_eq!(stats.remote_coordinations, 0, "an owner coordinated");
    assert_eq!(
        (stats.gets_ok, stats.puts_ok, stats.quorum_timeouts),
        (0, 0, 2)
    );
}

/// A latency-sampled packet waits on the agenda of the worker that
/// routed it and is on the wire from that moment: it reaches the link
/// no earlier than the window's lower edge, its duplicate draws a delay
/// of its own, and both still go out after the crash schedule has
/// killed the node that sent them. The kill runs on the worker's wall
/// clock, hence the wide margins: routed well before it, due well after.
#[test]
fn delayed_sends_keep_their_delay_and_outlive_a_kill_of_their_sender() {
    const LO: StdDuration = StdDuration::from_millis(300);
    const HI: StdDuration = StdDuration::from_millis(400);
    const KILL_AFTER: StdDuration = StdDuration::from_millis(100);
    fn micros_now() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
    }
    fn script(link: &ScriptLink) {
        await_that("the server to start", || link.events(SERVER) >= 1);
        let killed = &link.progress.expected_down[0];
        assert!(!killed.load(Ordering::Relaxed), "first pass came too late");
        let base = link.events(SERVER);
        link.note(micros_now());
        link.probe(1);
        // The answer and its duplicate are routed — held back — well
        // before the kill is due.
        await_that("the probe to be answered", || link.events(SERVER) > base);
    }
    fn stamp(link: &ScriptLink, _: &Packet<M>) {
        link.note(micros_now());
        link.note(u64::from(
            link.progress.expected_down[0].load(Ordering::Relaxed),
        ));
    }
    let script = Arc::new(Script {
        on_send: Some(stamp),
        on_main: Some(script),
        ..Script::default()
    });
    let mut config = quiet_config(0);
    config.faults = Some(NetworkConfig::uniform(LinkConfig {
        latency: LatencyModel::Uniform {
            lo: Duration::from_micros(LO.as_micros() as u64),
            hi: Duration::from_micros(HI.as_micros() as u64),
        },
        faults: LinkFaults {
            duplicate_probability: 1.0,
            ..LinkFaults::default()
        },
        ..LinkConfig::default()
    }));
    let micros = |d: StdDuration| Duration::from_micros(d.as_micros() as u64);
    config.scenario = Scenario::new([
        (micros(KILL_AFTER), Step::Kill(0)),
        (micros(HI + 2 * KILL_AFTER), Step::Revive(0)),
    ]);
    let mut fleet = fleet(config, &script);
    fleet.run_during(script.main()).expect("no stall");

    let notes = script.notes.lock().unwrap().clone();
    let [routed, first, first_down, second, second_down] = notes[..] else {
        panic!("the answer and its duplicate, nothing else: {notes:?}");
    };
    assert_eq!(script.sent_to(STRANGER), 2);
    let lo = LO.as_micros() as u64;
    assert!(
        first - routed >= lo,
        "sent {} µs after routing",
        first - routed
    );
    assert!(
        second - first >= 1_000,
        "two copies, one delay: {} µs apart",
        second - first
    );
    assert_eq!(
        (first_down, second_down),
        (1, 1),
        "both left after the kill of their sender"
    );
}

/// The in-process link never blocks a sender: a full inbox drops the
/// message and counts it.
#[test]
fn full_inbox_is_counted_as_loss_not_a_hang() {
    let (tx, rx) = mpsc::sync_channel(1);
    let progress = Arc::new(Progress::new(1));
    let link = <ChannelLink<M> as Link<M>>::open(
        &(),
        Wiring {
            inboxes: vec![tx],
            progress: Arc::clone(&progress),
            shutdown: Arc::new(AtomicBool::new(false)),
        },
    );
    for req in 0..3 {
        link.send(Packet {
            from: STRANGER,
            to: SERVER,
            msg: Msg::RepPutAck { req },
        });
    }
    assert_eq!(link.close().inbox_drops, 2);
    assert_eq!(progress.inbox_depth[0].load(Ordering::Relaxed), 1);
    assert!(matches!(
        rx.try_recv().map(|p| p.msg),
        Ok(Msg::RepPutAck { req: 0 })
    ));
    assert!(rx.try_recv().is_err(), "dropped means dropped");
}

/// An idle worker sleeps at most the loop's 20 ms wait cap, so a fleet
/// with nothing to do shuts down within about one cap.
#[test]
fn shutdown_is_observed_within_one_wait_cap() {
    // A frozen host can stretch any single attempt; one prompt
    // shutdown in three shows the cap holds.
    let fastest = (0..3)
        .map(|_| {
            let mut fleet = fleet(quiet_config(0), &Arc::new(Script::default()));
            let started = Instant::now();
            fleet.run().expect("no stall");
            started.elapsed()
        })
        .min()
        .unwrap();
    assert!(
        fastest < StdDuration::from_millis(100),
        "an idle fleet took {fastest:?} to stop"
    );
}

/// Four quiet servers, N=3 R=W=2, with a request timeout short enough
/// to wait out.
fn cart_config() -> RuntimeConfig {
    let mut config = quiet_config(0);
    config.servers = 4;
    config.store = StoreConfig {
        n: 3,
        r: 2,
        w: 2,
        request_timeout: Duration::from_micros(SERVER_TIMEOUT.as_micros() as u64),
        ..config.store
    };
    config
}

const SERVER_TIMEOUT: StdDuration = StdDuration::from_millis(5);

/// Posts a GET of the cart key to its coordinator and waits for the
/// answer to the client.
fn get_cart(link: &ScriptLink) {
    let (key, _, digest) = cart_placement();
    let req = 1;
    link.inject(
        STRANGER,
        cart_coordinator(),
        Msg::ClientGet { req, key, digest },
    );
    await_that("the GET to be answered", || {
        link.script.sent_to(STRANGER) >= 1
    });
}

/// Notes `node`'s event count before and after its request timeout's
/// instant has passed. A timer that is still armed fires on its own at
/// that instant (the worker sleeps no longer than until its next due
/// timer), so equal counts mean it was unscheduled.
fn note_events_across_the_timeout(link: &ScriptLink, node: NodeId) {
    link.note(link.events(node));
    std::thread::sleep(3 * SERVER_TIMEOUT);
    link.note(link.events(node));
}

/// The node's context writes through to the router, so what one
/// handler sends reaches the link in the order the handler sent it: the
/// coordinator, the key's first owner, asks the other two owners in
/// preference order, and — no one answering — fails the GET last.
#[test]
fn sends_of_one_handler_reach_the_link_in_handler_order() {
    let script = Arc::new(Script {
        on_main: Some(get_cart),
        ..Script::default()
    });
    let mut fleet = fleet(cart_config(), &script);
    fleet.run_during(script.main()).expect("no stall");

    let [coordinator, second, third] = cart_placement().1;
    let expected = vec![
        (coordinator, second),
        (coordinator, third),
        (coordinator, STRANGER),
    ];
    assert_eq!(*script.sent.lock().unwrap(), expected);
}

/// The handler that completes a request cancels that request's timer by
/// the id it was armed under, straight in the wheel: once both other
/// owners have answered, the coordinator dispatches nothing more — its
/// event count stays flat across the timeout instant.
#[test]
fn a_completed_requests_timer_never_dispatches() {
    fn every_owner_answers(link: &ScriptLink, pkt: &Packet<M>) {
        if let Msg::RepGetIf { req, .. } = &pkt.msg {
            link.inject(pkt.to, pkt.from, Msg::RepGetSame { req: *req });
        }
    }
    fn script(link: &ScriptLink) {
        let coordinator = cart_coordinator();
        await_that("the coordinator to start", || link.events(coordinator) >= 1);
        let base = link.events(coordinator);
        get_cart(link);
        await_that("the request and its two answers", || {
            link.events(coordinator) >= base + 3
        });
        note_events_across_the_timeout(link, coordinator);
    }
    let script = Arc::new(Script {
        on_send: Some(every_owner_answers),
        on_main: Some(script),
        ..Script::default()
    });
    let mut fleet = fleet(cart_config(), &script);
    fleet.run_during(script.main()).expect("no stall");

    let notes = script.notes.lock().unwrap().clone();
    assert_eq!(notes[0], notes[1], "a cancelled request timer dispatched");
    let stats = fleet.server(cart_coordinator().0 as usize).stats();
    assert_eq!((stats.gets_ok, stats.quorum_timeouts), (1, 0));
}

/// With N = R = W = 1 a GET is armed, answered, retired and its timer
/// cancelled inside one dispatch: the arm and the cancel hit the wheel
/// in that order, and nothing fires at the timeout instant.
#[test]
fn a_timer_armed_and_cancelled_in_one_dispatch_never_fires() {
    fn script(link: &ScriptLink) {
        await_that("the server to start", || link.events(SERVER) >= 1);
        let base = link.events(SERVER);
        let get = Msg::ClientGet {
            req: 1,
            key: b"k".to_vec(),
            digest: RingView::from_members([ReplicaId(0)]).digest(),
        };
        link.inject(STRANGER, SERVER, get);
        await_that("the GET to be answered", || {
            link.script.sent_to(STRANGER) >= 1 && link.events(SERVER) > base
        });
        link.note(link.events(SERVER) - base);
        note_events_across_the_timeout(link, SERVER);
    }
    let script = Arc::new(Script {
        on_main: Some(script),
        ..Script::default()
    });
    let mut config = quiet_config(0);
    config.store.request_timeout = Duration::from_micros(SERVER_TIMEOUT.as_micros() as u64);
    let mut fleet = fleet(config, &script);
    fleet.run_during(script.main()).expect("no stall");

    let notes = script.notes.lock().unwrap().clone();
    assert_eq!(notes[0], 1, "the GET is one dispatch");
    assert_eq!(notes[1], notes[2], "the timer of a retired GET fired");
    let stats = fleet.server(0).stats();
    assert_eq!((stats.gets_ok, stats.quorum_timeouts), (1, 0));
}

/// [`ScriptLink`] with a poll window ([`Link::SPIN`]) no test outlasts:
/// a worker of this link that has gone idle is still polling — has
/// neither missed nor parked — whenever a script acts.
#[derive(Clone)]
struct Spinning(ScriptLink);

impl Link<M> for Spinning {
    type Spec = Arc<Script>;
    type Ledger = ();

    const SPIN: StdDuration = StdDuration::from_secs(30);

    fn open(spec: &Arc<Script>, wiring: Wiring<M>) -> Self {
        Spinning(ScriptLink::open(spec, wiring))
    }

    fn send(&self, pkt: Packet<M>) {
        self.0.send(pkt);
    }

    fn close(self) {}
}

fn spinning_fleet(config: RuntimeConfig, script: &Arc<Script>) -> Fleet<M, Spinning> {
    Fleet::with_link(0x11AC, DvvMechanism, config, None, Arc::clone(script))
}

/// Waits for the quiet server to go idle, then posts it one probe and
/// waits for the dispatch.
fn probe_an_idle_server(link: &ScriptLink) {
    await_that("the server to start", || link.events(SERVER) >= 1);
    let base = link.events(SERVER);
    link.probe(1);
    await_that("the probe to be dispatched", || link.events(SERVER) > base);
}

/// A packet that arrives while the worker polls is dispatched from the
/// poll — counted as a hit — and the worker has not parked before it,
/// for it, or after it.
#[test]
fn a_packet_inside_the_poll_window_is_dispatched_without_a_park() {
    let script = Arc::new(Script {
        on_main: Some(probe_an_idle_server),
        ..Script::default()
    });
    let mut fleet = spinning_fleet(quiet_config(0), &script);
    fleet.run_during(script.main()).expect("no stall");

    let idle = fleet.stats().idle();
    assert_eq!((idle.parks, idle.spin_misses), (0, 0), "{idle:?}");
    // The probe — unless the start-up drain got to it first — and
    // teardown's wake.
    assert!(idle.spin_hits >= 1, "{idle:?}");
    assert_eq!(script.sent_to(STRANGER), 1, "the probe was answered");
}

/// On a link that leaves [`Link::SPIN`] at zero the worker never polls:
/// its idle arm is the one `recv_timeout` it always was.
#[test]
fn a_link_without_a_window_never_polls() {
    let script = Arc::new(Script {
        on_main: Some(probe_an_idle_server),
        ..Script::default()
    });
    let mut fleet = fleet(quiet_config(0), &script);
    fleet.run_during(script.main()).expect("no stall");

    let idle = fleet.stats().idle();
    assert_eq!((idle.spin_hits, idle.spin_misses), (0, 0), "{idle:?}");
    assert_eq!(script.sent_to(STRANGER), 1, "the probe was answered");
}

/// The poll never outlasts the next due instant: a request timer that
/// comes due [`SERVER_TIMEOUT`] into a window six thousand times as
/// long fires on time, not when the window ends.
#[test]
fn the_poll_window_is_cut_at_the_next_due_timer() {
    fn script(link: &ScriptLink) {
        let asked = Instant::now();
        // No other owner answers: the coordinator's reply is its timeout.
        get_cart(link);
        link.note(asked.elapsed().as_millis() as u64);
    }
    let script = Arc::new(Script {
        on_main: Some(script),
        ..Script::default()
    });
    let mut fleet = spinning_fleet(cart_config(), &script);
    fleet.run_during(script.main()).expect("no stall");

    let took_ms = script.notes.lock().unwrap()[0];
    assert!(
        took_ms < Spinning::SPIN.as_millis() as u64 / 2,
        "a {SERVER_TIMEOUT:?} timer fired after {took_ms} ms"
    );
    let stats = fleet.server(cart_coordinator().0 as usize).stats();
    assert_eq!((stats.gets_ok, stats.quorum_timeouts), (0, 1));
    assert_eq!(fleet.stats().idle().spin_misses, 0, "no window ran out");
}

/// Teardown wakes the workers it is about to join: `run` returns
/// moments after the run's own clock stopped, not one 20 ms wait cap
/// later.
#[test]
fn teardown_does_not_wait_out_a_parked_worker() {
    fn script(link: &ScriptLink) {
        // Started, and with nothing to do: parked by the time `run`
        // gets to its teardown (or about to be — the wake is queued
        // either way).
        await_that("the server to start", || link.events(SERVER) >= 1);
    }
    // A frozen host can stretch any single attempt.
    let fastest = (0..3)
        .map(|_| {
            let script = Arc::new(Script {
                on_main: Some(script),
                ..Script::default()
            });
            let mut fleet = fleet(quiet_config(0), &script);
            let started = Instant::now();
            let report = fleet.run_during(script.main()).expect("no stall");
            started.elapsed().saturating_sub(report.elapsed)
        })
        .min()
        .unwrap();
    assert!(
        fastest < StdDuration::from_millis(8),
        "teardown took {fastest:?}"
    );
}
