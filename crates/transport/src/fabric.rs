//! The socket fabric: listeners, reconnecting per-peer links, and the
//! fleet-wide byte ledger.
//!
//! Every node owns a loopback TCP listener; messages between distinct
//! nodes travel as [`frame`]-encoded `Msg` bodies over
//! per-`(sender, receiver)` connections dialed lazily on first send.
//!
//! **Outbound there is no thread and no queue of the fabric's own.** A
//! fleet worker frames what its nodes send in place, into an outbox per
//! `(from, to)` in its own link handle (`FabricLink`), and hands each
//! non-empty outbox to the fabric as one write of all its frames when
//! it goes to wait — at every poll and before it blocks — or as soon
//! as one holds 64 KiB; [`send_bytes`](Fabric::send_bytes) writes one
//! frame at once. Either way the write happens on the thread that asked
//! for it, under that link's own lock, so a destination gets one
//! `write(2)`, and its poller one wake-up, per worker pass rather than
//! per message. A link without a connection dials on the same thread
//! and introduces itself with an *authenticated* hello frame — its node
//! id plus a keyed FNV-1a tag over the fleet's shared cluster secret
//! ([`hello_body`]). A failed dial arms a jittered, doubling backoff as
//! a *deadline*: until it passes, writes on that link are dropped
//! without touching the network, so a dead peer costs its callers a
//! clock read, never a sleep. A failed write loses its frames and
//! closes the connection; the next write redials. Both are wire loss the protocol's retries and
//! anti-entropy absorb. A sender may wait on the kernel (a full socket
//! buffer) but never on the destination *node*: the far end's poller
//! [`deliver`]s into the node's inbox, which drops on full — wire loss
//! again, the in-process link's own rule — so it always drains the
//! socket. A worker that waits for room keeps polling its *own* streams
//! meanwhile, so two workers writing into each other's full buffers
//! both get on. Lock order is link → `conns`; nothing takes them the
//! other way round.
//!
//! **Inbound there is no thread of the fabric's own either**, only a
//! poller per node: its listener, its accepted connections (non-
//! blocking, each with a [`FrameParser`] its frames are parsed out of in
//! place) and a wake socket, waited on together in one edge-triggered
//! `epoll` set, whose ready list is in arrival order. Whoever hosts the
//! node runs it. On a fleet that is the node's own worker,
//! from its idle arm (`FabricLink`'s `Link::wait`), so a frame goes from
//! the kernel to the worker that handles it with no thread in between;
//! [`Fabric::start`] runs each node's poller on a thread of its own, a
//! loop around the same round, for callers that just want frames in
//! their inboxes. Nothing else differs between the two hosts. A poller
//! knows both ends of what it reads — the node it accepted for and the
//! dialer its hello named — so what it puts in the inbox is a complete
//! [`Packet`], the same item every link delivers. It verifies the hello
//! tag in constant time and terminally rejects the connection on any
//! mismatch, so a stray process dialing a listener's port cannot inject
//! frames attributed to a cluster member. A malformed frame (torn,
//! oversized, bad checksum) or an undecodable body kills that connection
//! — a stream decoder cannot resync after corruption — and the dialer's
//! next send takes it from there. A connection that stalls mid-frame
//! holds nothing up: its bytes wait in its own buffer.
//!
//! The fabric keeps an atomic ledger of every byte it handles, split by
//! fate (written / dropped / lost / hello), so the conformance suite can
//! assert *charge parity*: the bytes the nodes' wire ledgers charged
//! equal the bytes the fabric accepted plus those of the self-sends the
//! hosts delivered themselves (their network's `self_bytes`), to the
//! byte — the accounting the simulator models is the accounting the
//! socket driver measures. Under the fault plane the fabric accepted
//! every copy the hosts' networks let through.

use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::WireMechanism;
use kvstore::messages::Msg;
use kvstore::value::StampedValue;
use runtime::link::deliver;
use runtime::{Packet, Progress, Wiring};
use simnet::{NodeId, SimRng};
use storage::fnv1a64;

use crate::frame::{self, FrameError, FrameParser, HEADER_BYTES};
use crate::poll::{Epoll, HANGUP, READABLE, WRITABLE};

/// Initial reconnect backoff.
const BACKOFF_BASE_MS: u64 = 1;
/// Backoff cap (before jitter).
const BACKOFF_CAP_MS: u64 = 128;

/// The longest a sender waits for socket room before it looks at the
/// shutdown flag again.
const WRITE_WAIT: StdDuration = StdDuration::from_millis(10);

/// Bytes in an authenticated hello body: 4-byte node id + 8-byte tag.
const HELLO_LEN: usize = 12;

/// The authenticated hello body for `node` under `secret`: the node id
/// plus `hello_tag` over it. Public so tests (and any future
/// out-of-process peer) can speak the handshake.
#[must_use]
pub fn hello_body(node: u32, secret: u64) -> [u8; HELLO_LEN] {
    let mut body = [0u8; HELLO_LEN];
    body[..4].copy_from_slice(&node.to_le_bytes());
    body[4..].copy_from_slice(&hello_tag(node, secret).to_le_bytes());
    body
}

/// The keyed challenge tag: FNV-1a-64 over `secret || node`. FNV is not
/// a MAC against a resourceful adversary; the threat here is accidental
/// cross-talk — a stray process, a mis-configured fleet, a port reused
/// across runs — dialing a listener and having its frames attributed to
/// a cluster member. Matching the storage log's hash keeps the
/// dependency surface at zero.
fn hello_tag(node: u32, secret: u64) -> u64 {
    let mut keyed = [0u8; 12];
    keyed[..8].copy_from_slice(&secret.to_le_bytes());
    keyed[8..].copy_from_slice(&node.to_le_bytes());
    fnv1a64(&keyed)
}

/// Constant-time tag comparison: folds the XOR of every byte pair so
/// the time taken is independent of which byte (if any) differs.
fn tags_match(a: u64, b: u64) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.to_le_bytes().into_iter().zip(b.to_le_bytes()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Snapshot of the fabric's byte/frame ledger.
///
/// Invariants (asserted by the conformance suite): every byte the
/// fabric is handed is accounted exactly once as `enqueued` or
/// `dropped`, so on a fleet `enqueued_bytes + dropped_bytes` is the
/// bytes of every copy its hosts' networks let through — with the fault
/// plane off, the fleet's summed wire ledgers less the self-sends the
/// hosts delivered themselves (`simnet::NetworkStats::self_bytes`); and
/// a frame handed to a connection is written or lost before the flush
/// that handed it returns, so at rest `enqueued == written + io_lost`
/// in frames. A write carries one or more whole frames, so `1 ≤ writes ≤
/// written_frames` once anything was written, and `written_frames /
/// writes` is frames per write.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Frames handed to a live connection.
    pub enqueued_frames: u64,
    /// Bytes (header included) handed to a live connection.
    pub enqueued_bytes: u64,
    /// Frames the socket took in full.
    pub written_frames: u64,
    /// Bytes (header included) the socket took in full.
    pub written_bytes: u64,
    /// Writes the socket took in full, each one or more whole frames
    /// to one destination: one per flushed outbox.
    pub writes: u64,
    /// Frames dropped unwritten: link in redial backoff, or shutdown.
    pub dropped_frames: u64,
    /// Bytes dropped unwritten.
    pub dropped_bytes: u64,
    /// Frames lost to a failed socket write.
    pub io_lost_frames: u64,
    /// Bytes spent on hello frames (connection setup, not message
    /// traffic — kept out of the data ledger on purpose).
    pub hello_bytes: u64,
    /// Successful outbound connection establishments.
    pub connects: u64,
    /// Connects beyond each link's first — i.e. recoveries after a
    /// broken connection.
    pub reconnects: u64,
    /// Frames received and decoded.
    pub recv_frames: u64,
    /// Bytes (header included) received in decoded frames.
    pub recv_bytes: u64,
    /// Connections dropped on a frame-layer error (torn / oversized /
    /// bad checksum).
    pub frame_errors: u64,
    /// Connections dropped on an undecodable message body.
    pub decode_errors: u64,
    /// Connections terminally rejected at the hello: malformed body,
    /// out-of-range node id, or a challenge tag that does not match the
    /// cluster secret.
    pub hello_rejects: u64,
    /// Decoded messages dropped because the destination inbox was full.
    pub inbox_drops: u64,
}

#[derive(Debug, Default)]
struct Counters {
    enqueued_frames: AtomicU64,
    enqueued_bytes: AtomicU64,
    written_frames: AtomicU64,
    written_bytes: AtomicU64,
    writes: AtomicU64,
    dropped_frames: AtomicU64,
    dropped_bytes: AtomicU64,
    io_lost_frames: AtomicU64,
    hello_bytes: AtomicU64,
    connects: AtomicU64,
    reconnects: AtomicU64,
    recv_frames: AtomicU64,
    recv_bytes: AtomicU64,
    frame_errors: AtomicU64,
    decode_errors: AtomicU64,
    hello_rejects: AtomicU64,
    inbox_drops: AtomicU64,
}

/// The sending end of one `from → to` link.
struct OutLink {
    /// The dialed connection, after its [`Conn`] registry token.
    conn: Option<(Option<u64>, TcpStream)>,
    /// No dial before this instant: a deadline for sends, not a sleep.
    next_dial: Instant,
    backoff_ms: u64,
    connected_before: bool,
    /// This link's backoff jitter stream.
    rng: SimRng,
}

/// Live socket registry entry: enough to sever the connection from
/// outside (fault injection, shutdown).
struct Conn {
    /// Either endpoint's node index (dialer side knows both; accept
    /// side knows the peer only after the hello).
    nodes: (usize, usize),
    stream: TcpStream,
}

/// One accepted connection, as its poller holds it.
#[derive(Debug)]
struct Inbound {
    /// What the poller's `epoll` set reports it as.
    token: u64,
    /// The node it was accepted for.
    to: usize,
    /// The dialer its hello authenticated, with the connection's
    /// registry token; `None` until the hello.
    from: Option<(usize, Option<u64>)>,
    stream: TcpStream,
    parser: FrameParser,
}

/// A node's way in, until a [`Poller`] takes it: its listener and the
/// read end of its wake socket.
#[derive(Debug)]
pub(crate) struct Inlet {
    node: usize,
    listener: TcpListener,
    wake: UnixStream,
}

/// `epoll` token of the connection a waiting sender writes to.
const OUT: u64 = u64::MAX;

/// The receiving side of one or more nodes: their listeners, the
/// connections accepted on them and their wake sockets in one `epoll`
/// set, serviced one [`round`](Poller::round) at a time by whichever
/// thread hosts the nodes. Owned, never shared: no lock is taken to
/// poll. Inlet `i`'s listener is token `2i`, its wake socket `2i + 1`;
/// connections count on from there.
#[derive(Debug)]
pub(crate) struct Poller {
    epoll: Epoll,
    inlets: Vec<Inlet>,
    conns: Vec<Inbound>,
    next_token: u64,
    /// The last wait's ready tokens, with their events.
    ready: Vec<(u64, u32)>,
}

impl Poller {
    /// One poller over `inlets`: one host, one wait.
    pub(crate) fn new(inlets: Vec<Inlet>) -> io::Result<Self> {
        let epoll = Epoll::new()?;
        for (i, inlet) in inlets.iter().enumerate() {
            epoll.add(&inlet.listener, READABLE, 2 * i as u64)?;
            epoll.add(&inlet.wake, READABLE, 2 * i as u64 + 1)?;
        }
        Ok(Poller {
            epoll,
            next_token: 2 * inlets.len() as u64,
            inlets,
            conns: Vec::new(),
            ready: Vec::new(),
        })
    }

    /// One round: waits up to `timeout` (`None`: for as long as it takes)
    /// until a listener, a connection or a wake socket is ready — or
    /// `out`, a connection being written to, has room — then, in the
    /// order they became ready, accepts what is pending, drains every
    /// ready connection and hands each complete frame on. A connection
    /// accepted in this round is read in it too, so a frame that was in
    /// the kernel when the round began is in its inbox when it ends.
    pub(crate) fn round<M: WireMechanism<StampedValue>>(
        &mut self,
        fabric: &Fabric<M>,
        timeout: Option<StdDuration>,
        out: Option<&TcpStream>,
    ) {
        let Poller {
            epoll,
            inlets,
            conns,
            next_token,
            ready,
        } = self;
        let out = out.filter(|s| epoll.add(*s, WRITABLE, OUT).is_ok());
        let waited = epoll.wait(ready, timeout);
        if let Some(s) = out {
            let _ = epoll.delete(s);
        }
        if waited.is_err() {
            return;
        }
        for &(token, events) in ready.iter() {
            let Some(inlet) = inlets.get(token as usize / 2) else {
                // A connection (or `OUT`, which needs nothing done).
                if let Some(i) = conns.iter().position(|c| c.token == token) {
                    if !fabric.serve(&mut conns[i], events & HANGUP != 0) {
                        let _ = epoll.delete(&conns.swap_remove(i).stream);
                    }
                }
                continue;
            };
            if token % 2 == 1 {
                while (&inlet.wake).read(&mut [0; 64]).is_ok_and(|n| n > 0) {}
                continue;
            }
            // Every pending connection, each read at once.
            while let Some(stream) = accept(&inlet.listener) {
                let mut c = Inbound {
                    token: *next_token,
                    to: inlet.node,
                    from: None,
                    stream,
                    parser: FrameParser::new(),
                };
                *next_token += 1;
                if epoll.add(&c.stream, READABLE, c.token).is_ok() && fabric.serve(&mut c, false) {
                    conns.push(c);
                } else {
                    let _ = epoll.delete(&c.stream);
                }
            }
        }
    }
}

/// The next connection pending on `listener`, made non-blocking; `None`
/// when there is none (or a transient failure, which the listener's next
/// readiness retries).
fn accept(listener: &TcpListener) -> Option<TcpStream> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_ok() {
                    let _ = stream.set_nodelay(true);
                    return Some(stream);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
}

/// The shared socket layer of a [`SocketFleet`](crate::fleet::SocketFleet).
pub struct Fabric<M: WireMechanism<StampedValue>> {
    mech: M,
    addrs: Vec<SocketAddr>,
    inboxes: Vec<SyncSender<Packet<M>>>,
    progress: Arc<Progress>,
    shutdown: Arc<AtomicBool>,
    counters: Counters,
    /// Link `from → to` sits at `from * nodes + to`; a send locks only
    /// its own.
    links: Vec<Mutex<OutLink>>,
    conns: Mutex<HashMap<u64, Conn>>,
    next_conn: AtomicU64,
    /// The write end of each node's wake socket.
    wakers: Vec<UnixStream>,
    /// The poller threads of [`Fabric::start`]; none on a fleet.
    threads: Mutex<Vec<JoinHandle<()>>>,
    max_frame: usize,
    secret: u64,
}

impl<M> std::fmt::Debug for Fabric<M>
where
    M: WireMechanism<StampedValue>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("nodes", &self.addrs.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<M: WireMechanism<StampedValue>> Fabric<M> {
    /// The listen address of node `i` (loopback, ephemeral port).
    pub fn addr(&self, i: usize) -> SocketAddr {
        self.addrs[i]
    }

    /// Snapshot of the byte/frame ledger.
    pub fn stats(&self) -> FabricStats {
        let c = &self.counters;
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        FabricStats {
            enqueued_frames: ld(&c.enqueued_frames),
            enqueued_bytes: ld(&c.enqueued_bytes),
            written_frames: ld(&c.written_frames),
            written_bytes: ld(&c.written_bytes),
            writes: ld(&c.writes),
            dropped_frames: ld(&c.dropped_frames),
            dropped_bytes: ld(&c.dropped_bytes),
            io_lost_frames: ld(&c.io_lost_frames),
            hello_bytes: ld(&c.hello_bytes),
            connects: ld(&c.connects),
            reconnects: ld(&c.reconnects),
            recv_frames: ld(&c.recv_frames),
            recv_bytes: ld(&c.recv_bytes),
            frame_errors: ld(&c.frame_errors),
            decode_errors: ld(&c.decode_errors),
            hello_rejects: ld(&c.hello_rejects),
            inbox_drops: ld(&c.inbox_drops),
        }
    }

    /// Binds one loopback listener per node, starts one poller thread
    /// per node to feed its inbox, and returns the shared fabric.
    /// `inboxes[i]` receives decoded messages addressed to node `i`;
    /// `rng_root` seeds the per-link backoff jitter streams; `secret`
    /// keys the hello challenge every inbound connection must pass.
    /// `_queue_capacity` is ignored (no queue exists); it stays until the
    /// repo benchmark can drop it.
    #[allow(clippy::too_many_arguments)] // the benchmark's construction site
    pub fn start(
        mech: M,
        nodes: usize,
        inboxes: Vec<SyncSender<Packet<M>>>,
        progress: Arc<Progress>,
        shutdown: Arc<AtomicBool>,
        rng_root: SimRng,
        _queue_capacity: usize,
        max_frame: usize,
        secret: u64,
    ) -> io::Result<Arc<Self>>
    where
        M: Send + Sync + 'static,
    {
        assert_eq!(inboxes.len(), nodes, "one inbox per node");
        let wiring = Wiring {
            inboxes,
            progress,
            shutdown,
        };
        let (fabric, inlets) = Self::bind(mech, wiring, rng_root, max_frame, secret)?;
        let mut threads = fabric.threads.lock().expect("threads lock");
        for inlet in inlets {
            let mut poller = Poller::new(vec![inlet])?;
            let f = Arc::clone(&fabric);
            threads.push(thread::spawn(move || {
                while !f.shutdown.load(Ordering::Relaxed) {
                    poller.round(&f, None, None);
                }
            }));
        }
        drop(threads);
        Ok(fabric)
    }

    /// Binds one loopback listener and one wake socket per node of
    /// `wiring` and returns the fabric with each node's [`Inlet`], for
    /// the caller to host in a [`Poller`]; starts nothing.
    pub(crate) fn bind(
        mech: M,
        wiring: Wiring<M>,
        rng_root: SimRng,
        max_frame: usize,
        secret: u64,
    ) -> io::Result<(Arc<Self>, Vec<Inlet>)> {
        let nodes = wiring.inboxes.len();
        let mut inlets = Vec::with_capacity(nodes);
        let mut addrs = Vec::with_capacity(nodes);
        let mut wakers = Vec::with_capacity(nodes);
        for node in 0..nodes {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            listener.set_nonblocking(true)?;
            addrs.push(listener.local_addr()?);
            let (waker, wake) = UnixStream::pair()?;
            waker.set_nonblocking(true)?;
            wake.set_nonblocking(true)?;
            wakers.push(waker);
            inlets.push(Inlet {
                node,
                listener,
                wake,
            });
        }
        let now = Instant::now();
        let links = (0..nodes * nodes)
            .map(|i| {
                Mutex::new(OutLink {
                    conn: None,
                    next_dial: now,
                    backoff_ms: BACKOFF_BASE_MS,
                    connected_before: false,
                    rng: rng_root.fork_indexed("link", i as u64),
                })
            })
            .collect();
        let fabric = Arc::new(Fabric {
            mech,
            addrs,
            inboxes: wiring.inboxes,
            progress: wiring.progress,
            shutdown: wiring.shutdown,
            counters: Counters::default(),
            links,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            wakers,
            threads: Mutex::new(Vec::new()),
            max_frame,
            secret,
        });
        Ok((fabric, inlets))
    }

    /// Frames an encoded message body and writes it to the `from → to`
    /// connection on the calling thread, dialing first if the link is
    /// down and its backoff has passed. A link that may not dial yet, or
    /// a fabric shutting down, drops the frame — wire loss, charged as
    /// `dropped`; a write the socket refuses is `io_lost` and closes the
    /// connection.
    pub fn send_bytes(&self, from: usize, to: usize, body: Vec<u8>) {
        self.send(from, to, &frame::frame_bytes(&body), 1, None);
    }

    /// [`send_bytes`](Self::send_bytes) for `frames` whole frames laid
    /// back to back in `framed`, in one write, from the thread that
    /// hosts `poller`, which it services while a full socket buffer
    /// holds the write up. The ledger counts them frame by frame, as if
    /// each had been sent alone, and the write once.
    pub(crate) fn send(
        &self,
        from: usize,
        to: usize,
        framed: &[u8],
        frames: u64,
        mut poller: Option<&mut Poller>,
    ) {
        let bytes = framed.len() as u64;
        let c = &self.counters;
        let mut link = self.links[from * self.addrs.len() + to]
            .lock()
            .expect("link lock");
        if self.shutdown.load(Ordering::Relaxed)
            || (link.conn.is_none() && !self.dial(from, to, &mut link, poller.as_deref_mut()))
        {
            c.dropped_frames.fetch_add(frames, Ordering::Relaxed);
            c.dropped_bytes.fetch_add(bytes, Ordering::Relaxed);
            return;
        }
        c.enqueued_frames.fetch_add(frames, Ordering::Relaxed);
        c.enqueued_bytes.fetch_add(bytes, Ordering::Relaxed);
        let (token, stream) = link.conn.as_mut().expect("live or just dialed");
        if self.write_all(stream, framed, poller).is_ok() {
            c.written_frames.fetch_add(frames, Ordering::Relaxed);
            c.written_bytes.fetch_add(bytes, Ordering::Relaxed);
            c.writes.fetch_add(1, Ordering::Relaxed);
        } else {
            c.io_lost_frames.fetch_add(frames, Ordering::Relaxed);
            self.unregister_conn(*token);
            link.conn = None;
        }
    }

    /// Writes `bytes` in full to a non-blocking `stream`. While the
    /// socket has no room it waits for some — running rounds of
    /// `poller`, when the caller hosts one, so what its own nodes are
    /// sent meanwhile keeps moving — and gives up once the fabric shuts
    /// down.
    fn write_all(
        &self,
        stream: &mut TcpStream,
        mut bytes: &[u8],
        mut poller: Option<&mut Poller>,
    ) -> io::Result<()> {
        while !bytes.is_empty() {
            match stream.write(bytes) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == ErrorKind::WouldBlock
                        && !self.shutdown.load(Ordering::Relaxed) =>
                {
                    let Some(p) = poller.as_deref_mut() else {
                        // Nothing of the caller's to keep moving, and the
                        // far end's poller always drains: block.
                        stream.set_nonblocking(false)?;
                        let written = stream.write_all(bytes);
                        stream.set_nonblocking(true)?;
                        return written;
                    };
                    p.round(self, Some(WRITE_WAIT), Some(&*stream));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Dials `from → to` and sends the hello — id plus keyed tag, so the
    /// poller can attribute and *authenticate* every later frame —
    /// unless the link is inside its backoff. A failure pushes the next
    /// attempt out by the backoff plus jitter and doubles the backoff.
    /// Returns whether `link.conn` is now live.
    fn dial(
        &self,
        from: usize,
        to: usize,
        link: &mut OutLink,
        poller: Option<&mut Poller>,
    ) -> bool {
        let now = Instant::now();
        if now < link.next_dial {
            return false;
        }
        let hello = frame::frame_bytes(&hello_body(from as u32, self.secret));
        let dialed = TcpStream::connect(self.addrs[to]).and_then(|mut stream| {
            let _ = stream.set_nodelay(true);
            stream.set_nonblocking(true)?;
            self.write_all(&mut stream, &hello, poller).map(|()| stream)
        });
        let Ok(stream) = dialed else {
            let jitter = link.rng.range_u64(0, link.backoff_ms + 1);
            link.next_dial = now + StdDuration::from_millis(link.backoff_ms + jitter);
            link.backoff_ms = (link.backoff_ms * 2).min(BACKOFF_CAP_MS);
            return false;
        };
        let c = &self.counters;
        c.hello_bytes
            .fetch_add((HEADER_BYTES + HELLO_LEN) as u64, Ordering::Relaxed);
        c.connects.fetch_add(1, Ordering::Relaxed);
        if link.connected_before {
            c.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        link.connected_before = true;
        link.backoff_ms = BACKOFF_BASE_MS;
        link.conn = Some((self.register_conn((from, to), &stream), stream));
        true
    }

    /// Makes node `node`'s poller return from its wait, for a packet put
    /// into that node's inbox from outside the thread that hosts it.
    pub(crate) fn wake(&self, node: usize) {
        // A full wake socket already holds a wake-up.
        let _ = (&self.wakers[node]).write(&[1]);
    }

    /// Severs every live connection touching `node`, both directions:
    /// its poller sees a torn stream and drops it, a dialing link's next
    /// write fails and the send after it redials. Returns how many it
    /// killed.
    pub fn kill_node_connections(&self, node: usize) -> usize {
        let conns = self.conns.lock().expect("conns lock");
        let mut killed = 0;
        for c in conns.values() {
            if c.nodes.0 == node || c.nodes.1 == node {
                let _ = c.stream.shutdown(Shutdown::Both);
                killed += 1;
            }
        }
        killed
    }

    /// Tears the fabric down: requires the shared shutdown flag to be
    /// set, severs every connection, wakes every poller and joins the
    /// poller threads [`start`](Self::start) spawned.
    pub fn stop(&self) {
        assert!(
            self.shutdown.load(Ordering::Relaxed),
            "set the shared shutdown flag before Fabric::stop"
        );
        for node in 0..self.addrs.len() {
            self.kill_node_connections(node);
            self.wake(node);
        }
        let threads = std::mem::take(&mut *self.threads.lock().expect("threads lock"));
        for h in threads {
            let _ = h.join();
        }
    }

    fn register_conn(&self, nodes: (usize, usize), stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let token = self.next_conn.fetch_add(1, Ordering::Relaxed);
        self.conns.lock().expect("conns lock").insert(
            token,
            Conn {
                nodes,
                stream: clone,
            },
        );
        Some(token)
    }

    fn unregister_conn(&self, token: Option<u64>) {
        if let Some(t) = token {
            self.conns.lock().expect("conns lock").remove(&t);
        }
    }

    /// Verifies an inbound hello body: well-formed, in-range node id,
    /// and a challenge tag matching the cluster secret (compared in
    /// constant time). Returns the authenticated dialer index.
    fn verify_hello(&self, body: &[u8]) -> Option<usize> {
        if body.len() != HELLO_LEN {
            return None;
        }
        let id = u32::from_le_bytes(body[..4].try_into().expect("4 bytes"));
        let tag = u64::from_le_bytes(body[4..].try_into().expect("8 bytes"));
        if (id as usize) < self.addrs.len() && tags_match(tag, hello_tag(id, self.secret)) {
            Some(id as usize)
        } else {
            None
        }
    }

    /// Reads what one accepted connection holds — to its end, when the
    /// peer `hung_up` — and hands its complete frames on: an
    /// authenticated hello first, then message bodies. Returns whether
    /// the connection stays open. A bad hello — like any frame or decode
    /// error — is terminal for the connection: no retry negotiation, the
    /// socket is shut down and the (legitimate) dialer's next send owns
    /// recovery.
    fn serve(&self, c: &mut Inbound, hung_up: bool) -> bool {
        let outcome = loop {
            match c.parser.read_from(&mut c.stream) {
                // Closed: at a frame boundary (e.g. before introducing
                // itself) that is no error; inside a frame it is a tear.
                Ok(0) => break c.parser.finish().map(|()| false),
                Ok(_) => {
                    // Readiness is edge-triggered: a read that filled
                    // the buffer may have left bytes, and a hang-up its
                    // end, that nobody will be told about again.
                    let more = hung_up || c.parser.is_full();
                    match self.take_frames(c) {
                        Ok(true) if more => {}
                        done => break done,
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(true),
                Err(e) => break Err(FrameError::Io(e)),
            }
        };
        match outcome {
            Ok(true) => return true,
            Ok(false) => {}
            // A frame-layer failure: before the hello it is a reject.
            Err(_) => {
                let counter = match c.from {
                    Some(_) => &self.counters.frame_errors,
                    None => &self.counters.hello_rejects,
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _ = c.stream.shutdown(Shutdown::Both);
        if let Some((_, token)) = c.from {
            self.unregister_conn(token);
        }
        false
    }

    /// Hands on every complete frame `c`'s parser holds. `Ok(false)`
    /// closes the connection: a rejected hello, an undecodable body, or
    /// a run that is over.
    fn take_frames(&self, c: &mut Inbound) -> Result<bool, FrameError> {
        let counters = &self.counters;
        while let Some(body) = c.parser.next_frame(self.max_frame)? {
            // The hello attributes the connection to its dialer.
            let Some((from, _)) = c.from else {
                let Some(from) = self.verify_hello(body) else {
                    counters.hello_rejects.fetch_add(1, Ordering::Relaxed);
                    return Ok(false);
                };
                c.from = Some((from, self.register_conn((from, c.to), &c.stream)));
                continue;
            };
            counters.recv_frames.fetch_add(1, Ordering::Relaxed);
            counters
                .recv_bytes
                .fetch_add((body.len() + HEADER_BYTES) as u64, Ordering::Relaxed);
            let Ok(msg) = Msg::<M>::decode_transport(&self.mech, body) else {
                // Undecodable body: the stream can no longer be trusted.
                counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                return Ok(false);
            };
            let pkt = Packet {
                from: NodeId(from as u32),
                to: NodeId(c.to as u32),
                msg,
            };
            if !deliver(&self.inboxes, &self.progress, pkt.to, pkt) {
                // The run is over and the worker gone: nobody is left
                // to read for.
                if self.shutdown.load(Ordering::Relaxed) {
                    return Ok(false);
                }
                // Wire loss at the inbox, same as the threaded
                // runtime's bounded inboxes.
                counters.inbox_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvv::mechanisms::DvvMechanism;
    use std::sync::mpsc::{sync_channel, Receiver};

    /// A two-node fabric with no thread of its own, and what a host of
    /// its nodes would hold.
    struct Unhosted {
        fabric: Arc<Fabric<DvvMechanism>>,
        pollers: Vec<Poller>,
        inboxes: Vec<Receiver<Packet<DvvMechanism>>>,
        shutdown: Arc<AtomicBool>,
    }

    fn unhosted(capacity: usize) -> Unhosted {
        let shutdown = Arc::new(AtomicBool::new(false));
        let (senders, inboxes) = (0..2).map(|_| sync_channel(capacity)).unzip();
        let wiring = Wiring {
            inboxes: senders,
            progress: Arc::new(Progress::new(2)),
            shutdown: Arc::clone(&shutdown),
        };
        let (fabric, inlets) =
            Fabric::bind(DvvMechanism, wiring, SimRng::new(7), 1 << 20, 1).expect("bind");
        let pollers = inlets
            .into_iter()
            .map(|inlet| Poller::new(vec![inlet]).expect("epoll"))
            .collect();
        Unhosted {
            fabric,
            pollers,
            inboxes,
            shutdown,
        }
    }

    /// A peer that refuses connections costs its callers one `connect`
    /// per backoff window and never a sleep; every frame meanwhile is
    /// `dropped`, so the charge identity still balances.
    #[test]
    fn dead_peer_drops_without_dialing_inside_the_backoff() {
        let Unhosted {
            fabric, pollers, ..
        } = unhosted(1);
        // Bound and dropped: nobody listens on either address any more.
        drop(pollers);

        let body = vec![0xAB; 10];
        let link = || fabric.links[1].lock().expect("link lock");
        fabric.send_bytes(0, 1, body.clone());
        assert_eq!(link().backoff_ms, 2, "one refused connect, backoff doubled");

        // Hold the window open: a dial inside it would re-arm the
        // deadline, a sleep per send would take 10 s.
        let far = Instant::now() + StdDuration::from_secs(3600);
        link().next_dial = far;
        let t0 = Instant::now();
        for _ in 0..10_000 {
            fabric.send_bytes(0, 1, body.clone());
        }
        assert!(t0.elapsed() < StdDuration::from_secs(5), "sender slept");
        assert_eq!(link().next_dial, far, "dialed inside the backoff window");

        // The deadline passing is all it takes to try again.
        link().next_dial = Instant::now();
        fabric.send_bytes(0, 1, body.clone());
        assert_eq!(link().backoff_ms, 4);

        let want = FabricStats {
            dropped_frames: 10_002,
            dropped_bytes: 10_002 * (body.len() + HEADER_BYTES) as u64,
            ..FabricStats::default()
        };
        assert_eq!(fabric.stats(), want, "every frame dropped, nothing else");
    }

    /// What the kernel holds when a zero-wait round starts is in the
    /// inbox when it ends — every frame its connections have received —
    /// which is what lets a worker put queued frames ahead of a due
    /// timer.
    #[test]
    fn frames_in_the_kernel_before_a_zero_wait_pull_are_in_the_inbox_after_it() {
        let Unhosted {
            fabric,
            mut pollers,
            inboxes: receivers,
            shutdown,
        } = unhosted(64);
        let ack = |req| Msg::<DvvMechanism>::RepPutAck { req }.encode_transport(&DvvMechanism);
        let reqs = |rx: &Receiver<Packet<DvvMechanism>>| -> Vec<u64> {
            rx.try_iter()
                .map(|p| match p.msg {
                    Msg::RepPutAck { req } => req,
                    other => panic!("unexpected {other:?}"),
                })
                .collect()
        };
        let deadline = Instant::now() + StdDuration::from_secs(10);
        // Dial, and take the connection and its first frame in.
        fabric.send_bytes(0, 1, ack(0));
        let mut first = Vec::new();
        while first.is_empty() {
            assert!(Instant::now() < deadline, "the first frame never came");
            pollers[1].round(&fabric, Some(StdDuration::from_millis(1)), None);
            first = reqs(&receivers[1]);
        }
        assert_eq!(first, [0]);

        for round in 1..4 {
            let sent: Vec<u64> = (round * 100..round * 100 + 20).collect();
            let mut bytes = 0;
            for req in &sent {
                let body = ack(*req);
                bytes += HEADER_BYTES + body.len();
                fabric.send_bytes(0, 1, body);
            }
            // Written is not yet received: wait until the receiving
            // socket holds every byte, without taking any.
            let mut peeked = vec![0; 2 * bytes];
            while pollers[1].conns[0].stream.peek(&mut peeked).unwrap() < bytes {
                assert!(Instant::now() < deadline, "round {round} never arrived");
                thread::yield_now();
            }
            pollers[1].round(&fabric, Some(StdDuration::ZERO), None);
            assert_eq!(reqs(&receivers[1]), sent, "round {round}");
        }
        assert_eq!(fabric.stats().connects, 1);
        shutdown.store(true, Ordering::Relaxed);
        fabric.stop();
    }

    /// A peer whose last frames and hang-up arrive together — one
    /// readiness edge for both — is read to its end in that round: its
    /// frames delivered, its torn tail counted, the connection dropped.
    #[test]
    fn a_hang_up_behind_the_last_frames_is_read_in_the_same_round() {
        let Unhosted {
            fabric,
            mut pollers,
            inboxes: receivers,
            ..
        } = unhosted(64);
        let deadline = Instant::now() + StdDuration::from_secs(10);
        let mut peer = TcpStream::connect(fabric.addr(1)).expect("dial");
        frame::write_frame(&mut peer, &hello_body(0, 1)).expect("hello");
        while pollers[1].conns.is_empty() {
            assert!(Instant::now() < deadline, "never accepted");
            pollers[1].round(&fabric, Some(StdDuration::from_millis(1)), None);
        }

        let mut bytes = Vec::new();
        for req in 0..3 {
            let body = Msg::<DvvMechanism>::RepPutAck { req }.encode_transport(&DvvMechanism);
            frame::write_frame(&mut bytes, &body).expect("to memory");
        }
        peer.write_all(&bytes).expect("three frames");
        peer.write_all(&[9, 0, 0, 0]).expect("half a header");
        peer.shutdown(Shutdown::Write).expect("hang up");
        let mut peeked = vec![0; 2 * bytes.len()];
        while pollers[1].conns[0].stream.peek(&mut peeked).unwrap() < bytes.len() + 4 {
            assert!(Instant::now() < deadline, "the frames never arrived");
            thread::yield_now();
        }

        pollers[1].round(&fabric, Some(StdDuration::ZERO), None);
        assert_eq!(receivers[1].try_iter().count(), 3);
        assert_eq!(fabric.stats().frame_errors, 1, "{:#?}", fabric.stats());
        assert!(pollers[1].conns.is_empty(), "the connection was kept");
    }
}
