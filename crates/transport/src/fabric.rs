//! The socket fabric: listeners, reconnecting per-peer links, and the
//! fleet-wide byte ledger.
//!
//! Every node owns a loopback TCP listener; messages between distinct
//! nodes travel as [`frame`]-encoded
//! `Msg::encode_transport` bodies over per-`(sender, receiver)`
//! connections dialed lazily on first send.
//!
//! **Outbound there is no thread and no queue.**
//! [`send_bytes`](Fabric::send_bytes) writes the frame on the thread
//! that called it, under that link's own lock. A link without a
//! connection dials on the same thread and introduces itself with an
//! *authenticated* hello frame — its node id plus a keyed FNV-1a tag
//! over the fleet's shared cluster secret ([`hello_body`]). A failed
//! dial arms a jittered, doubling backoff as a *deadline*: until it
//! passes, sends on that link are dropped without touching the network,
//! so a dead peer costs its callers a clock read, never a sleep. A
//! failed write loses that frame and closes the connection; the next
//! send redials. Both are wire loss the protocol's retries and
//! anti-entropy absorb. A sender may wait on the kernel (a full socket
//! buffer) but never on the destination *node*: the reader at the far
//! end [`deliver`]s into the node's inbox, which drops on full — wire
//! loss again, the in-process link's own rule — so it always drains the
//! socket. Lock order is link → `conns`; nothing takes them the other
//! way round.
//!
//! Inbound, an accept thread per listener spawns a reader per
//! connection. A reader knows both ends of what it reads — the node it
//! accepted for and the dialer its hello named — so what it puts in the
//! inbox is a complete [`Packet`], the same item every link delivers.
//! The reader verifies the hello tag in constant time and terminally
//! rejects the connection on any mismatch, so a stray process dialing a
//! listener's port cannot inject frames attributed to a cluster member.
//! A malformed frame (torn, oversized, bad checksum)
//! or an undecodable body kills that connection — a stream decoder
//! cannot resync after corruption — and the dialer's next send takes it
//! from there.
//!
//! The fabric keeps an atomic ledger of every byte it handles, split by
//! fate (written / dropped / lost / self-delivered / hello), so the
//! conformance suite can assert *charge parity*: the bytes the nodes'
//! wire ledgers charged equal the bytes the fabric accepted, to the
//! byte — the accounting the simulator models is the accounting the
//! socket driver measures.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration as StdDuration, Instant};

use dvv::mechanisms::WireMechanism;
use kvstore::messages::Msg;
use kvstore::value::StampedValue;
use runtime::link::deliver;
use runtime::{Packet, Progress};
use simnet::{NodeId, SimRng};
use storage::fnv1a64;

use crate::frame::{self, HEADER_BYTES};

/// Initial reconnect backoff.
const BACKOFF_BASE_MS: u64 = 1;
/// Backoff cap (before jitter).
const BACKOFF_CAP_MS: u64 = 128;

/// A reader's buffer in front of its socket.
const READ_BUFFER: usize = 64 << 10;

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
/// Invariants (asserted by the conformance suite): every byte a node's
/// `ctx.send` charged is accounted exactly once as `enqueued`,
/// `dropped` or `self_delivered`, so `enqueued_bytes + dropped_bytes +
/// self_bytes` equals the fleet's summed wire ledgers; and a frame
/// handed to a connection is written or lost before `send_bytes`
/// returns, so at rest `enqueued == written + io_lost` in frames.
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
    /// Frames dropped unwritten: link in redial backoff, or shutdown.
    pub dropped_frames: u64,
    /// Bytes dropped unwritten.
    pub dropped_bytes: u64,
    /// Frames lost to a failed socket write.
    pub io_lost_frames: u64,
    /// Self-sends delivered locally, bypassing the sockets.
    pub self_frames: u64,
    /// Bytes (header included) self-delivered locally.
    pub self_bytes: u64,
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
    dropped_frames: AtomicU64,
    dropped_bytes: AtomicU64,
    io_lost_frames: AtomicU64,
    self_frames: AtomicU64,
    self_bytes: AtomicU64,
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
            dropped_frames: ld(&c.dropped_frames),
            dropped_bytes: ld(&c.dropped_bytes),
            io_lost_frames: ld(&c.io_lost_frames),
            self_frames: ld(&c.self_frames),
            self_bytes: ld(&c.self_bytes),
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
}

impl<M> Fabric<M>
where
    M: WireMechanism<StampedValue> + Send + Sync + 'static,
{
    /// Binds one loopback listener per node, spawns the accept threads,
    /// and returns the shared fabric. `inboxes[i]` receives decoded
    /// messages addressed to node `i`; `rng_root` seeds the per-link
    /// backoff jitter streams; `secret` keys the hello challenge every
    /// inbound connection must pass. `_queue_capacity` is ignored (no
    /// queue exists); it stays until the repo benchmark can drop it.
    #[allow(clippy::too_many_arguments)] // the fleet's one construction site
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
    ) -> std::io::Result<Arc<Self>> {
        assert_eq!(inboxes.len(), nodes, "one inbox per node");
        let mut listeners = Vec::with_capacity(nodes);
        let mut addrs = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let l = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(l.local_addr()?);
            listeners.push(l);
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
            inboxes,
            progress,
            shutdown,
            counters: Counters::default(),
            links,
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
            max_frame,
            secret,
        });
        for (node, listener) in listeners.into_iter().enumerate() {
            let f = Arc::clone(&fabric);
            let h = thread::spawn(move || f.accept_loop(node, listener));
            fabric.threads.lock().expect("threads lock").push(h);
        }
        Ok(fabric)
    }

    /// Writes an encoded message body to the `from → to` connection on
    /// the calling thread, dialing first if the link is down and its
    /// backoff has passed. A link that may not dial yet, or a fabric
    /// shutting down, drops the frame — wire loss, charged as `dropped`;
    /// a write the socket refuses is `io_lost` and closes the connection.
    pub fn send_bytes(&self, from: usize, to: usize, body: Vec<u8>) {
        let bytes = (body.len() + HEADER_BYTES) as u64;
        let c = &self.counters;
        let mut link = self.links[from * self.addrs.len() + to]
            .lock()
            .expect("link lock");
        if self.shutdown.load(Ordering::Relaxed)
            || (link.conn.is_none() && !self.dial(from, to, &mut link))
        {
            c.dropped_frames.fetch_add(1, Ordering::Relaxed);
            c.dropped_bytes.fetch_add(bytes, Ordering::Relaxed);
            return;
        }
        c.enqueued_frames.fetch_add(1, Ordering::Relaxed);
        c.enqueued_bytes.fetch_add(bytes, Ordering::Relaxed);
        let (token, stream) = link.conn.as_mut().expect("live or just dialed");
        if frame::write_frame(stream, &body).is_ok() {
            c.written_frames.fetch_add(1, Ordering::Relaxed);
            c.written_bytes.fetch_add(bytes, Ordering::Relaxed);
        } else {
            c.io_lost_frames.fetch_add(1, Ordering::Relaxed);
            self.unregister_conn(*token);
            link.conn = None;
        }
    }

    /// Dials `from → to` and sends the hello — id plus keyed tag, so the
    /// reader can attribute and *authenticate* every later frame —
    /// unless the link is inside its backoff. A failure pushes the next
    /// attempt out by the backoff plus jitter and doubles the backoff.
    /// Returns whether `link.conn` is now live.
    fn dial(&self, from: usize, to: usize, link: &mut OutLink) -> bool {
        let now = Instant::now();
        if now < link.next_dial {
            return false;
        }
        let hello = hello_body(from as u32, self.secret);
        let dialed = TcpStream::connect(self.addrs[to]).and_then(|mut stream| {
            let _ = stream.set_nodelay(true);
            frame::write_frame(&mut stream, &hello).map(|()| stream)
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

    /// Records a self-send delivered locally (self-traffic never
    /// touches a socket, but its charged bytes must still balance the
    /// ledger identity).
    pub fn note_self(&self, wire_bytes: usize) {
        self.counters.self_frames.fetch_add(1, Ordering::Relaxed);
        self.counters
            .self_bytes
            .fetch_add(wire_bytes as u64, Ordering::Relaxed);
    }

    /// Severs every live connection touching `node`, both directions:
    /// readers see a torn stream and exit, a dialing link's next write
    /// fails and the send after it redials. Returns how many it killed.
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
    /// set, severs every connection, unblocks the accept loops and
    /// joins every fabric thread.
    pub fn stop(&self) {
        assert!(
            self.shutdown.load(Ordering::Relaxed),
            "set the shared shutdown flag before Fabric::stop"
        );
        // Sever live connections so blocked readers error out.
        for node in 0..self.addrs.len() {
            self.kill_node_connections(node);
        }
        // Unblock each accept loop with a throwaway connection.
        for addr in &self.addrs {
            let _ = TcpStream::connect(*addr);
        }
        // Threads may still be spawning readers while we join; drain
        // until the registry stays empty.
        loop {
            let handles: Vec<JoinHandle<()>> =
                std::mem::take(&mut *self.threads.lock().expect("threads lock"));
            if handles.is_empty() {
                return;
            }
            for h in handles {
                let _ = h.join();
            }
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

    /// Accepts connections for node `to` until shutdown, spawning one
    /// reader thread per connection.
    fn accept_loop(self: Arc<Self>, to: usize, listener: TcpListener) {
        loop {
            let Ok((stream, _)) = listener.accept() else {
                if self.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            };
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            let f = Arc::clone(&self);
            let h = thread::spawn(move || f.reader_loop(to, stream));
            self.threads.lock().expect("threads lock").push(h);
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

    /// Reads frames off one accepted connection: an authenticated hello
    /// first, then message bodies. A bad hello — like any frame or
    /// decode error — is terminal for the connection: no retry
    /// negotiation, the socket is shut down and the (legitimate)
    /// dialer's next send owns recovery.
    fn reader_loop(&self, to: usize, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        // A frame is three reads (first byte, rest of the header, body):
        // buffered, most of them are copies instead of `recv` calls, and
        // frames that arrived together cost one.
        let mut stream = BufReader::with_capacity(READ_BUFFER, stream);
        // The hello attributes the connection to its dialer.
        let from = match frame::read_frame(&mut stream, self.max_frame) {
            // Closed before introducing itself (e.g. the shutdown
            // path's throwaway wakeup connection): not a reject.
            Ok(None) => return,
            Ok(Some(body)) => match self.verify_hello(&body) {
                Some(id) => id,
                None => {
                    self.counters.hello_rejects.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.get_ref().shutdown(Shutdown::Both);
                    return;
                }
            },
            Err(_) => {
                self.counters.hello_rejects.fetch_add(1, Ordering::Relaxed);
                let _ = stream.get_ref().shutdown(Shutdown::Both);
                return;
            }
        };
        let token = self.register_conn((from, to), stream.get_ref());
        loop {
            match frame::read_frame(&mut stream, self.max_frame) {
                Ok(Some(body)) => {
                    self.counters.recv_frames.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .recv_bytes
                        .fetch_add((body.len() + HEADER_BYTES) as u64, Ordering::Relaxed);
                    match Msg::<M>::decode_transport(&self.mech, &body) {
                        Ok(msg) => {
                            let pkt = Packet {
                                from: NodeId(from as u32),
                                to: NodeId(to as u32),
                                msg,
                            };
                            if !deliver(&self.inboxes, &self.progress, pkt.to, pkt) {
                                // The run is over and the worker gone:
                                // nobody is left to read for.
                                if self.shutdown.load(Ordering::Relaxed) {
                                    break;
                                }
                                // Wire loss at the inbox, same as the
                                // threaded runtime's bounded inboxes.
                                self.counters.inbox_drops.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            // Undecodable body: the stream can no longer
                            // be trusted. Drop the connection.
                            self.counters.decode_errors.fetch_add(1, Ordering::Relaxed);
                            let _ = stream.get_ref().shutdown(Shutdown::Both);
                            break;
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.counters.frame_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.get_ref().shutdown(Shutdown::Both);
                    break;
                }
            }
        }
        self.unregister_conn(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvv::mechanisms::DvvMechanism;

    /// A peer that refuses connections costs its callers one `connect`
    /// per backoff window and never a sleep; every frame meanwhile is
    /// `dropped`, so the charge identity still balances.
    #[test]
    fn dead_peer_drops_without_dialing_inside_the_backoff() {
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, _rx) = std::sync::mpsc::sync_channel(1);
        let fabric = Fabric::start(
            DvvMechanism,
            2,
            vec![tx.clone(), tx],
            Arc::new(Progress::new(2)),
            Arc::clone(&shutdown),
            SimRng::new(7),
            0,
            1 << 20,
            1,
        )
        .expect("bind loopback listeners");
        // Bound and dropped: the accept loops own the listeners, so once
        // `stop` has joined them both addresses refuse connections.
        shutdown.store(true, Ordering::Relaxed);
        fabric.stop();
        shutdown.store(false, Ordering::Relaxed);

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
}
