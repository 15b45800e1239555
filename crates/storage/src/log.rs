//! [`LogEngine`]: an append-only, checksummed, compacting record log.
//!
//! The file format is written up for readers who will not use this
//! crate in `doc/log_format.md` (a hand-decoded file included), pinned
//! by `tests/log_golden.rs`.
//!
//! ## On-disk format
//!
//! The log is a flat sequence of records, each framed as
//!
//! ```text
//! varint(body_len) · body · u64le(fnv1a64(body))
//! ```
//!
//! with the body itself
//!
//! ```text
//! tag(1 byte: 1=put, 2=remove, 3=clear) · varint(key_len) · key · state
//! ```
//!
//! where `state` (puts only) is the per-key state in the crate-standard
//! [`dvv::encode`] format. A fourth record kind carries the dot-mint
//! reservation (tag 4: `varint(epoch) · varint(ceiling)`, no key);
//! replay folds the component-wise maximum over every meta record seen,
//! so the recovered reservation is monotone in what was durably stored. Varint framing and the trailing checksum make
//! a torn final record — the expected artefact of dying mid-append —
//! self-announcing: replay stops at the first frame that is short,
//! fails its checksum, or fails to decode, and truncates the file back
//! to the last intact record. Nothing before a torn tail is ever lost;
//! nothing after it is ever trusted.
//!
//! ## Durability interval
//!
//! Appends buffer in user space. Every [`LogConfig::sync_every_records`]
//! records or [`LogConfig::sync_every_bytes`] bytes, whichever comes
//! first, the buffer is handed as one *group* to the log's writer thread,
//! which writes it and `sync_data`s it while the appender goes on filling
//! the next group. After [`LogEngine::open`] the writer is the only thread
//! that touches the file: the first hand-off spawns it and moves the file
//! to it. At most one job is in flight: an appender whose next group is
//! due before the last job is done waits for it. So a crash of the process
//! loses the unsent tail plus at most the one group in flight — at most
//! two groups — which is exactly the durability / throughput trade the
//! knob expresses. Replication is the recovery story for that tail: the
//! protocol layer re-fetches it from peers via rejoin + anti-entropy.
//!
//! Every call that needs the file to be current waits for the writer
//! first: [`StorageEngine::store_reservation`] (its record is durable
//! before it returns), [`StorageEngine::sync`],
//! [`LogEngine::durable_bytes`] and `Drop`, which closes the job channel
//! and joins the writer once its job is done — so dropping an engine (a
//! node's kill) leaves the file holding every job handed off, and no
//! buffered tail. A writer I/O error is not swallowed: the writer stops,
//! and the next call that appends or waits panics with it.
//!
//! ## Compaction
//!
//! Each key's slot in the working set carries the framed length of its
//! latest record, and `live_bytes` (their sum) moves as records are
//! appended. Garbage is judged only right after a group hand-off, when
//! nothing is pending: then `live_bytes` is the latest-per-key records of
//! the file as the writer will leave it, and `durable_bytes − live_bytes`
//! (the rest of it) is garbage, exactly. When the file exceeds
//! [`LogConfig::compact_min_bytes`] and the garbage fraction exceeds
//! [`LogConfig::COMPACT_GARBAGE_RATIO`], the engine hands the writer the
//! reservation and every live key's put as its next job, a *rewrite*: the
//! writer writes them to `<log>.compact`, syncs it, atomically renames it
//! over the log and appends later groups to it — rewriting the live set,
//! truncating the dead tail. A file's *name* is directory data: the
//! writer syncs the directory after that rename, and — for a log `open`
//! created — after its first group's data, before any record in it counts
//! as durable, so a crash cannot lose either name. `open` never reads a
//! `<log>.compact` that a crash mid-rewrite left; the next rewrite
//! truncates it.

use std::cell::Cell;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::mem;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError};
use std::thread::{self, JoinHandle};

use dvv::encode::{put_varint, Decoder, Encode};

use crate::slots::Slots;
use crate::{fnv1a64, Key, MemEngine, StorageEngine};

const TAG_PUT: u8 = 1;
const TAG_REMOVE: u8 = 2;
const TAG_CLEAR: u8 = 3;
const TAG_META: u8 = 4;

/// Durability and compaction knobs for a [`LogEngine`].
///
/// **Group cadence.** A group of records goes to the log's writer thread
/// when it reaches either bound; the appender does not wait for the
/// `fsync` unless the group before it is still in flight. A crash of the
/// process loses the records not yet handed off plus at most the one
/// group in flight (see the module docs for which calls wait).
///
/// **Reservation fsync cadence.** Dot-mint reservations
/// ([`StorageEngine::store_reservation`]) deliberately ignore the
/// group-sync interval: each one is durable before the call returns
/// (flushing any buffered data records with it), because the caller is
/// about to mint dots up to the new ceiling and let them escape to
/// peers — a reservation lost to a crash would defeat the epoch guard
/// entirely. The store amortises that cost by reserving counter *headroom*
/// (`kvstore::node::DOT_HEADROOM` upstream), so one reservation fsync
/// covers many mints and the group-sync write path stays within a few
/// percent of its unguarded cost (the repo benchmark reports it as
/// `storage.reserve_us` and `storage.reserve_calls` on `durable_rmw`).
#[derive(Clone, Copy, Debug)]
pub struct LogConfig {
    /// Hand a group to the writer after this many buffered records
    /// (1 = write-through: every append is handed off at once, and the
    /// next one waits until it is durable).
    pub sync_every_records: usize,
    /// ... or after this many buffered bytes, whichever comes first.
    pub sync_every_bytes: usize,
    /// Never compact while the file is smaller than this.
    pub compact_min_bytes: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            sync_every_records: 64,
            sync_every_bytes: 64 * 1024,
            compact_min_bytes: 256 * 1024,
        }
    }
}

impl LogConfig {
    /// Compact when `(durable - live) / durable` exceeds this fraction
    /// (and the file is at least [`LogConfig::compact_min_bytes`] long).
    pub const COMPACT_GARBAGE_RATIO: f64 = 0.5;

    /// Write-through configuration: every record is handed to the
    /// writer as it is appended, and the next append waits until it is
    /// durable. The strongest durability the engine offers — a crash of
    /// the process loses at most the one record in flight, and dropping
    /// the engine loses nothing.
    #[must_use]
    pub fn write_through() -> Self {
        LogConfig {
            sync_every_records: 1,
            ..LogConfig::default()
        }
    }
}

/// Counters a [`LogEngine`] keeps about its own behaviour.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogStats {
    /// Records appended (buffered) since open.
    pub appends: u64,
    /// Groups handed to the writer to write and sync.
    pub syncs: u64,
    /// Rewrites handed to the writer.
    pub compactions: u64,
    /// Valid records replayed at open.
    pub replayed_records: u64,
    /// Bytes discarded at open as a torn/corrupt tail.
    pub torn_tail_bytes: u64,
}

/// One live key: its current state and the framed length of its latest
/// put record, buffered or durable.
struct Slot<S> {
    state: S,
    len: u64,
}

/// Typed record codec: monomorphised `dvv::encode` entry points, taken
/// as plain function pointers so the engine itself stays non-generic
/// over the `Encode` bound (only [`LogEngine::open`] requires it).
struct Codec<S> {
    enc: fn(&S, &mut Vec<u8>),
    dec: fn(&[u8]) -> Option<S>,
}

impl<S> Clone for Codec<S> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<S> Copy for Codec<S> {}

fn enc_state<S: Encode>(s: &S, buf: &mut Vec<u8>) {
    s.encode(buf);
}

fn dec_state<S: Encode>(bytes: &[u8]) -> Option<S> {
    dvv::encode::from_bytes(bytes).ok()
}

/// Makes a new name for `path` durable: a created or renamed file's
/// directory entry is only on disk once its directory is synced.
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// What the writer owns. The first hand-off moves it to the writer
/// thread, and from then on no other thread touches the file.
struct LogFile {
    file: File,
    path: PathBuf,
    /// Whether the file's name is durable in its directory. `open` that
    /// creates the file leaves it `false`; the first append syncs the
    /// directory after its data, before any record counts as durable.
    name_durable: bool,
}

/// One job for the writer.
enum Job {
    /// Append a group and make it durable.
    Append(Vec<u8>),
    /// Replace the log with a file of these bytes: its live set.
    Rewrite(Vec<u8>),
}

/// Names a failed step of the writer's: the message the engine panics with.
fn failed(step: &'static str) -> impl Fn(io::Error) -> String {
    move |e| format!("{step}: {e:?}")
}

impl LogFile {
    fn run(&mut self, job: Job) -> Result<(), String> {
        match job {
            Job::Append(bytes) => {
                self.file
                    .write_all(&bytes)
                    .map_err(failed("log append write"))?;
                self.file.sync_data().map_err(failed("log append sync"))?;
                if !self.name_durable {
                    sync_parent_dir(&self.path).map_err(failed("log directory sync"))?;
                    self.name_durable = true;
                }
                Ok(())
            }
            Job::Rewrite(bytes) => self
                .rewrite(&bytes)
                .map_err(failed("log compaction rewrite")),
        }
    }

    /// Writes `bytes` to `<log>.compact`, syncs it, renames it over the
    /// log and syncs the directory, so a crash at any point leaves one
    /// complete file under the log's name. Later appends go to the new
    /// file.
    fn rewrite(&mut self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path.with_extension("compact");
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        sync_parent_dir(&self.path)?;
        self.file = file;
        Ok(())
    }
}

/// The engine's end of its writer thread, which runs one job at a time
/// and answers each with its result.
struct Writer {
    jobs: SyncSender<Job>,
    done: Receiver<Result<(), String>>,
    /// From a hand-off until its result is taken from `done`.
    in_flight: Cell<bool>,
    thread: JoinHandle<()>,
}

impl Writer {
    fn spawn(mut log: LogFile) -> Self {
        let (jobs, inbox) = mpsc::sync_channel::<Job>(1);
        let (results, done) = mpsc::channel();
        let thread = thread::Builder::new()
            .name("log-writer".into())
            .spawn(move || {
                // a closed channel ends the loop; so does the first error,
                // after which nothing more is written
                for job in inbox {
                    let result = log.run(job);
                    let failed = result.is_err();
                    if results.send(result).is_err() || failed {
                        return;
                    }
                }
            })
            .expect("spawn the log writer");
        Writer {
            jobs,
            done,
            in_flight: Cell::new(false),
            thread,
        }
    }

    /// Waits for the job in flight, then hands `job` over.
    fn hand_off(&self, job: Job) {
        self.settle(true);
        self.jobs.send(job).expect("log writer stopped");
        self.in_flight.set(true);
    }

    /// Takes the result of the job in flight, if there is one: waiting
    /// for it if `block`, only looking if not. A failed job panics with
    /// its error, and every later look with "log writer stopped".
    fn settle(&self, block: bool) {
        if !self.in_flight.get() {
            return;
        }
        let result = if block {
            self.done.recv().map_err(|_| TryRecvError::Disconnected)
        } else {
            self.done.try_recv()
        };
        match result {
            Ok(Ok(())) => self.in_flight.set(false),
            Ok(Err(msg)) => panic!("{msg}"),
            Err(TryRecvError::Empty) => {}
            Err(TryRecvError::Disconnected) => panic!("log writer stopped"),
        }
    }

    /// Closes the job channel and joins the thread, which finishes the
    /// job it holds first.
    fn close(self) {
        drop(self.jobs);
        self.thread.join().ok();
    }
}

/// The append-only durable engine. See the module docs for the format
/// and the durability/compaction model.
pub struct LogEngine<S> {
    /// The working set: every live key's current state, always in sync
    /// with the durable log plus the pending buffer.
    map: Slots<Slot<S>>,
    path: PathBuf,
    cfg: LogConfig,
    codec: Codec<S>,
    /// Framed records not yet handed to the writer; lost on crash.
    pending: Vec<u8>,
    /// How many records `pending` holds.
    pending_records: usize,
    /// Bytes in the file once the writer is idle: everything handed off.
    durable_bytes: u64,
    /// Bytes of latest-per-key records, buffered ones included: the
    /// file's live set whenever nothing is pending.
    live_bytes: u64,
    /// Recovered/stored dot-mint reservation `(epoch, ceiling)`.
    reservation: Option<(u64, u64)>,
    stats: LogStats,
    scratch: Vec<u8>,
    /// The file, until the first hand-off moves it to the writer.
    file: Option<LogFile>,
    /// Spawned at the first hand-off; joined when the engine drops.
    writer: Option<Writer>,
}

impl<S> Drop for LogEngine<S> {
    fn drop(&mut self) {
        if let Some(writer) = self.writer.take() {
            writer.close();
        }
    }
}

impl<S> fmt::Debug for LogEngine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogEngine")
            .field("path", &self.path)
            .field("keys", &self.map.len())
            .field("durable_bytes", &self.durable_bytes)
            .field("live_bytes", &self.live_bytes)
            .field("pending_bytes", &self.pending.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// One decoded record from a replay scan.
enum Record<S> {
    Put { key: Key, state: S },
    Remove { key: Key },
    Clear,
    Meta { epoch: u64, ceiling: u64 },
}

/// Parses the record framed at `bytes[at..]`. Returns the record and
/// the offset just past it, or `None` for anything short, corrupt or
/// undecodable — the torn-tail signal.
fn parse_record<S>(
    bytes: &[u8],
    at: usize,
    dec: fn(&[u8]) -> Option<S>,
) -> Option<(Record<S>, usize)> {
    let mut d = Decoder::new(&bytes[at..]);
    let body_len = usize::try_from(d.varint().ok()?).ok()?;
    let frame_at = bytes.len() - d.remaining() - at; // varint width
    let body_start = at + frame_at;
    let body_end = body_start.checked_add(body_len)?;
    let sum_end = body_end.checked_add(8)?;
    if sum_end > bytes.len() {
        return None; // short frame: torn tail
    }
    let body = &bytes[body_start..body_end];
    let sum = u64::from_le_bytes(bytes[body_end..sum_end].try_into().ok()?);
    if fnv1a64(body) != sum {
        return None; // checksum mismatch: corrupt
    }
    let mut b = Decoder::new(body);
    let tag = b.byte().ok()?;
    let record = match tag {
        TAG_CLEAR => {
            if b.remaining() != 0 {
                return None;
            }
            Record::Clear
        }
        TAG_META => {
            let epoch = b.varint().ok()?;
            let ceiling = b.varint().ok()?;
            if b.remaining() != 0 {
                return None;
            }
            Record::Meta { epoch, ceiling }
        }
        TAG_PUT | TAG_REMOVE => {
            let key_len = usize::try_from(b.varint().ok()?).ok()?;
            let key = b.bytes(key_len).ok()?.to_vec();
            if tag == TAG_REMOVE {
                if b.remaining() != 0 {
                    return None;
                }
                Record::Remove { key }
            } else {
                let state = dec(b.bytes(b.remaining()).ok()?)?;
                Record::Put { key, state }
            }
        }
        _ => return None,
    };
    Some((record, sum_end))
}

/// Frames one dot-mint reservation (meta) record onto `out`, returning
/// its framed length. Public so the proptest suite can exercise the
/// reservation codec at record granularity.
pub fn frame_meta(out: &mut Vec<u8>, epoch: u64, ceiling: u64) -> u64 {
    let body_len = 1 + dvv::encode::varint_len(epoch) + dvv::encode::varint_len(ceiling);
    let before = out.len();
    put_varint(out, body_len as u64);
    let body_start = out.len();
    out.push(TAG_META);
    put_varint(out, epoch);
    put_varint(out, ceiling);
    debug_assert_eq!(out.len() - body_start, body_len);
    let sum = fnv1a64(&out[body_start..]);
    out.extend_from_slice(&sum.to_le_bytes());
    (out.len() - before) as u64
}

fn dec_never(_: &[u8]) -> Option<()> {
    None
}

/// Parses the record framed at the start of `bytes` as a reservation
/// record: `Some((epoch, ceiling))` only for a complete, checksummed
/// meta frame — `None` for anything torn, corrupt, or of another kind.
/// The proptest counterpart of [`frame_meta`].
#[must_use]
pub fn parse_meta(bytes: &[u8]) -> Option<(u64, u64)> {
    match parse_record::<()>(bytes, 0, dec_never) {
        Some((Record::Meta { epoch, ceiling }, _)) => Some((epoch, ceiling)),
        _ => None,
    }
}

/// Scans the *full durable history* of the log at `path`: every intact
/// put record's `(key, state)` in append order, including records whose
/// key was later overwritten, removed or cleared — the ones the live
/// replay forgets. Stops at the first torn or corrupt frame, exactly
/// like recovery replay.
///
/// This is the audit surface for oracles over *everything a replica
/// ever durably applied*, not just what it currently holds — the
/// dot-uniqueness census runs over it, because a re-minted dot's first
/// bearer is usually dominated (and gone from the live states) by the
/// time a fleet can be audited.
///
/// # Errors
///
/// Propagates I/O errors from opening or reading the file. A missing
/// file is an empty history.
pub fn scan_history<S: Encode>(path: impl AsRef<Path>) -> io::Result<Vec<(Key, S)>> {
    let bytes = match std::fs::read(path.as_ref()) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut out = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        let Some((record, next)) = parse_record(&bytes, at, dec_state::<S>) else {
            break; // torn/corrupt tail
        };
        if let Record::Put { key, state } = record {
            out.push((key, state));
        }
        at = next;
    }
    Ok(out)
}

/// Frames one record (body per the module docs) onto `out`.
fn frame_record(out: &mut Vec<u8>, tag: u8, key: &[u8], state: Option<&[u8]>) -> u64 {
    let state_len = state.map_or(0, <[u8]>::len);
    let body_len = match tag {
        TAG_CLEAR => 1,
        _ => 1 + dvv::encode::varint_len(key.len() as u64) + key.len() + state_len,
    };
    let before = out.len();
    put_varint(out, body_len as u64);
    let body_start = out.len();
    out.push(tag);
    if tag != TAG_CLEAR {
        put_varint(out, key.len() as u64);
        out.extend_from_slice(key);
        if let Some(state) = state {
            out.extend_from_slice(state);
        }
    }
    debug_assert_eq!(out.len() - body_start, body_len);
    let sum = fnv1a64(&out[body_start..]);
    out.extend_from_slice(&sum.to_le_bytes());
    (out.len() - before) as u64
}

impl<S> LogEngine<S>
where
    S: Clone + Send + 'static,
{
    /// Opens (creating if absent) the log at `path` and replays it into
    /// memory, tolerating a torn or corrupt final record: replay stops
    /// at the first invalid frame and truncates the file back to the
    /// last intact record, so the recovered contents are exactly the
    /// durable prefix.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from opening, reading or truncating the
    /// file. Corruption is *not* an error — it is a torn tail.
    pub fn open(path: impl Into<PathBuf>, cfg: LogConfig) -> io::Result<Self>
    where
        S: Encode,
    {
        let path = path.into();
        let name_durable = path.exists();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let codec = Codec::<S> {
            enc: enc_state::<S>,
            dec: dec_state::<S>,
        };
        let mut map = Slots::default();
        let mut live_bytes = 0u64;
        let mut reservation: Option<(u64, u64)> = None;
        let mut stats = LogStats::default();
        let mut at = 0usize;
        while at < bytes.len() {
            let Some((record, next)) = parse_record(&bytes, at, codec.dec) else {
                break; // torn/corrupt tail — everything from `at` is discarded
            };
            let len = (next - at) as u64;
            match record {
                Record::Put { key, state } => {
                    if let Some(old) = map.insert(key, Slot { state, len }) {
                        live_bytes -= old.len;
                    }
                    live_bytes += len;
                }
                Record::Remove { key } => {
                    if let Some(old) = map.remove(&key) {
                        live_bytes -= old.len;
                    }
                }
                Record::Clear => {
                    live_bytes = 0;
                    map.clear();
                }
                Record::Meta { epoch, ceiling } => {
                    // Component-wise max: the recovered reservation is
                    // monotone in what was durably stored, whatever order
                    // (or duplication) compaction left the records in.
                    let (e0, c0) = reservation.unwrap_or((0, 0));
                    reservation = Some((e0.max(epoch), c0.max(ceiling)));
                }
            }
            stats.replayed_records += 1;
            at = next;
        }
        stats.torn_tail_bytes = (bytes.len() - at) as u64;
        if at < bytes.len() {
            file.set_len(at as u64)?;
        }
        file.seek(SeekFrom::Start(at as u64))?;

        Ok(LogEngine {
            map,
            path: path.clone(),
            cfg,
            codec,
            pending: Vec::new(),
            pending_records: 0,
            durable_bytes: at as u64,
            live_bytes,
            reservation,
            stats,
            scratch: Vec::new(),
            file: Some(LogFile {
                file,
                path,
                name_durable,
            }),
            writer: None,
        })
    }

    /// The log file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Behaviour counters.
    #[must_use]
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// Valid (synced) bytes in the log file. Waits for the group in
    /// flight, so the file is this long when it returns.
    #[must_use]
    pub fn durable_bytes(&self) -> u64 {
        self.wait_for_writer();
        self.durable_bytes
    }

    /// Bytes of latest-per-key records, buffered ones included — the
    /// file's live set whenever [`LogEngine::pending_bytes`] is 0.
    #[must_use]
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Bytes buffered and not yet handed to the writer (lost if the
    /// process dies or the engine drops before the next group).
    #[must_use]
    pub fn pending_bytes(&self) -> usize {
        self.pending.len()
    }

    /// Buffers one framed record and hands the group to the writer if
    /// the durability interval is reached.
    fn push_record(&mut self) {
        if let Some(writer) = &self.writer {
            writer.settle(false);
        }
        self.stats.appends += 1;
        self.pending_records += 1;
        if self.pending_records >= self.cfg.sync_every_records
            || self.pending.len() >= self.cfg.sync_every_bytes
        {
            self.group_sync();
        }
    }

    /// Hands the pending buffer to the writer — once the job before it
    /// is done — then compacts if the garbage threshold is hit.
    fn group_sync(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let next = Vec::with_capacity(self.pending.len());
        let group = mem::replace(&mut self.pending, next);
        self.durable_bytes += group.len() as u64;
        self.hand_off(Job::Append(group));
        self.stats.syncs += 1;
        self.pending_records = 0;
        self.maybe_compact();
    }

    /// Hands `job` to the writer once the job before it is done, the
    /// first time spawning the writer and moving the file to it.
    fn hand_off(&mut self, job: Job) {
        let file = &mut self.file;
        self.writer
            .get_or_insert_with(|| {
                Writer::spawn(file.take().expect("only the first hand-off spawns"))
            })
            .hand_off(job);
    }

    /// Returns once every job handed off is done.
    fn wait_for_writer(&self) {
        if let Some(writer) = &self.writer {
            writer.settle(true);
        }
    }

    /// Hands the writer a rewrite of the live records when the garbage
    /// fraction warrants it.
    fn maybe_compact(&mut self) {
        if self.durable_bytes < self.cfg.compact_min_bytes {
            return;
        }
        let garbage = self.durable_bytes.saturating_sub(self.live_bytes) as f64;
        if garbage / self.durable_bytes as f64 <= LogConfig::COMPACT_GARBAGE_RATIO {
            return;
        }
        let mut buf = Vec::new();
        // The reservation must survive compaction: rewrite it first, so
        // even a crash mid-rename leaves one file carrying it intact.
        if let Some((epoch, ceiling)) = self.reservation {
            frame_meta(&mut buf, epoch, ceiling);
        }
        // each key's record here is the one its slot already measures:
        // the same key and state, framed the same way
        for (key, slot) in self.map.iter() {
            self.scratch.clear();
            (self.codec.enc)(&slot.state, &mut self.scratch);
            let len = frame_record(&mut buf, TAG_PUT, key, Some(&self.scratch));
            debug_assert_eq!(len, slot.len, "a live slot measures its latest record");
        }
        self.durable_bytes = buf.len() as u64;
        // the whole rewritten file counts as live, its reservation too
        self.live_bytes = self.durable_bytes;
        self.hand_off(Job::Rewrite(buf));
        self.stats.compactions += 1;
    }
}

impl<S> StorageEngine<S> for LogEngine<S>
where
    S: Clone + Send + 'static,
{
    fn get(&self, key: &[u8]) -> Option<&S> {
        self.map.get(key).map(|slot| &slot.state)
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn apply(
        &mut self,
        key: &[u8],
        init: &mut dyn FnMut() -> S,
        mutate: &mut dyn FnMut(&mut S),
    ) -> &S {
        let at = self.map.slot(key, || Slot {
            state: init(),
            len: 0,
        });
        let slot = self.map.at_mut(at);
        mutate(&mut slot.state);
        self.scratch.clear();
        (self.codec.enc)(&slot.state, &mut self.scratch);
        let len = frame_record(&mut self.pending, TAG_PUT, key, Some(&self.scratch));
        self.live_bytes = self.live_bytes + len - slot.len;
        slot.len = len;
        self.push_record();
        &self.map.at(at).state
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        let Some(old) = self.map.remove(key) else {
            return false;
        };
        self.live_bytes -= old.len;
        frame_record(&mut self.pending, TAG_REMOVE, key, None);
        self.push_record();
        true
    }

    fn clear(&mut self) {
        self.map.clear();
        self.live_bytes = 0;
        frame_record(&mut self.pending, TAG_CLEAR, &[], None);
        self.push_record();
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (&Key, &S)> + '_> {
        Box::new(self.map.iter().map(|(key, slot)| (key, &slot.state)))
    }

    fn snapshot(&self) -> Box<dyn StorageEngine<S>> {
        let states = self
            .map
            .iter()
            .map(|(k, slot)| (k.clone(), slot.state.clone()));
        Box::new(MemEngine::from_map(states.collect()))
    }

    fn sync(&mut self) {
        self.group_sync();
        self.wait_for_writer();
    }

    fn load_reservation(&self) -> Option<(u64, u64)> {
        self.reservation
    }

    fn store_reservation(&mut self, epoch: u64, ceiling: u64) {
        // Monotone in-memory view, matching the replay fold.
        let (e0, c0) = self.reservation.unwrap_or((0, 0));
        self.reservation = Some((e0.max(epoch), c0.max(ceiling)));
        frame_meta(&mut self.pending, epoch, ceiling);
        self.push_record();
        // Reservations ignore the group-sync cadence: they must be
        // durable before the caller mints into the reserved range (see
        // the `LogConfig` docs). Any buffered data records ride along;
        // if the cadence already handed them off, this only waits.
        self.sync();
    }

    fn kind(&self) -> &'static str {
        "log"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;

    fn drive(e: &mut dyn StorageEngine<u64>, script: &[(u8, u64)]) {
        for &(k, v) in script {
            match v {
                u64::MAX => {
                    e.remove(&[k]);
                }
                _ => {
                    e.apply(&[k], &mut || 0, &mut |s| *s = *s * 31 + v);
                }
            }
        }
    }

    #[test]
    fn mem_and_log_agree_on_a_mixed_script() {
        let dir = scratch_dir("agree");
        let script: Vec<(u8, u64)> = (0..200u64)
            .map(|i| {
                let k = (i * 7 % 23) as u8;
                if i % 11 == 3 {
                    (k, u64::MAX)
                } else {
                    (k, i)
                }
            })
            .collect();
        let mut mem: MemEngine<u64> = MemEngine::new();
        let mut log: LogEngine<u64> =
            LogEngine::open(dir.join("agree.log"), LogConfig::default()).unwrap();
        drive(&mut mem, &script);
        drive(&mut log, &script);
        let a: Vec<_> = mem.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let b: Vec<_> = log.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(a, b, "engines must be behaviour-identical");
        assert_eq!(mem.len(), log.len());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_replays_the_synced_prefix() {
        let dir = scratch_dir("reopen");
        let path = dir.join("store.log");
        let mut log: LogEngine<u64> = LogEngine::open(&path, LogConfig::write_through()).unwrap();
        for i in 0..50u64 {
            log.apply(&i.to_be_bytes(), &mut || 0, &mut |s| *s = i * i);
        }
        log.remove(&7u64.to_be_bytes());
        drop(log);
        let back: LogEngine<u64> = LogEngine::open(&path, LogConfig::default()).unwrap();
        assert_eq!(back.len(), 49);
        assert_eq!(back.get(&3u64.to_be_bytes()), Some(&9));
        assert_eq!(back.get(&7u64.to_be_bytes()), None);
        assert_eq!(back.stats().replayed_records, 51);
        assert_eq!(back.stats().torn_tail_bytes, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn crash_before_group_sync_loses_exactly_the_unsynced_tail() {
        let dir = scratch_dir("tail");
        let path = dir.join("store.log");
        let cfg = LogConfig {
            sync_every_records: 8,
            ..LogConfig::default()
        };
        let mut log: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        for i in 0..8u64 {
            log.apply(&[i as u8], &mut || 0, &mut |s| *s = i);
        }
        assert_eq!(log.pending_bytes(), 0, "8th record triggers the group sync");
        for i in 8..13u64 {
            log.apply(&[i as u8], &mut || 0, &mut |s| *s = i);
        }
        assert!(log.pending_bytes() > 0, "records 9-13 are buffered only");
        drop(log); // crash: pending buffer never reaches the file
        let back: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        assert_eq!(back.len(), 8, "only the synced group survives");
        assert_eq!(back.get(&[9u8]), None);
        // ... and an explicit sync makes the tail durable
        let mut log = back;
        for i in 8..13u64 {
            log.apply(&[i as u8], &mut || 0, &mut |s| *s = i);
        }
        log.sync();
        drop(log);
        let back: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        assert_eq!(back.len(), 13);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_reservation_is_in_the_file_when_store_reservation_returns() {
        let dir = scratch_dir("resv-copy");
        let path = dir.join("store.log");
        let cfg = LogConfig {
            sync_every_records: 4,
            ..LogConfig::default()
        };
        let mut log: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        // two groups handed off, one record still buffered
        for i in 0..9u64 {
            log.apply(&[i as u8], &mut || 0, &mut |s| *s = i);
        }
        log.store_reservation(3, 777);
        // no sync(): the file as it stands, opened by a second engine
        let copy = dir.join("copy.log");
        std::fs::copy(&path, &copy).unwrap();
        let other: LogEngine<u64> = LogEngine::open(&copy, cfg).unwrap();
        assert_eq!(other.load_reservation(), Some((3, 777)));
        assert_eq!(other.len(), 9, "buffered data rode along");
        drop(log);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn drop_keeps_every_group_handed_off() {
        let dir = scratch_dir("handed-off");
        let path = dir.join("store.log");
        let cfg = LogConfig {
            sync_every_records: 2,
            ..LogConfig::default()
        };
        let mut log: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        for i in 0..501u64 {
            log.apply(&i.to_be_bytes(), &mut || 0, &mut |s| *s = i);
        }
        assert_eq!(log.stats().syncs, 250, "every second record hands off");
        drop(log); // no sync(): the last group may still be in flight
        let back: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        assert_eq!(back.len(), 500);
        for i in 0..500u64 {
            assert_eq!(back.get(&i.to_be_bytes()), Some(&i));
        }
        assert_eq!(back.get(&500u64.to_be_bytes()), None, "the unsent tail");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    #[should_panic(expected = "log append write")]
    fn a_writer_error_panics_the_next_call() {
        let dir = scratch_dir("writer-error");
        let path = dir.join("store.log");
        let mut log: LogEngine<u64> = LogEngine::open(&path, LogConfig::write_through()).unwrap();
        // a read-only handle: the writer's next append fails
        log.file.as_mut().unwrap().file = File::open(&path).unwrap();
        log.apply(b"a", &mut || 0, &mut |s| *s = 1);
        log.sync();
    }

    #[test]
    fn compaction_truncates_garbage_and_preserves_contents() {
        let dir = scratch_dir("compact");
        let path = dir.join("store.log");
        let cfg = compacting();
        let mut log: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        for round in 0..200u64 {
            for k in 0..4u8 {
                log.apply(&[k], &mut || 0, &mut |s| *s = round);
            }
        }
        assert!(
            log.stats().compactions > 0,
            "overwrites must trigger compaction"
        );
        assert!(
            log.durable_bytes() < 4096,
            "file stays near the live set: {} bytes",
            log.durable_bytes()
        );
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(on_disk, log.durable_bytes());
        drop(log);
        let back: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        assert_eq!(back.len(), 4);
        for k in 0..4u8 {
            assert_eq!(back.get(&[k]), Some(&199));
        }
        std::fs::remove_dir_all(dir).ok();
    }

    fn compacting() -> LogConfig {
        LogConfig {
            sync_every_records: 1,
            compact_min_bytes: 512,
            ..LogConfig::default()
        }
    }

    #[test]
    fn drop_finishes_a_handed_off_rewrite() {
        let dir = scratch_dir("rewrite-drop");
        let path = dir.join("store.log");
        let mut log: LogEngine<u64> = LogEngine::open(&path, compacting()).unwrap();
        let mut last = [0u64; 4];
        let mut n = 0u64;
        while log.stats().compactions == 0 {
            let k = (n % 4) as usize;
            log.apply(&[k as u8], &mut || 0, &mut |s| *s = n);
            last[k] = n;
            n += 1;
        }
        drop(log); // no sync(): the rewrite is the last job handed off
        assert!(!path.with_extension("compact").exists());
        let back: LogEngine<u64> = LogEngine::open(&path, compacting()).unwrap();
        assert_eq!(back.stats().replayed_records, 4, "exactly the live set");
        for (k, v) in last.iter().enumerate() {
            assert_eq!(back.get(&[k as u8]), Some(v));
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_leftover_rewrite_is_never_replayed() {
        let dir = scratch_dir("rewrite-leftover");
        let path = dir.join("store.log");
        let leftover = path.with_extension("compact");
        let mut log: LogEngine<u64> = LogEngine::open(&path, compacting()).unwrap();
        log.apply(b"a", &mut || 0, &mut |s| *s = 1);
        drop(log);
        // what a crash mid-rewrite leaves: an intact record, then a torn one
        let mut state = Vec::new();
        9u64.encode(&mut state);
        let mut junk = Vec::new();
        frame_record(&mut junk, TAG_PUT, b"z", Some(&state));
        junk.extend_from_slice(&junk.clone()[..5]);
        std::fs::write(&leftover, &junk).unwrap();
        let mut log: LogEngine<u64> = LogEngine::open(&path, compacting()).unwrap();
        assert_eq!(log.stats().replayed_records, 1, "only the log is replayed");
        assert_eq!(log.stats().torn_tail_bytes, 0);
        assert_eq!(log.get(b"z"), None);
        for round in 0..200u64 {
            for k in 0..4u8 {
                log.apply(&[k], &mut || 0, &mut |s| *s = round);
            }
        }
        assert!(log.stats().compactions > 0);
        log.sync();
        assert!(
            !leftover.exists(),
            "a rewrite renames its file over the log"
        );
        drop(log);
        let back: LogEngine<u64> = LogEngine::open(&path, compacting()).unwrap();
        assert_eq!(back.len(), 5);
        assert_eq!(back.get(b"a"), Some(&1));
        assert_eq!(back.get(b"z"), None);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    #[should_panic(expected = "log compaction rewrite")]
    fn a_rewrite_error_panics_a_later_call() {
        let dir = scratch_dir("rewrite-error");
        let path = dir.join("store.log");
        // a directory where the rewrite would create its file
        std::fs::create_dir(path.with_extension("compact")).unwrap();
        let mut log: LogEngine<u64> = LogEngine::open(&path, compacting()).unwrap();
        for round in 0..200u64 {
            for k in 0..4u8 {
                log.apply(&[k], &mut || 0, &mut |s| *s = round);
            }
        }
        log.sync();
    }

    #[test]
    fn clear_record_replays_as_empty() {
        let dir = scratch_dir("clear");
        let path = dir.join("store.log");
        let mut log: LogEngine<u64> = LogEngine::open(&path, LogConfig::write_through()).unwrap();
        log.apply(b"a", &mut || 0, &mut |s| *s = 1);
        log.apply(b"b", &mut || 0, &mut |s| *s = 2);
        log.clear();
        log.apply(b"c", &mut || 0, &mut |s| *s = 3);
        drop(log);
        let back: LogEngine<u64> = LogEngine::open(&path, LogConfig::default()).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.get(b"c"), Some(&3));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reservation_survives_reopen_and_is_synced_immediately() {
        let dir = scratch_dir("resv");
        let path = dir.join("store.log");
        let cfg = LogConfig {
            sync_every_records: 1000, // group sync far away
            ..LogConfig::default()
        };
        let mut log: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        log.apply(b"a", &mut || 0, &mut |s| *s = 1);
        assert!(log.pending_bytes() > 0, "data record is buffered only");
        log.store_reservation(1, 4096);
        assert_eq!(
            log.pending_bytes(),
            0,
            "a reservation forces everything pending durable"
        );
        drop(log); // crash
        let back: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        assert_eq!(back.load_reservation(), Some((1, 4096)));
        assert_eq!(back.get(b"a"), Some(&1), "data rode along with the sync");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reservation_recovers_monotone_and_survives_compaction() {
        let dir = scratch_dir("resv-compact");
        let path = dir.join("store.log");
        let cfg = compacting();
        let mut log: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        log.store_reservation(1, 1024);
        log.store_reservation(2, 8192);
        for round in 0..200u64 {
            for k in 0..4u8 {
                log.apply(&[k], &mut || 0, &mut |s| *s = round);
            }
        }
        assert!(log.stats().compactions > 0);
        drop(log);
        let back: LogEngine<u64> = LogEngine::open(&path, cfg).unwrap();
        assert_eq!(
            back.load_reservation(),
            Some((2, 8192)),
            "the highest reservation survives compaction"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_tail_mid_meta_record_recovers_prior_reservation() {
        let dir = scratch_dir("resv-torn");
        let path = dir.join("store.log");
        let mut log: LogEngine<u64> = LogEngine::open(&path, LogConfig::write_through()).unwrap();
        log.store_reservation(1, 100);
        log.store_reservation(2, 200);
        drop(log);
        // tear the file mid-way through the second meta record
        let bytes = std::fs::read(&path).unwrap();
        let mut first = Vec::new();
        let first_len = frame_meta(&mut first, 1, 100) as usize;
        std::fs::write(&path, &bytes[..first_len + 3]).unwrap();
        let back: LogEngine<u64> = LogEngine::open(&path, LogConfig::default()).unwrap();
        assert_eq!(back.load_reservation(), Some((1, 100)));
        assert!(back.stats().torn_tail_bytes > 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn snapshot_is_a_detached_mem_engine() {
        let dir = scratch_dir("snap");
        let mut log: LogEngine<u64> =
            LogEngine::open(dir.join("s.log"), LogConfig::default()).unwrap();
        log.apply(b"k", &mut || 0, &mut |s| *s = 5);
        let snap = log.snapshot();
        log.apply(b"k", &mut || 0, &mut |s| *s = 6);
        assert_eq!(snap.get(b"k"), Some(&5));
        assert_eq!(snap.kind(), "mem");
        assert_eq!(log.kind(), "log");
        std::fs::remove_dir_all(dir).ok();
    }
}
