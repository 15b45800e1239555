//! Compact binary encoding for clocks — the measurement instrument behind
//! the paper's *metadata size* claims.
//!
//! The evaluation compares how much causal metadata each mechanism ships on
//! the wire and stores per key. To keep that comparison honest and
//! dependency-free, every clock type implements [`Encode`]: a simple
//! LEB128-varint format (counters and lengths are varints, actors encode
//! themselves). Every encoder writes into a [`Sink`], so each byte layout
//! is written once: bytes come from running it over a `Vec<u8>`, sizes
//! ([`Encode::encoded_len`]) from running the same code over a [`Count`].
//!
//! # Examples
//!
//! ```
//! use dvv::encode::{Encode, Decoder};
//! use dvv::VersionVector;
//!
//! let mut vv = VersionVector::new();
//! vv.set(3u32, 100);
//! let bytes = dvv::encode::to_bytes(&vv);
//! assert_eq!(bytes.len(), vv.encoded_len());
//! let back: VersionVector<u32> = dvv::encode::from_bytes(&bytes)?;
//! assert_eq!(back, vv);
//! # Ok::<(), dvv::DecodeError>(())
//! ```

use crate::actor::Actor;
use crate::causal_history::CausalHistory;
use crate::dot::Dot;
use crate::dotted::Dvv;
use crate::dvvset::DvvSet;
use crate::error::DecodeError;
use crate::ids::{ClientId, ReplicaId, WriterId};
use crate::server::{self, Tagged};
use crate::version_vector::VersionVector;
use crate::vve::Vve;

/// A cursor over input bytes for decoding.
#[derive(Debug)]
pub struct Decoder<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder reading from `input`.
    #[must_use]
    pub fn new(input: &'a [u8]) -> Self {
        Decoder { input, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.input.len() - self.pos
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] if the input is exhausted.
    pub fn byte(&mut self) -> Result<u8, DecodeError> {
        let b = self
            .input
            .get(self.pos)
            .copied()
            .ok_or(DecodeError::UnexpectedEnd { context: "byte" })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd { context: "bytes" });
        }
        let out = &self.input[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] on truncation,
    /// [`DecodeError::VarintOverflow`] past 10 bytes.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut out: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self
                .byte()
                .map_err(|_| DecodeError::UnexpectedEnd { context: "varint" })?;
            if shift == 63 && b > 1 {
                return Err(DecodeError::VarintOverflow);
            }
            out |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(out);
            }
            shift += 7;
            if shift > 63 {
                return Err(DecodeError::VarintOverflow);
            }
        }
    }
}

/// Where encoders write. `Vec<u8>` keeps the bytes; [`Count`] keeps only
/// how many there were — so the size of any encoding is the encoder
/// itself run over a `Count`, never a second hand-kept formula.
pub trait Sink {
    /// Appends raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// Appends one byte.
    fn byte(&mut self, b: u8);

    /// Appends a LEB128 varint.
    fn varint(&mut self, v: u64);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn byte(&mut self, b: u8) {
        self.push(b);
    }

    fn varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.push(byte);
                return;
            }
            self.push(byte | 0x80);
        }
    }
}

/// The counting [`Sink`]: discards the bytes, keeps their number.
#[derive(Debug)]
pub struct Count(pub usize);

impl Sink for Count {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn byte(&mut self, _: u8) {
        self.0 += 1;
    }

    fn varint(&mut self, v: u64) {
        self.0 += varint_len(v);
    }
}

/// Appends a LEB128 varint to `buf`.
pub fn put_varint<S: Sink>(buf: &mut S, v: u64) {
    buf.varint(v);
}

/// Number of bytes [`put_varint`] writes for `v`.
#[must_use]
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    (64 - v.leading_zeros() as usize).div_ceil(7)
}

/// Types with a canonical compact binary encoding.
///
/// Implementations must round-trip: `decode(encode(x)) == x`. Only
/// [`encode`](Encode::encode) describes the layout; the size is derived
/// from it.
pub trait Encode: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode<S: Sink>(&self, buf: &mut S);

    /// Exact size of the encoding in bytes: [`encode`](Encode::encode)
    /// run over a [`Count`], without allocating.
    fn encoded_len(&self) -> usize {
        let mut n = Count(0);
        self.encode(&mut n);
        n.0
    }

    /// Reads a value back from `d`.
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] on malformed input.
    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

/// Encodes `value` into a fresh buffer.
#[must_use]
pub fn to_bytes<T: Encode>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(value.encoded_len());
    value.encode(&mut buf);
    buf
}

/// Decodes a value from `bytes`, requiring all input to be consumed.
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input, or
/// [`DecodeError::TrailingBytes`] if input remains after the value.
pub fn from_bytes<T: Encode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut d = Decoder::new(bytes);
    let v = T::decode(&mut d)?;
    if d.remaining() > 0 {
        return Err(DecodeError::TrailingBytes {
            remaining: d.remaining(),
        });
    }
    Ok(v)
}

impl Encode for u64 {
    fn encode<S: Sink>(&self, buf: &mut S) {
        put_varint(buf, *self);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        d.varint()
    }
}

impl Encode for u32 {
    fn encode<S: Sink>(&self, buf: &mut S) {
        put_varint(buf, u64::from(*self));
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let v = d.varint()?;
        u32::try_from(v).map_err(|_| DecodeError::InvalidValue {
            reason: "u32 out of range",
        })
    }
}

impl Encode for String {
    fn encode<S: Sink>(&self, buf: &mut S) {
        put_varint(buf, self.len() as u64);
        buf.put(self.as_bytes());
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = d.varint()? as usize;
        let bytes = d.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }
}

impl Encode for Vec<u8> {
    fn encode<S: Sink>(&self, buf: &mut S) {
        put_varint(buf, self.len() as u64);
        buf.put(self);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = d.varint()? as usize;
        Ok(d.bytes(len)?.to_vec())
    }
}

impl Encode for ReplicaId {
    fn encode<S: Sink>(&self, buf: &mut S) {
        self.0.encode(buf);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ReplicaId(u32::decode(d)?))
    }
}

impl Encode for ClientId {
    fn encode<S: Sink>(&self, buf: &mut S) {
        self.0.encode(buf);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ClientId(u64::decode(d)?))
    }
}

impl Encode for WriterId {
    fn encode<S: Sink>(&self, buf: &mut S) {
        match self {
            WriterId::Replica(r) => {
                buf.byte(0);
                r.encode(buf);
            }
            WriterId::Client(c) => {
                buf.byte(1);
                c.encode(buf);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.byte()? {
            0 => Ok(WriterId::Replica(ReplicaId::decode(d)?)),
            1 => Ok(WriterId::Client(ClientId::decode(d)?)),
            _ => Err(DecodeError::InvalidValue {
                reason: "unknown writer-id tag",
            }),
        }
    }
}

impl<A: Actor + Encode> Encode for Dot<A> {
    fn encode<S: Sink>(&self, buf: &mut S) {
        self.actor().encode(buf);
        put_varint(buf, self.counter());
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let actor = A::decode(d)?;
        let counter = d.varint()?;
        if counter == 0 {
            return Err(DecodeError::InvalidValue {
                reason: "dot counter must be non-zero",
            });
        }
        Ok(Dot::new(actor, counter))
    }
}

impl<A: Actor + Encode> Encode for VersionVector<A> {
    fn encode<S: Sink>(&self, buf: &mut S) {
        put_varint(buf, self.len() as u64);
        for (a, c) in self.iter() {
            a.encode(buf);
            put_varint(buf, c);
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.varint()? as usize;
        let mut vv = VersionVector::new();
        for _ in 0..n {
            let a = A::decode(d)?;
            let c = d.varint()?;
            if c == 0 {
                return Err(DecodeError::InvalidValue {
                    reason: "version vector entries must be non-zero",
                });
            }
            vv.set(a, c);
        }
        Ok(vv)
    }
}

impl<A: Actor + Encode> Encode for Dvv<A> {
    fn encode<S: Sink>(&self, buf: &mut S) {
        self.dot().encode(buf);
        self.past().encode(buf);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let dot = Dot::decode(d)?;
        let vv = VersionVector::decode(d)?;
        if vv.contains(&dot) {
            return Err(DecodeError::InvalidValue {
                reason: "dvv past contains its own dot",
            });
        }
        Ok(Dvv::new(dot, vv))
    }
}

impl<A: Actor + Encode> Encode for CausalHistory<A> {
    fn encode<S: Sink>(&self, buf: &mut S) {
        put_varint(buf, self.len() as u64);
        for dot in self.iter() {
            dot.encode(buf);
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.varint()? as usize;
        let mut h = CausalHistory::new();
        for _ in 0..n {
            h.insert(Dot::decode(d)?);
        }
        Ok(h)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode<S: Sink>(&self, buf: &mut S) {
        self.0.encode(buf);
        self.1.encode(buf);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

// ---------------------------------------------------------------------------
// Mechanism states
//
// Every layout starts with a count or a presence byte, so a state needs
// no length prefix inside a message or a log record. Decoders never
// reserve more elements than the remaining input could hold.

/// A mechanism's per-key state: causal metadata interleaved with the
/// values it versions.
///
/// [`put`](StateLayout::put) is the state's one byte layout, generic over
/// the [`Sink`] and over how a value is written. The state's [`Encode`]
/// passes each value its own encoder; [`metadata_len`](StateLayout::metadata_len)
/// passes none. So a state's encoding is its metadata plus its values'
/// encodings by construction, and its metadata size is defined for any
/// value type, encodable or not.
pub trait StateLayout {
    /// The application value type.
    type Value;

    /// Writes the state to `buf`, each value through `value`.
    fn put<S: Sink>(&self, buf: &mut S, value: impl FnMut(&Self::Value, &mut S));

    /// Bytes of causal metadata: the layout with the values left out.
    fn metadata_len(&self) -> usize {
        let mut n = Count(0);
        self.put(&mut n, |_, _| {});
        n.0
    }
}

// The five list states (client-VV, server-VV, causal histories, ordered
// VV, VVE): a sibling count, then per sibling its clock and its value.
impl<C: Encode, V> StateLayout for Vec<(C, V)> {
    type Value = V;

    fn put<S: Sink>(&self, buf: &mut S, mut value: impl FnMut(&V, &mut S)) {
        put_varint(buf, self.len() as u64);
        for (clock, v) in self {
            clock.encode(buf);
            value(v, buf);
        }
    }
}

impl<C: Encode, V: Encode> Encode for Vec<(C, V)> {
    fn encode<S: Sink>(&self, buf: &mut S) {
        self.put(buf, V::encode);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.varint()? as usize;
        // a clock and a value take at least a byte each
        let mut out = Vec::with_capacity(n.min(d.remaining() / 2 + 1));
        for _ in 0..n {
            out.push((C::decode(d)?, V::decode(d)?));
        }
        Ok(out)
    }
}

// `DvvMechanism`'s state: a sibling count, then per sibling its Dvv and
// its value, in canonical dot order.
impl<A: Actor + Encode, V> StateLayout for Vec<Tagged<A, V>> {
    type Value = V;

    fn put<S: Sink>(&self, buf: &mut S, mut value: impl FnMut(&V, &mut S)) {
        put_varint(buf, self.len() as u64);
        for t in self {
            t.clock.encode(buf);
            value(&t.value, buf);
        }
    }
}

impl<A: Actor + Encode, V: Encode> Encode for Vec<Tagged<A, V>> {
    fn encode<S: Sink>(&self, buf: &mut S) {
        self.put(buf, V::encode);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.varint()? as usize;
        // a dot, a past and a value take at least three bytes
        let mut out: Vec<Tagged<A, V>> = Vec::with_capacity(n.min(d.remaining() / 3 + 1));
        for _ in 0..n {
            let clock = Dvv::<A>::decode(d)?;
            let value = V::decode(d)?;
            if out.iter().any(|s| s.clock.dot() == clock.dot()) {
                return Err(DecodeError::InvalidValue {
                    reason: "duplicate sibling dot in dvv state",
                });
            }
            out.push(Tagged { clock, value });
        }
        // Canonical dot order is a protocol invariant (AAE fingerprints
        // hash the state); restore it rather than trusting the input.
        server::canonicalize(&mut out);
        Ok(out)
    }
}

// `DvvSetMechanism`'s state: an entry count, then per entry the actor, its
// counter and its live-value count, then those values newest first. The
// dots are implied: value `j` of an entry is dot `(actor, counter - j)`.
impl<A: Actor + Encode, V> StateLayout for DvvSet<A, V> {
    type Value = V;

    fn put<S: Sink>(&self, buf: &mut S, mut value: impl FnMut(&V, &mut S)) {
        put_varint(buf, self.actor_count() as u64);
        for (actor, counter, values) in self.entries() {
            actor.encode(buf);
            put_varint(buf, counter);
            put_varint(buf, values.len() as u64);
            for v in values {
                value(v, buf);
            }
        }
    }
}

impl<A: Actor + Encode, V: Encode> Encode for DvvSet<A, V> {
    fn encode<S: Sink>(&self, buf: &mut S) {
        self.put(buf, V::encode);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.varint()?;
        let mut out = DvvSet::new();
        for _ in 0..n {
            let actor = A::decode(d)?;
            let counter = d.varint()?;
            let live = d.varint()?;
            if live > counter {
                return Err(DecodeError::InvalidValue {
                    reason: "dvvset entry has more live values than its counter",
                });
            }
            let live = live as usize;
            let mut values = Vec::with_capacity(live.min(d.remaining() + 1));
            for _ in 0..live {
                values.push(V::decode(d)?);
            }
            out.insert_entry(actor, counter, values);
        }
        Ok(out)
    }
}

// `LamportMechanism`'s state: a presence byte, then the winner's
// timestamp, writer and value.
impl<V> StateLayout for Option<(u64, ClientId, V)> {
    type Value = V;

    fn put<S: Sink>(&self, buf: &mut S, mut value: impl FnMut(&V, &mut S)) {
        buf.byte(u8::from(self.is_some()));
        if let Some((ts, client, v)) = self {
            put_varint(buf, *ts);
            client.encode(buf);
            value(v, buf);
        }
    }
}

impl<V: Encode> Encode for Option<(u64, ClientId, V)> {
    fn encode<S: Sink>(&self, buf: &mut S) {
        self.put(buf, V::encode);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.byte()? {
            0 => Ok(None),
            1 => Ok(Some((d.varint()?, ClientId::decode(d)?, V::decode(d)?))),
            _ => Err(DecodeError::InvalidValue {
                reason: "lamport state presence byte must be 0 or 1",
            }),
        }
    }
}

impl<A: Actor + Encode> Encode for Vve<A> {
    fn encode<S: Sink>(&self, buf: &mut S) {
        let base = self.to_version_vector();
        base.encode(buf);
        let exceptions: Vec<Dot<A>> = collect_exceptions(self);
        put_varint(buf, exceptions.len() as u64);
        for e in &exceptions {
            e.encode(buf);
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let base = VersionVector::<A>::decode(d)?;
        let n = d.varint()? as usize;
        let mut v = Vve::from_version_vector(&base);
        for _ in 0..n {
            let e = Dot::<A>::decode(d)?;
            if !v.except(&e) {
                return Err(DecodeError::InvalidValue {
                    reason: "vve exception above the actor's base counter",
                });
            }
        }
        Ok(v)
    }
}

fn collect_exceptions<A: Actor>(v: &Vve<A>) -> Vec<Dot<A>> {
    let base = v.to_version_vector();
    let mut out = Vec::new();
    for (actor, counter) in base.iter() {
        for c in 1..=counter {
            let dot = Dot::new(actor.clone(), c);
            if !v.contains(&dot) {
                out.push(dot);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Delta codecs
//
// The wire protocols above ship *values*; the codecs below ship *runs*:
// sorted id sequences as gap deltas, hash sequences as fixed 8-byte
// words, and sorted key sets as shared-prefix deltas. Runs of correlated
// values (adjacent replica ids, keys under a common prefix) collapse to
// a byte or two per element where the plain encodings spend ten. Hashes
// are uniform 64-bit values with nothing to collapse: a varint would
// spend ten bytes on most, and a run packed at its widest value is 64
// bits wide with probability 1 − 2⁻ⁿ.

/// Width of a fixed-width word: request ids, digests and hashes — uniform
/// 64-bit values (hashes, or ids with high bits set), where a varint
/// would cost more than it saves.
pub const U64_LEN: usize = 8;

/// Appends a fixed-width little-endian u64.
pub fn put_u64<S: Sink>(buf: &mut S, v: u64) {
    buf.put(&v.to_le_bytes());
}

/// Reads back a [`put_u64`] value.
///
/// # Errors
///
/// [`DecodeError::UnexpectedEnd`] if fewer than 8 bytes remain.
pub fn get_u64(d: &mut Decoder<'_>) -> Result<u64, DecodeError> {
    let bytes = d.bytes(U64_LEN)?;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

/// Packs fixed-width values into a byte stream, LSB first.
#[derive(Debug)]
pub struct BitWriter<'a, S: Sink> {
    out: &'a mut S,
    cur: u128,
    filled: u32,
}

impl<'a, S: Sink> BitWriter<'a, S> {
    /// Starts a packed run appended to `out`.
    pub fn new(out: &'a mut S) -> Self {
        BitWriter {
            out,
            cur: 0,
            filled: 0,
        }
    }

    /// Appends the low `width` bits of `value` (`width ≤ 64`).
    pub fn write(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        let masked = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        self.cur |= u128::from(masked) << self.filled;
        self.filled += width;
        while self.filled >= 8 {
            self.out.byte((self.cur & 0xff) as u8);
            self.cur >>= 8;
            self.filled -= 8;
        }
    }

    /// Flushes the final partial byte (zero-padded high bits).
    pub fn finish(self) {
        if self.filled > 0 {
            self.out.byte((self.cur & 0xff) as u8);
        }
    }
}

/// Reads back a [`BitWriter`] run from a [`Decoder`]. Dropping the
/// reader discards any padding bits in the last consumed byte.
#[derive(Debug)]
pub struct BitReader<'d, 'a> {
    d: &'d mut Decoder<'a>,
    cur: u128,
    avail: u32,
}

impl<'d, 'a> BitReader<'d, 'a> {
    /// Starts reading a packed run at the decoder's position.
    pub fn new(d: &'d mut Decoder<'a>) -> Self {
        BitReader {
            d,
            cur: 0,
            avail: 0,
        }
    }

    /// Reads the next `width`-bit value (`width ≤ 64`).
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnexpectedEnd`] if the input is exhausted.
    pub fn read(&mut self, width: u32) -> Result<u64, DecodeError> {
        debug_assert!(width <= 64);
        while self.avail < width {
            self.cur |= u128::from(self.d.byte()?) << self.avail;
            self.avail += 8;
        }
        let mask: u128 = if width == 0 { 0 } else { (1u128 << width) - 1 };
        let v = (self.cur & mask) as u64;
        self.cur >>= width;
        self.avail -= width;
        Ok(v)
    }
}

/// Appends a strictly increasing id sequence as gap deltas: the count,
/// the first id verbatim, then `id[i] − id[i−1] − 1` per element.
///
/// # Panics
///
/// Debug-asserts that `ids` is strictly increasing.
pub fn put_sorted_ids<S: Sink>(buf: &mut S, ids: &[u64]) {
    put_varint(buf, ids.len() as u64);
    let mut prev = 0u64;
    for (i, &id) in ids.iter().enumerate() {
        if i == 0 {
            put_varint(buf, id);
        } else {
            debug_assert!(id > prev, "ids must be strictly increasing");
            put_varint(buf, id - prev - 1);
        }
        prev = id;
    }
}

/// Reads back a [`put_sorted_ids`] sequence.
///
/// # Errors
///
/// [`DecodeError::UnexpectedEnd`] on truncation,
/// [`DecodeError::InvalidValue`] if a reconstructed id overflows `u64`.
pub fn get_sorted_ids(d: &mut Decoder<'_>) -> Result<Vec<u64>, DecodeError> {
    let n = d.varint()? as usize;
    let mut out = Vec::with_capacity(n.min(d.remaining() + 1));
    let mut prev = 0u64;
    for i in 0..n {
        let v = d.varint()?;
        let id = if i == 0 {
            v
        } else {
            prev.checked_add(v)
                .and_then(|x| x.checked_add(1))
                .ok_or(DecodeError::InvalidValue {
                    reason: "sorted-id delta overflows u64",
                })?
        };
        out.push(id);
        prev = id;
    }
    Ok(out)
}

/// Appends sorted `(id, hash)` pairs: ids as gap deltas, then each hash
/// as a fixed 8-byte word ([`put_u64`]).
pub fn put_id_value_pairs<S: Sink>(buf: &mut S, pairs: &[(u64, u64)]) {
    let ids: Vec<u64> = pairs.iter().map(|p| p.0).collect();
    put_sorted_ids(buf, &ids);
    for &(_, v) in pairs {
        put_u64(buf, v);
    }
}

/// Reads back a [`put_id_value_pairs`] sequence.
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input.
pub fn get_id_value_pairs(d: &mut Decoder<'_>) -> Result<Vec<(u64, u64)>, DecodeError> {
    let ids = get_sorted_ids(d)?;
    ids.into_iter().map(|id| Ok((id, get_u64(d)?))).collect()
}

/// Appends `key` as a shared-prefix delta against `prev`, the key before
/// it in its list (empty for the first): the length of their common
/// prefix, then the remaining suffix length-prefixed. The one key-list
/// layout — leaf sets, want lists and keyed state lists all use it.
pub fn put_key_delta<S: Sink>(buf: &mut S, prev: &[u8], key: &[u8]) {
    let lcp = prev.iter().zip(key).take_while(|(x, y)| x == y).count();
    put_varint(buf, lcp as u64);
    put_varint(buf, (key.len() - lcp) as u64);
    buf.put(&key[lcp..]);
}

/// Reads back a [`put_key_delta`] key into `prev`, which must hold the
/// previously decoded key of the list (empty before the first).
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input, including a prefix length
/// exceeding the previous key.
pub fn get_key_delta(d: &mut Decoder<'_>, prev: &mut Vec<u8>) -> Result<(), DecodeError> {
    let lcp = d.varint()? as usize;
    if lcp > prev.len() {
        return Err(DecodeError::InvalidValue {
            reason: "key prefix longer than previous key",
        });
    }
    let suffix_len = d.varint()? as usize;
    let suffix = d.bytes(suffix_len)?;
    prev.truncate(lcp);
    prev.extend_from_slice(suffix);
    Ok(())
}

/// Appends a Merkle leaf set — `(key, hash)` pairs — with keys as
/// shared-prefix deltas against the previous key (prefix length +
/// suffix), then each hash as a fixed 8-byte word ([`put_u64`]). Any
/// key order round-trips; sorted keys compress best.
pub fn put_leaf_set<S: Sink>(buf: &mut S, leaves: &[(Vec<u8>, u64)]) {
    put_varint(buf, leaves.len() as u64);
    let mut prev: &[u8] = &[];
    for (k, _) in leaves {
        put_key_delta(buf, prev, k);
        prev = k;
    }
    for &(_, h) in leaves {
        put_u64(buf, h);
    }
}

/// Reads back a [`put_leaf_set`] leaf set.
///
/// # Errors
///
/// Any [`DecodeError`] on malformed input, including a prefix length
/// exceeding the previous key.
pub fn get_leaf_set(d: &mut Decoder<'_>) -> Result<Vec<(Vec<u8>, u64)>, DecodeError> {
    let n = d.varint()? as usize;
    let mut keys: Vec<Vec<u8>> = Vec::with_capacity(n.min(d.remaining() / 2 + 1));
    let mut prev: Vec<u8> = Vec::new();
    for _ in 0..n {
        get_key_delta(d, &mut prev)?;
        keys.push(prev.clone());
    }
    keys.into_iter().map(|k| Ok((k, get_u64(d)?))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len mismatch for {v}");
            let mut d = Decoder::new(&buf);
            assert_eq!(d.varint().unwrap(), v);
            assert_eq!(d.remaining(), 0);
        }
    }

    #[test]
    fn varint_rejects_overflow() {
        let eleven = [0xffu8; 11];
        let mut d = Decoder::new(&eleven);
        assert_eq!(d.varint(), Err(DecodeError::VarintOverflow));
        // 10 bytes encoding something ≥ 2^64
        let too_big = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut d = Decoder::new(&too_big);
        assert_eq!(d.varint(), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn truncated_input_errors() {
        let mut d = Decoder::new(&[0x80]);
        assert!(matches!(d.varint(), Err(DecodeError::UnexpectedEnd { .. })));
        let mut d = Decoder::new(&[]);
        assert!(d.byte().is_err());
        let mut d = Decoder::new(&[1, 2]);
        assert!(d.bytes(3).is_err());
    }

    #[test]
    fn primitive_roundtrips() {
        let s = String::from("hello");
        let back: String = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(back, s);

        let v: Vec<u8> = vec![1, 2, 3];
        let back: Vec<u8> = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(back, v);

        let r = ReplicaId(300);
        let back: ReplicaId = from_bytes(&to_bytes(&r)).unwrap();
        assert_eq!(back, r);

        let c = ClientId(1 << 40);
        let back: ClientId = from_bytes(&to_bytes(&c)).unwrap();
        assert_eq!(back, c);

        for w in [WriterId::from(ReplicaId(1)), WriterId::from(ClientId(2))] {
            let back: WriterId = from_bytes(&to_bytes(&w)).unwrap();
            assert_eq!(back, w);
        }
    }

    #[test]
    fn writer_id_bad_tag_rejected() {
        let r: Result<WriterId, _> = from_bytes(&[9, 0]);
        assert!(matches!(r, Err(DecodeError::InvalidValue { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = to_bytes(&ReplicaId(1));
        bytes.push(0);
        let r: Result<ReplicaId, _> = from_bytes(&bytes);
        assert_eq!(r, Err(DecodeError::TrailingBytes { remaining: 1 }));
    }

    #[test]
    fn dot_roundtrip_and_zero_counter_rejected() {
        let d = Dot::new(ReplicaId(2), 77);
        let back: Dot<ReplicaId> = from_bytes(&to_bytes(&d)).unwrap();
        assert_eq!(back, d);

        let bad = to_bytes(&ReplicaId(2))
            .into_iter()
            .chain([0u8])
            .collect::<Vec<_>>();
        let r: Result<Dot<ReplicaId>, _> = from_bytes(&bad);
        assert!(matches!(r, Err(DecodeError::InvalidValue { .. })));
    }

    #[test]
    fn version_vector_roundtrip() {
        let mut vv: VersionVector<ReplicaId> = VersionVector::new();
        vv.set(ReplicaId(0), 5);
        vv.set(ReplicaId(9), 1_000_000);
        let bytes = to_bytes(&vv);
        assert_eq!(bytes.len(), vv.encoded_len());
        let back: VersionVector<ReplicaId> = from_bytes(&bytes).unwrap();
        assert_eq!(back, vv);
    }

    #[test]
    fn dvv_roundtrip_and_invalid_past_rejected() {
        let mut past: VersionVector<ReplicaId> = VersionVector::new();
        past.set(ReplicaId(0), 1);
        let d = Dvv::new(Dot::new(ReplicaId(0), 3), past);
        let bytes = to_bytes(&d);
        assert_eq!(bytes.len(), d.encoded_len());
        let back: Dvv<ReplicaId> = from_bytes(&bytes).unwrap();
        assert_eq!(back, d);

        // handcraft: dot (0,1) with past containing (0,1)
        let mut bad = Vec::new();
        ReplicaId(0).encode(&mut bad);
        put_varint(&mut bad, 1); // dot counter
        put_varint(&mut bad, 1); // one vv entry
        ReplicaId(0).encode(&mut bad);
        put_varint(&mut bad, 1); // counter covering the dot
        let r: Result<Dvv<ReplicaId>, _> = from_bytes(&bad);
        assert!(matches!(r, Err(DecodeError::InvalidValue { .. })));
    }

    #[test]
    fn causal_history_roundtrip() {
        let h: CausalHistory<ReplicaId> = [
            Dot::new(ReplicaId(0), 1),
            Dot::new(ReplicaId(0), 3),
            Dot::new(ReplicaId(1), 2),
        ]
        .into_iter()
        .collect();
        let bytes = to_bytes(&h);
        assert_eq!(bytes.len(), h.encoded_len());
        let back: CausalHistory<ReplicaId> = from_bytes(&bytes).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn dvvset_roundtrip_simple() {
        let mut s: DvvSet<ReplicaId, Vec<u8>> = DvvSet::new();
        s.update(&VersionVector::new(), ReplicaId(0), vec![1]);
        s.update(&VersionVector::new(), ReplicaId(0), vec![2]);
        s.update(&VersionVector::new(), ReplicaId(1), vec![3]);
        let bytes = to_bytes(&s);
        assert_eq!(bytes.len(), s.encoded_len());
        let back: DvvSet<ReplicaId, Vec<u8>> = from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn dvvset_roundtrip_with_obsolete_knowledge() {
        let mut s: DvvSet<ReplicaId, Vec<u8>> = DvvSet::new();
        s.update(&VersionVector::new(), ReplicaId(0), vec![1]);
        let ctx = s.context();
        s.update(&ctx, ReplicaId(0), vec![2]); // (0,1) obsolete, (0,2) live
        let back: DvvSet<ReplicaId, Vec<u8>> = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(back, s);
        assert!(back.contains(&Dot::new(ReplicaId(0), 1)));
    }

    #[test]
    fn vve_roundtrip_with_exceptions() {
        let v: Vve<ReplicaId> = [
            Dot::new(ReplicaId(0), 1),
            Dot::new(ReplicaId(0), 4),
            Dot::new(ReplicaId(1), 1),
        ]
        .into_iter()
        .collect();
        let bytes = to_bytes(&v);
        assert_eq!(bytes.len(), v.encoded_len());
        let back: Vve<ReplicaId> = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn bitpack_roundtrips_boundary_widths() {
        for width in [0u32, 1, 2, 7, 8, 9, 31, 63, 64] {
            let max = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..13).map(|i| max.saturating_sub(i) & max).collect();
            let mut buf = Vec::new();
            let mut w = BitWriter::new(&mut buf);
            for &v in &values {
                w.write(v, width);
            }
            w.finish();
            assert_eq!(buf.len(), (values.len() * width as usize).div_ceil(8));
            let mut d = Decoder::new(&buf);
            let mut r = BitReader::new(&mut d);
            for &v in &values {
                assert_eq!(r.read(width).unwrap(), v, "width {width}");
            }
        }
    }

    #[test]
    fn bitreader_truncation_errors() {
        let mut d = Decoder::new(&[0xff]);
        let mut r = BitReader::new(&mut d);
        assert_eq!(r.read(8).unwrap(), 0xff);
        assert!(r.read(1).is_err());
    }

    #[test]
    fn sorted_ids_roundtrip_and_gap_compression() {
        for ids in [vec![], vec![0], vec![5, 6, 7, 9, 1000], vec![u64::MAX]] {
            let mut buf = Vec::new();
            put_sorted_ids(&mut buf, &ids);
            let mut d = Decoder::new(&buf);
            assert_eq!(get_sorted_ids(&mut d).unwrap(), ids);
            assert_eq!(d.remaining(), 0);
        }
        // dense runs cost one byte per element after the first
        let dense: Vec<u64> = (1000..1100).collect();
        let mut n = Count(0);
        put_sorted_ids(&mut n, &dense);
        assert_eq!(n.0, 1 + 2 + 99);
    }

    #[test]
    fn sorted_ids_decode_rejects_overflow() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2); // count
        put_varint(&mut buf, u64::MAX); // first id
        put_varint(&mut buf, 0); // gap → MAX + 1 overflows
        let mut d = Decoder::new(&buf);
        assert!(matches!(
            get_sorted_ids(&mut d),
            Err(DecodeError::InvalidValue { .. })
        ));
    }

    #[test]
    fn id_value_pairs_roundtrip() {
        for pairs in [
            vec![],
            vec![(3u64, 0u64)],
            vec![(0, u64::MAX), (7, 1), (8, 0xdead_beef)],
            vec![(1, 0), (2, 0), (9, 0)],
        ] {
            let mut buf = Vec::new();
            put_id_value_pairs(&mut buf, &pairs);
            let mut d = Decoder::new(&buf);
            assert_eq!(get_id_value_pairs(&mut d).unwrap(), pairs);
            assert_eq!(d.remaining(), 0);
        }
    }

    #[test]
    fn id_value_pairs_spend_one_word_per_value() {
        let pairs = vec![(1u64, 0u64), (2, 0), (3, 0)];
        // count + first + 2 gaps, then a word per value, zeros included
        let mut buf = Vec::new();
        put_id_value_pairs(&mut buf, &pairs);
        assert_eq!(buf.len(), 4 + 3 * U64_LEN);
    }

    #[test]
    fn leaf_set_roundtrip_and_prefix_compression() {
        let leaves: Vec<(Vec<u8>, u64)> = (0..50)
            .map(|i| (format!("user:{i:04}").into_bytes(), 0xabc0 + i as u64))
            .collect();
        let mut buf = Vec::new();
        put_leaf_set(&mut buf, &leaves);
        let mut d = Decoder::new(&buf);
        assert_eq!(get_leaf_set(&mut d).unwrap(), leaves);
        assert_eq!(d.remaining(), 0);
        // a flat key list would spend ≥ 9 bytes a key; the hashes are a
        // word each whatever the keys
        let key_bytes = buf.len() - 1 - leaves.len() * U64_LEN;
        assert!(
            key_bytes < leaves.len() * 9 / 2,
            "prefix deltas must at least halve the keys' flat cost, got {key_bytes}"
        );

        let empty: Vec<(Vec<u8>, u64)> = Vec::new();
        let mut buf = Vec::new();
        put_leaf_set(&mut buf, &empty);
        assert_eq!(buf, vec![0]);
        let mut d = Decoder::new(&buf);
        assert_eq!(get_leaf_set(&mut d).unwrap(), empty);
    }

    #[test]
    fn leaf_set_rejects_bad_prefix_len() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 1); // one leaf
        put_varint(&mut buf, 3); // lcp 3 against an empty previous key
        put_varint(&mut buf, 0);
        let mut d = Decoder::new(&buf);
        assert!(matches!(
            get_leaf_set(&mut d),
            Err(DecodeError::InvalidValue { .. })
        ));
    }

    #[test]
    fn dvv_is_smaller_than_equivalent_causal_history() {
        // Size claim sanity: a long history costs O(1) entries as a DVV.
        let mut past: VersionVector<ReplicaId> = VersionVector::new();
        past.set(ReplicaId(0), 1000);
        let d = Dvv::new(Dot::new(ReplicaId(0), 1001), past);
        let h = d.to_causal_history();
        assert!(d.encoded_len() < h.encoded_len() / 50);
    }
}
