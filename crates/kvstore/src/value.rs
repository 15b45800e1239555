//! Store values: payloads stamped with a globally unique write identity.

use core::fmt;

use dvv::encode::{Decoder, Encode, Sink};
use dvv::{ClientId, DecodeError};

/// Key names are raw bytes, as in Riak.
pub type Key = Vec<u8>;

/// Globally unique identity of one write: `(client, per-client sequence)`.
///
/// Write ids exist for the *measurement instrument*, not the protocol: the
/// oracle uses them to reconstruct ground-truth causality and detect lost
/// updates / false concurrency, mechanism-independently.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WriteId {
    /// The client that issued the write.
    pub client: ClientId,
    /// The client's write counter (1-based).
    pub seq: u64,
}

impl WriteId {
    /// Creates a write id.
    #[must_use]
    pub fn new(client: ClientId, seq: u64) -> Self {
        WriteId { client, seq }
    }
}

impl fmt::Display for WriteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.seq)
    }
}

/// A store value: opaque payload plus the identity of the write that
/// produced it.
///
/// A **delete** in a multi-version store is itself a write — a
/// *tombstone* stamped with the deleter's causal context, so it
/// supersedes exactly the versions the deleter saw (and coexists with
/// concurrent writes, which must survive). Tombstones stay in the store
/// until garbage collection proves them fully propagated; see
/// [`crate::cluster::Cluster::collect_garbage`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StampedValue {
    /// The write that created this value.
    pub id: WriteId,
    /// Application payload (empty for tombstones).
    pub payload: Vec<u8>,
    /// Whether this value is a delete marker.
    pub tombstone: bool,
}

impl StampedValue {
    /// Creates a stamped value.
    #[must_use]
    pub fn new(id: WriteId, payload: Vec<u8>) -> Self {
        StampedValue {
            id,
            payload,
            tombstone: false,
        }
    }

    /// Creates a delete marker.
    #[must_use]
    pub fn tombstone(id: WriteId) -> Self {
        StampedValue {
            id,
            payload: Vec::new(),
            tombstone: true,
        }
    }

    /// Whether this value is live application data (not a tombstone).
    #[must_use]
    pub fn is_live(&self) -> bool {
        !self.tombstone
    }
}

impl Encode for StampedValue {
    fn encode<S: Sink>(&self, buf: &mut S) {
        self.id.client.encode(buf);
        dvv::encode::put_varint(buf, self.id.seq);
        buf.byte(u8::from(self.tombstone));
        self.payload.encode(buf);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let client = ClientId::decode(d)?;
        let seq = d.varint()?;
        let tombstone = match d.byte()? {
            0 => false,
            1 => true,
            _ => {
                return Err(DecodeError::InvalidValue {
                    reason: "tombstone flag must be 0 or 1",
                })
            }
        };
        let payload = Vec::<u8>::decode(d)?;
        Ok(StampedValue {
            id: WriteId::new(client, seq),
            payload,
            tombstone,
        })
    }
}

impl fmt::Display for StampedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.tombstone {
            write!(f, "{}(†)", self.id)
        } else {
            write!(f, "{}({}B)", self.id, self.payload.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_id_ordering_and_display() {
        let a = WriteId::new(ClientId(1), 1);
        let b = WriteId::new(ClientId(1), 2);
        let c = WriteId::new(ClientId(2), 1);
        assert!(a < b && b < c);
        assert_eq!(a.to_string(), "c1#1");
    }

    #[test]
    fn stamped_value_roundtrip() {
        let v = StampedValue::new(WriteId::new(ClientId(7), 3), vec![1, 2, 3]);
        let bytes = dvv::encode::to_bytes(&v);
        assert_eq!(bytes.len(), v.encoded_len());
        let back: StampedValue = dvv::encode::from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let v = StampedValue::new(WriteId::new(ClientId(0), 1), vec![]);
        let back: StampedValue = dvv::encode::from_bytes(&dvv::encode::to_bytes(&v)).unwrap();
        assert_eq!(back, v);
        assert_eq!(v.to_string(), "c0#1(0B)");
    }

    #[test]
    fn tombstone_roundtrip_and_predicates() {
        let t = StampedValue::tombstone(WriteId::new(ClientId(3), 9));
        assert!(!t.is_live());
        assert!(t.payload.is_empty());
        let back: StampedValue = dvv::encode::from_bytes(&dvv::encode::to_bytes(&t)).unwrap();
        assert_eq!(back, t);
        assert_eq!(t.to_string(), "c3#9(†)");
        let v = StampedValue::new(WriteId::new(ClientId(3), 9), vec![1]);
        assert!(v.is_live());
        assert_ne!(dvv::encode::to_bytes(&t), dvv::encode::to_bytes(&v));
    }

    #[test]
    fn bad_tombstone_flag_rejected() {
        let mut bytes =
            dvv::encode::to_bytes(&StampedValue::tombstone(WriteId::new(ClientId(1), 1)));
        // the flag byte sits after client varint (1 byte) + seq varint (1 byte)
        bytes[2] = 7;
        let r: Result<StampedValue, _> = dvv::encode::from_bytes(&bytes);
        assert!(r.is_err());
    }
}
