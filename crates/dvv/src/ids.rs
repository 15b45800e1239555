//! Small identifier newtypes shared between the clock mechanisms and the
//! key-value store.
//!
//! The DVV design assigns dots at **replica servers** ([`ReplicaId`]) while
//! the classic Riak baseline assigns version-vector entries to **clients**
//! ([`ClientId`]). [`WriterId`] unifies the two for mechanisms that can be
//! parameterised either way.

use core::fmt;

/// Identifier of a replica server (a storage node that coordinates writes).
///
/// # Examples
///
/// ```
/// use dvv::ReplicaId;
/// let a = ReplicaId(0);
/// let b = ReplicaId(1);
/// assert!(a < b);
/// assert_eq!(a.to_string(), "s0");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaId(pub u32);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for ReplicaId {
    fn from(v: u32) -> Self {
        ReplicaId(v)
    }
}

/// Identifier of a client session (an entity issuing reads and writes).
///
/// # Examples
///
/// ```
/// use dvv::ClientId;
/// assert_eq!(ClientId(42).to_string(), "c42");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u64);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u64> for ClientId {
    fn from(v: u64) -> Self {
        ClientId(v)
    }
}

/// An event owner that is either a replica server or a client.
///
/// Mechanisms that can assign clock entries to either kind of principal
/// (e.g. the causal-history ground truth) use this unified id.
///
/// # Examples
///
/// ```
/// use dvv::{WriterId, ReplicaId, ClientId};
/// let s = WriterId::from(ReplicaId(3));
/// let c = WriterId::from(ClientId(9));
/// assert_ne!(s, c);
/// assert_eq!(s.to_string(), "s3");
/// assert_eq!(c.to_string(), "c9");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WriterId {
    /// A replica server.
    Replica(ReplicaId),
    /// A client session.
    Client(ClientId),
}

impl fmt::Display for WriterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriterId::Replica(r) => write!(f, "{r}"),
            WriterId::Client(c) => write!(f, "{c}"),
        }
    }
}

impl From<ReplicaId> for WriterId {
    fn from(r: ReplicaId) -> Self {
        WriterId::Replica(r)
    }
}

impl From<ClientId> for WriterId {
    fn from(c: ClientId) -> Self {
        WriterId::Client(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_id_display_and_order() {
        let ids: Vec<ReplicaId> = (0..4).map(ReplicaId).collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(ids[2].to_string(), "s2");
        assert_eq!(ReplicaId::from(7u32), ReplicaId(7));
    }

    #[test]
    fn client_id_display_and_order() {
        assert!(ClientId(1) < ClientId(2));
        assert_eq!(ClientId::from(5u64), ClientId(5));
        assert_eq!(ClientId(5).to_string(), "c5");
    }

    #[test]
    fn writer_id_orders_replicas_before_clients() {
        let r = WriterId::from(ReplicaId(u32::MAX));
        let c = WriterId::from(ClientId(0));
        assert!(r < c, "enum discriminant order: replicas sort first");
    }

    #[test]
    fn default_ids_are_zero() {
        assert_eq!(ReplicaId::default(), ReplicaId(0));
        assert_eq!(ClientId::default(), ClientId(0));
    }
}
