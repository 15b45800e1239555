//! [`MemEngine`]: the original in-memory backend — an ordered map.

use std::collections::BTreeMap;
use std::fmt;

use crate::slots::Slots;
use crate::{Key, StorageEngine};

/// Purely in-memory storage: one ordered per-key map of stable slots,
/// the one [`crate::LogEngine`] keeps too. Nothing survives a crash;
/// `sync` is a no-op.
#[derive(Clone, Default)]
pub struct MemEngine<S> {
    map: Slots<S>,
    reservation: Option<(u64, u64)>,
}

impl<S> MemEngine<S> {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        MemEngine {
            map: Slots::default(),
            reservation: None,
        }
    }

    /// Builds an engine pre-populated with `map` (snapshot support).
    #[must_use]
    pub fn from_map(map: BTreeMap<Key, S>) -> Self {
        MemEngine {
            map: map.into_iter().collect(),
            reservation: None,
        }
    }
}

impl<S> fmt::Debug for MemEngine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemEngine")
            .field("keys", &self.map.len())
            .finish()
    }
}

impl<S: Clone + Send + 'static> StorageEngine<S> for MemEngine<S> {
    fn get(&self, key: &[u8]) -> Option<&S> {
        self.map.get(key)
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
        let slot = self.map.slot(key, init);
        let state = self.map.at_mut(slot);
        mutate(state);
        state
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        self.map.remove(key).is_some()
    }

    fn clear(&mut self) {
        self.map.clear();
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (&Key, &S)> + '_> {
        Box::new(self.map.iter())
    }

    fn snapshot(&self) -> Box<dyn StorageEngine<S>> {
        // Detached audit copy: contents only, no reservation (snapshots
        // never mint dots) — matching `LogEngine::snapshot`.
        Box::new(MemEngine {
            map: self.map.clone(),
            reservation: None,
        })
    }

    fn sync(&mut self) {}

    fn load_reservation(&self) -> Option<(u64, u64)> {
        self.reservation
    }

    fn store_reservation(&mut self, epoch: u64, ceiling: u64) {
        self.reservation = Some((epoch, ceiling));
    }

    fn kind(&self) -> &'static str {
        "mem"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_remove_clear() {
        let mut e: MemEngine<u64> = MemEngine::new();
        let v = e.apply(b"a", &mut || 10, &mut |s| *s += 1);
        assert_eq!(*v, 11);
        e.apply(b"a", &mut || 10, &mut |s| *s += 1);
        assert_eq!(e.get(b"a"), Some(&12));
        assert_eq!(e.len(), 1);
        assert!(e.contains(b"a"));
        assert!(e.remove(b"a"));
        assert!(!e.remove(b"a"));
        e.apply(b"b", &mut || 0, &mut |_| {});
        e.clear();
        assert!(e.is_empty());
    }

    #[test]
    fn reservation_round_trips_in_process() {
        let mut e: MemEngine<u64> = MemEngine::new();
        assert_eq!(e.load_reservation(), None);
        e.store_reservation(2, 1024);
        assert_eq!(e.load_reservation(), Some((2, 1024)));
        // snapshots are detached audit copies; they do not carry the
        // reservation (they never mint dots)
        assert_eq!(e.snapshot().load_reservation(), None);
    }

    #[test]
    fn snapshot_is_detached() {
        let mut e: MemEngine<u64> = MemEngine::new();
        e.apply(b"k", &mut || 1, &mut |_| {});
        let snap = e.snapshot();
        e.apply(b"k", &mut || 0, &mut |s| *s = 9);
        assert_eq!(
            snap.get(b"k"),
            Some(&1),
            "snapshot unaffected by later writes"
        );
        assert_eq!(snap.kind(), "mem");
    }
}
