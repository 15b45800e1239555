//! [`Slots`]: the per-key map both engines keep their states in.

use std::collections::BTreeMap;

use crate::Key;

/// Values by key, iterated in key order, each at a stable index.
///
/// One ordered lookup finds or makes a key's slot ([`Slots::slot`]) and
/// copies the key only when it is new; from then on the caller reaches
/// the value by index. An engine's write — which must log the state it
/// wrote, possibly sync and compact, and then return that state — so
/// looks its key up once. A removed key's index is reused by the next
/// new one.
#[derive(Clone)]
pub(crate) struct Slots<T> {
    index: BTreeMap<Key, usize>,
    values: Vec<Option<T>>,
    free: Vec<usize>,
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots {
            index: BTreeMap::new(),
            values: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slots<T> {
    /// Number of keys held.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The value held for `key`, if any.
    pub(crate) fn get(&self, key: &[u8]) -> Option<&T> {
        self.index.get(key).map(|&i| self.at(i))
    }

    /// The index of `key`'s slot, made with `init()` if `key` is new.
    pub(crate) fn slot(&mut self, key: &[u8], init: impl FnOnce() -> T) -> usize {
        if let Some(&i) = self.index.get(key) {
            return i;
        }
        let i = self.place(init());
        self.index.insert(key.to_vec(), i);
        i
    }

    /// Holds `value` for `key`, returning the value it replaces.
    pub(crate) fn insert(&mut self, key: Key, value: T) -> Option<T> {
        match self.index.get(&key) {
            Some(&i) => self.values[i].replace(value),
            None => {
                let i = self.place(value);
                self.index.insert(key, i);
                None
            }
        }
    }

    /// The value at index `i`, which [`Slots::slot`] returned and no
    /// removal has freed since.
    pub(crate) fn at(&self, i: usize) -> &T {
        self.values[i].as_ref().expect("a live slot")
    }

    /// [`Slots::at`], mutably.
    pub(crate) fn at_mut(&mut self, i: usize) -> &mut T {
        self.values[i].as_mut().expect("a live slot")
    }

    /// Drops `key`, returning its value if it was held.
    pub(crate) fn remove(&mut self, key: &[u8]) -> Option<T> {
        let i = self.index.remove(key)?;
        self.free.push(i);
        self.values[i].take()
    }

    /// Drops every key.
    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.values.clear();
        self.free.clear();
    }

    /// `(key, value)` pairs in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Key, &T)> {
        self.index.iter().map(|(key, &i)| (key, self.at(i)))
    }

    fn place(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.values[i] = Some(value);
                i
            }
            None => {
                self.values.push(Some(value));
                self.values.len() - 1
            }
        }
    }
}

impl<T> FromIterator<(Key, T)> for Slots<T> {
    fn from_iter<I: IntoIterator<Item = (Key, T)>>(pairs: I) -> Self {
        let mut slots = Slots::default();
        for (key, value) in pairs {
            slots.insert(key, value);
        }
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_keeps_its_index_and_a_freed_one_is_reused() {
        let mut s: Slots<u64> = Slots::default();
        let a = s.slot(b"a", || 1);
        let b = s.slot(b"b", || 2);
        assert_eq!(s.slot(b"a", || unreachable!("a is held")), a);
        *s.at_mut(a) += 10;
        assert_eq!(s.get(b"a"), Some(&11));
        assert_eq!(s.remove(b"a"), Some(11));
        assert_eq!(s.get(b"a"), None);
        assert_eq!(s.slot(b"c", || 3), a, "the freed index is reused");
        assert_eq!(s.insert(b"b".to_vec(), 20), Some(2));
        assert_eq!(*s.at(b), 20);
        let held: Vec<_> = s.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(held, [(b"b".to_vec(), 20), (b"c".to_vec(), 3)]);
        assert_eq!(s.len(), 2);
        s.clear();
        assert_eq!((s.len(), s.get(b"b")), (0, None));
    }
}
