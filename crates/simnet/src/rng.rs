//! Seeded, splittable randomness: every simulation run is a pure function
//! of one `u64` seed.

/// The simulator's random-number generator.
///
/// xoshiro256++, its state expanded from the seed by SplitMix64. The
/// exact stream is part of what a seeded run promises (the `figures`
/// tables and every byte pin are drawn from it), so it is written here
/// and pinned by `rng::tests::the_stream_is_pinned`. [`SimRng::fork`]
/// derives an independent stream for a sub-concern (one per node, one
/// for the network, one for the workload…). Forking keeps event-order
/// changes in one component from perturbing the random choices of
/// another — the key to debuggable, reproducible simulations.
///
/// # Examples
///
/// ```
/// use simnet::SimRng;
/// let mut a = SimRng::new(7);
/// let mut b = SimRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64(), "same seed, same stream");
/// let mut net = a.fork("network");
/// let mut wl = a.fork("workload");
/// assert_ne!(net.next_u64(), wl.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let (mut s, mut state) = ([0; 4], seed);
        for word in &mut s {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            *word = mix(state, 0);
        }
        // xoshiro must not start from the all-zero state
        if s == [0; 4] {
            s = [
                0x9e37_79b9_7f4a_7c15,
                0xbf58_476d_1ce4_e5b9,
                0x94d0_49bb_1331_11eb,
                0x2545_f491_4f6c_dd1d,
            ];
        }
        SimRng { seed, s }
    }

    /// The seed this stream was created from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent stream identified by `label`.
    ///
    /// The child seed mixes the parent seed with a hash of the label, so
    /// `fork("a")` and `fork("b")` are decorrelated while remaining pure
    /// functions of the root seed.
    #[must_use]
    pub fn fork(&self, label: &str) -> SimRng {
        SimRng::new(mix(self.seed, hash_label(label)))
    }

    /// Derives an independent stream for an indexed sub-concern (e.g. one
    /// per node).
    #[must_use]
    pub fn fork_indexed(&self, label: &str, index: u64) -> SimRng {
        SimRng::new(mix(mix(self.seed, hash_label(label)), index))
    }

    /// Next `u64` from the stream: one xoshiro256++ step.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw in `[0, 1)`, with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        // widening multiply: the high word of `x * span` is in `[0, span)`
        let x = u128::from(self.next_u64());
        lo + ((x * u128::from(hi - lo)) >> 64) as u64
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit_f64() < p
        }
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.range_u64(0, items.len() as u64) as usize]
    }
}

/// FNV-1a over the label bytes.
fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates related seeds, and with `b = 0`
/// finishes one SplitMix64 step of [`SimRng::new`].
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(1);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// The exact stream is part of what a seeded run promises: the
    /// `figures` tables and every byte pin are drawn from it.
    #[test]
    fn the_stream_is_pinned() {
        let root = SimRng::new(31);
        let mut a = root.clone();
        let first: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(
            first,
            [
                1_608_199_006_042_769_680,
                17_846_835_057_330_237_361,
                15_144_820_562_852_230_907,
                16_179_594_942_972_196_105,
            ]
        );
        assert_eq!(root.fork("network").next_u64(), 11_530_872_215_767_005_006);
        assert_eq!(
            root.fork_indexed("node", 3).next_u64(),
            11_501_594_042_152_464_492
        );
        assert_eq!(a.unit_f64().to_bits(), 4_605_533_476_510_592_481);
        assert_eq!(a.range_u64(10, 1_000_003), 263_834);
        assert_eq!(SimRng::new(0).next_u64(), 5_987_356_902_031_041_503);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn forks_are_independent_and_reproducible() {
        let root = SimRng::new(99);
        let mut x1 = root.fork("x");
        let mut x2 = root.fork("x");
        let y = root.fork("y");
        assert_eq!(x1.next_u64(), x2.next_u64());
        assert_ne!(x1.seed(), y.seed());
        let mut i0 = root.fork_indexed("node", 0);
        let mut i1 = root.fork_indexed("node", 1);
        assert_ne!(i0.next_u64(), i1.next_u64());
    }

    #[test]
    fn unit_f64_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(4);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn range_and_pick() {
        let mut r = SimRng::new(5);
        for _ in 0..100 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
        let items = [1, 2, 3];
        for _ in 0..20 {
            assert!(items.contains(r.pick(&items)));
        }
    }

    #[test]
    fn range_u64_mean_is_centred() {
        let mut r = SimRng::new(11);
        let n = 100_000u64;
        let sum: u64 = (0..n).map(|_| r.range_u64(0, 100)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 49.5).abs() < 0.5, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        SimRng::new(0).range_u64(5, 5);
    }

    #[test]
    #[should_panic(expected = "empty slice")]
    fn empty_pick_panics() {
        SimRng::new(0).pick::<u8>(&[]);
    }
}
