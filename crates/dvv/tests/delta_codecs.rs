//! Property coverage for the delta codecs in `dvv::encode`: sorted-id
//! gap deltas, `(id, hash)` runs and the shared-prefix leaf-set form.
//! Mirrors
//! `encode_roundtrip.rs`: decode∘encode = id and truncation always
//! errors instead of panicking — plus the bit-pack boundary widths that
//! unit tests can only spot-check. Sizes need no property of their own:
//! they are the encoders run over the counting sink, so one smoke check
//! per codec that the two sinks agree is all that is left to pin.

use std::collections::BTreeMap;

use dvv::encode::{
    get_id_value_pairs, get_leaf_set, get_sorted_ids, put_id_value_pairs, put_leaf_set,
    put_sorted_ids, BitReader, BitWriter, Count, Decoder,
};
use proptest::collection::{btree_map, vec};
use proptest::prelude::*;

fn arb_sorted_ids() -> impl Strategy<Value = Vec<u64>> {
    vec(0u64..1 << 48, 0..40).prop_map(|mut v| {
        v.sort_unstable();
        v.dedup();
        v
    })
}

fn arb_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    btree_map(0u64..1 << 32, any::<u64>(), 0..30)
        .prop_map(|m: BTreeMap<u64, u64>| m.into_iter().collect())
}

fn arb_leaves() -> impl Strategy<Value = Vec<(Vec<u8>, u64)>> {
    btree_map(vec(any::<u8>(), 0..12), any::<u64>(), 0..30)
        .prop_map(|m: BTreeMap<Vec<u8>, u64>| m.into_iter().collect())
}

/// Counting is encoding: each codec run over [`Count`] reports exactly
/// the bytes it appends to a `Vec<u8>`.
#[test]
fn counting_sink_agrees_with_byte_sink() {
    macro_rules! same_len {
        ($put:ident, $arg:expr) => {{
            let (mut buf, mut n) = (Vec::new(), Count(0));
            $put(&mut buf, $arg);
            $put(&mut n, $arg);
            assert_eq!(n.0, buf.len());
            assert!(!buf.is_empty());
        }};
    }
    same_len!(put_sorted_ids, &[3u64, 4, 900, 1 << 40]);
    same_len!(
        put_id_value_pairs,
        &[(1u64, 0x1ff_u64), (2, 3), (70, 1 << 33)]
    );
    same_len!(
        put_leaf_set,
        &[(b"user:1".to_vec(), 77u64), (b"user:22".to_vec(), 1 << 50)]
    );
}

proptest! {
    #[test]
    fn bitpack_roundtrips_any_width(values in vec(any::<u64>(), 1..50), width in 0u64..=64) {
        let width = width as u32;
        let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
        let values: Vec<u64> = values.into_iter().map(|v| v & mask).collect();
        let mut buf = Vec::new();
        let mut w = BitWriter::new(&mut buf);
        for &v in &values {
            w.write(v, width);
        }
        w.finish();
        prop_assert_eq!(buf.len(), (values.len() * width as usize).div_ceil(8));
        let mut d = Decoder::new(&buf);
        let mut r = BitReader::new(&mut d);
        for &v in &values {
            prop_assert_eq!(r.read(width).unwrap(), v);
        }
    }

    #[test]
    fn roundtrip_sorted_ids(ids in arb_sorted_ids()) {
        let mut buf = Vec::new();
        put_sorted_ids(&mut buf, &ids);
        let mut d = Decoder::new(&buf);
        prop_assert_eq!(get_sorted_ids(&mut d).unwrap(), ids);
        prop_assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn roundtrip_id_value_pairs(pairs in arb_pairs()) {
        let mut buf = Vec::new();
        put_id_value_pairs(&mut buf, &pairs);
        let mut d = Decoder::new(&buf);
        prop_assert_eq!(get_id_value_pairs(&mut d).unwrap(), pairs);
        prop_assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn roundtrip_leaf_set(leaves in arb_leaves()) {
        let mut buf = Vec::new();
        put_leaf_set(&mut buf, &leaves);
        let mut d = Decoder::new(&buf);
        prop_assert_eq!(get_leaf_set(&mut d).unwrap(), leaves);
        prop_assert_eq!(d.remaining(), 0);
    }

    /// Every strict prefix of a valid encoding errors cleanly for each
    /// codec — no panic, no fabricated value that consumes zero input.
    #[test]
    fn truncation_always_errors(
        pairs in arb_pairs(),
        leaves in arb_leaves(),
        cut in 0usize..4096,
    ) {
        let mut buf = Vec::new();
        put_id_value_pairs(&mut buf, &pairs);
        if !pairs.is_empty() {
            let cut = cut % buf.len();
            let mut d = Decoder::new(&buf[..cut]);
            prop_assert!(get_id_value_pairs(&mut d).is_err());
        }

        let mut buf = Vec::new();
        put_leaf_set(&mut buf, &leaves);
        if !leaves.is_empty() {
            let cut = cut % buf.len();
            let mut d = Decoder::new(&buf[..cut]);
            prop_assert!(get_leaf_set(&mut d).is_err());
        }
    }
}
