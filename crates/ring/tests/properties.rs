//! Property tests for sloppy preference lists: whatever the set of down
//! nodes, routing must name `n` distinct routable nodes whenever that
//! many exist, never route to a down node, and every substitution must
//! stand in for a genuinely down preferred replica.

use std::collections::BTreeSet;

use proptest::collection::vec;
use proptest::prelude::*;

use ring::{hash_key, HashRing};

/// A routing scenario: `member_count` nodes, a down-or-routable draw per
/// node, and a key.
fn arb_scenario() -> impl Strategy<Value = (u32, Vec<bool>, Vec<u8>)> {
    (2u32..9, vec(any::<bool>(), 8), vec(any::<u8>(), 1..24))
        .prop_map(|(count, down, key)| (count, down, key))
}

proptest! {
    #[test]
    fn sloppy_lists_are_distinct_routable_and_substitutions_are_down(
        scenario in arb_scenario(),
        n in 1usize..5,
    ) {
        let (count, draws, key) = scenario;
        let ring: HashRing<u32> = HashRing::with_vnodes(0..count, 16);
        let down: BTreeSet<u32> = (0..count).filter(|x| draws[*x as usize % draws.len()]).collect();
        let routable_node = |x: &u32| !down.contains(x);
        let routable = (0..count).filter(routable_node).count();

        let (active, subs) = ring.sloppy_preference_list_at(hash_key(&key), n, routable_node);

        // n distinct routable nodes whenever that many are available
        prop_assert_eq!(active.len(), n.min(routable), "short list despite capacity");
        let mut dedup = active.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), active.len(), "duplicate active node");
        for node in &active {
            prop_assert!(routable_node(node), "routed to down node {}", node);
        }

        // every substitution replaces a genuinely down preferred replica,
        // and its fallback actually serves
        let ideal = ring.preference_list(&key, n);
        for (intended, fallback) in &subs {
            prop_assert!(!routable_node(intended), "substituted a routable node");
            prop_assert!(ideal.contains(intended), "intended not in the ideal list");
            prop_assert!(active.contains(fallback), "fallback not active");
            prop_assert!(!ideal.contains(fallback), "fallback was already preferred");
        }

        // routable preferred replicas are always used directly
        for node in &ideal {
            if routable_node(node) {
                prop_assert!(active.contains(node), "skipped a routable owner");
            }
        }
    }
}
