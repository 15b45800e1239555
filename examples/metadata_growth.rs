//! Claim 3 in action: per-version clock size as the client population
//! grows — DVV stays bounded by the replica count, per-client VVs grow,
//! pruning stays small but corrupts causality.
//!
//! Run with `cargo run --release --example metadata_growth`.

use dvv::mechanisms::{DvvMechanism, DvvSetMechanism, Mechanism, VvClientMechanism};
use kvstore::cluster::{Cluster, ClusterConfig};
use kvstore::config::ClientConfig;
use kvstore::{FleetHarness, StampedValue};
use simnet::Duration;

fn run_one<M: Mechanism<StampedValue>>(mech: M, clients: usize) -> (f64, u64, u64) {
    let config = ClusterConfig {
        servers: 3,
        clients,
        cycles_per_client: 6,
        client: ClientConfig {
            key_count: 1,
            think_time: Duration::from_micros(200),
            ..ClientConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(7, mech, config);
    cluster.run();
    cluster.converge();
    let meta = cluster.metadata_report();
    let report = cluster.anomaly_report();
    let per_version = meta.mean_bytes_per_key / meta.mean_siblings.max(1.0);
    (per_version, report.lost_updates, report.false_concurrency)
}

fn main() {
    println!("per-version causal metadata (bytes) vs number of clients");
    println!("3 replica servers, 1 hot key, read-modify-write sessions\n");
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>16}",
        "clients", "dvv", "dvvset", "vv-client", "vv-pruned(4)"
    );
    for clients in [2usize, 4, 8, 16, 32, 64] {
        let (dvv, l1, f1) = run_one(DvvMechanism, clients);
        let (dvvset, l2, f2) = run_one(DvvSetMechanism, clients);
        let (vvc, l3, f3) = run_one(VvClientMechanism::unbounded(), clients);
        let (vvp, l4, f4) = run_one(VvClientMechanism::pruned(4), clients);
        assert_eq!(
            (l1, f1, l2, f2, l3, f3),
            (0, 0, 0, 0, 0, 0),
            "correct mechanisms stay clean"
        );
        let anomaly_tag = if l4 + f4 > 0 {
            format!("{vvp:.1} (UNSAFE: {} anomalies)", l4 + f4)
        } else {
            format!("{vvp:.1}")
        };
        println!("{clients:>8} {dvv:>10.1} {dvvset:>10.1} {vvc:>12.1} {anomaly_tag:>16}");
    }
    println!("\nDVV/DVVSet columns stay flat (bounded by 3 replicas);");
    println!("the per-client column grows linearly; the pruned column is");
    println!("bounded *only by sacrificing correctness*.");
}
