//! Quickstart: run the same YCSB workload against a blockchain (Quorum) and a
//! distributed database (etcd) and print the throughput/latency gap the paper
//! opens with.
//!
//! ```text
//! cargo run -p dichotomy-core --release --example quickstart
//! ```

use dichotomy_core::driver::{run_workload, DriverConfig};
use dichotomy_core::systems::{SystemKind, SystemSpec};
use dichotomy_core::workload::{YcsbConfig, YcsbMix, YcsbWorkload};

fn main() {
    let workload = || {
        YcsbWorkload::new(YcsbConfig {
            record_count: 5_000,
            record_size: 1_000,
            mix: YcsbMix::UpdateOnly,
            ..YcsbConfig::default()
        })
    };

    println!("YCSB update-only, 1 KB records, 5-node full replication\n");
    for (name, kind) in [
        ("Quorum (blockchain)", SystemKind::Quorum),
        ("etcd (database)", SystemKind::Etcd),
    ] {
        let mut system = SystemSpec::new(kind).with_nodes(5).build().unwrap();
        let stats = run_workload(
            system.as_mut(),
            &mut workload(),
            &DriverConfig::saturating(1_000),
        );
        println!(
            "{name:<22} {:>8.0} tps   mean latency {:>8.1} ms   p95 {:>8.1} ms",
            stats.metrics.throughput_tps,
            stats.metrics.latency.mean_us / 1000.0,
            stats.metrics.latency.p95_us as f64 / 1000.0,
        );
    }
    println!("\nThe gap — and where it comes from — is what the rest of the harness dissects;");
    println!("see `cargo run -p dichotomy-bench --bin repro -- all`.");
}
