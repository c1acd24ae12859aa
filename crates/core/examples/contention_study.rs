//! Contention study (the Figure 9 scenario): sweep the Zipfian skew and watch
//! the concurrency-control choices diverge — TiDB pays contention rounds on
//! keys still held by in-flight writes and aborts when the holder outlasts
//! them, Fabric's OCC aborts climb, while the serial executors (Quorum, etcd)
//! do not care.
//!
//! ```text
//! cargo run -p dichotomy-core --release --example contention_study
//! ```

use dichotomy_core::driver::{run_workload, DriverConfig};
use dichotomy_core::systems::{SystemKind, SystemSpec};
use dichotomy_core::workload::{YcsbConfig, YcsbMix, YcsbWorkload};

fn run(spec: SystemSpec, theta: f64) -> (f64, f64) {
    let mut system = spec.build().unwrap();
    let mut workload = YcsbWorkload::new(YcsbConfig {
        record_count: 5_000,
        record_size: 1_000,
        zipf_theta: theta,
        mix: YcsbMix::ReadModifyWrite,
        ..YcsbConfig::default()
    });
    let stats = run_workload(
        system.as_mut(),
        &mut workload,
        &DriverConfig::saturating(800),
    );
    (
        stats.metrics.throughput_tps,
        stats.metrics.abort_rate_percent(),
    )
}

fn main() {
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>14} {:>14}",
        "theta", "Fabric tps", "Quorum tps", "TiDB tps", "etcd tps", "Fabric abort%", "TiDB abort%"
    );
    for theta in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let (fabric_tps, fabric_ab) = run(SystemSpec::new(SystemKind::Fabric), theta);
        let (quorum_tps, _) = run(SystemSpec::new(SystemKind::Quorum), theta);
        // Figure 9's deployment: three SQL servers over three TiKV nodes.
        let tidb = SystemSpec::new(SystemKind::TiDb).with_frontends(3);
        let (tidb_tps, tidb_ab) = run(tidb, theta);
        let (etcd_tps, _) = run(SystemSpec::new(SystemKind::Etcd), theta);
        println!(
            "{theta:<8.1} {fabric_tps:>12.0} {quorum_tps:>12.0} {tidb_tps:>12.0} {etcd_tps:>12.0} {fabric_ab:>14.1} {tidb_ab:>14.1}"
        );
    }
}
