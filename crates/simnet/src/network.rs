//! The cluster network configuration.
//!
//! The paper's testbed is a 96-node cluster on 1 Gb Ethernet. A
//! [`NetworkConfig`] describes it as a full mesh with a per-message base
//! latency (propagation + kernel/stack overhead), a serialization term
//! proportional to message size at the configured bandwidth, and a jitter
//! bound. The closed-form replication profiles in `dichotomy-consensus` and
//! the system models read their message hops from it; crashes and
//! partitions are a separate [`crate::fault::FaultPlan`].

/// Static description of the cluster network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// One-way base latency between two distinct nodes, in µs. LAN default
    /// reflects the paper's in-house 1 Gb Ethernet cluster.
    pub base_latency_us: u64,
    /// Additional uniform jitter bound in µs (actual jitter ∈ [0, bound]).
    pub jitter_us: u64,
    /// Link bandwidth in bytes per microsecond (125 B/µs = 1 Gb/s).
    pub bandwidth_bytes_per_us: f64,
}

impl NetworkConfig {
    /// The paper's evaluation network: 1 Gb Ethernet LAN, ~250 µs one-way
    /// application-to-application latency.
    pub fn lan_1gbps() -> Self {
        NetworkConfig {
            base_latency_us: 250,
            jitter_us: 50,
            bandwidth_bytes_per_us: 125.0,
        }
    }
}
