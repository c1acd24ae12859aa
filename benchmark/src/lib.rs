//! The repo benchmark (see `README.md`): end-to-end elapsed time and
//! events per second over seven batch workloads, and a per-layer split
//! obtained by wrapping the simulator's trait-object boundaries from outside.

pub mod compare;
pub mod jsonio;
pub mod layers;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
