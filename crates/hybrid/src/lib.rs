//! The taxonomy (Tables 1 and 2) as queryable data, and the
//! back-of-the-envelope forecast framework for hybrid blockchain–database
//! systems (Section 5.6, Figure 15).

#![forbid(unsafe_code)]

pub mod forecast;
pub mod taxonomy;

pub use forecast::{
    forecast_throughput, forecast_txn_cost_us, try_forecast_throughput, ForecastError, HybridSpec,
    ThroughputBand,
};
pub use taxonomy::{
    all_systems, ConcurrencyChoice, LedgerSupport, ReplicationModel, ShardingSupport, StorageIndex,
    SystemCategory, SystemProfile,
};
