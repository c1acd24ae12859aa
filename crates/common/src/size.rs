//! Byte-level storage accounting.
//!
//! Figures 12 and 13 of the paper are pure storage-size measurements (bytes
//! per record in state storage, block storage, and under the MBT / MPT
//! authenticated indexes). To regenerate them, every storage component in the
//! workspace reports its footprint through the [`StorageFootprint`] trait,
//! and the helpers here aggregate per-record costs. Payload sizes come from
//! the canonical [`Encode`](crate::codec::Encode) byte encoding, so
//! accounting matches what would actually sit on a wire or on disk.

use crate::codec;

/// Breakdown of a component's storage consumption in bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageBreakdown {
    /// Bytes holding the raw record payloads (keys + values).
    pub payload_bytes: u64,
    /// Bytes holding index structures over the payloads (tree nodes, bucket
    /// directories, hashes of internal nodes...).
    pub index_bytes: u64,
    /// Bytes holding historical data: ledger blocks, old versions, WAL.
    pub history_bytes: u64,
}
codec!(Encode + Decode for struct StorageBreakdown { payload_bytes, index_bytes, history_bytes });

impl StorageBreakdown {
    /// Total footprint in bytes.
    pub fn total(&self) -> u64 {
        self.payload_bytes + self.index_bytes + self.history_bytes
    }

    /// Overhead per record beyond the raw payload (the quantity Figure 13
    /// reports for MBT vs MPT).
    pub fn overhead_per_record(&self, record_count: u64) -> f64 {
        if record_count == 0 {
            0.0
        } else {
            (self.index_bytes + self.history_bytes) as f64 / record_count as f64
        }
    }

    /// Element-wise sum of two breakdowns.
    pub fn merged(&self, other: &StorageBreakdown) -> StorageBreakdown {
        StorageBreakdown {
            payload_bytes: self.payload_bytes + other.payload_bytes,
            index_bytes: self.index_bytes + other.index_bytes,
            history_bytes: self.history_bytes + other.history_bytes,
        }
    }
}

/// Implemented by every component that occupies (simulated) storage.
pub trait StorageFootprint {
    /// Report the component's current footprint.
    fn footprint(&self) -> StorageBreakdown;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Encode;

    #[test]
    fn totals_and_per_record() {
        let b = StorageBreakdown {
            payload_bytes: 1000,
            index_bytes: 240,
            history_bytes: 760,
        };
        assert_eq!(b.total(), 2000);
        assert!((b.overhead_per_record(10) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn zero_records_is_not_a_division_by_zero() {
        let b = StorageBreakdown::default();
        assert_eq!(b.overhead_per_record(0), 0.0);
    }

    #[test]
    fn encoded_payload_accounting_matches_the_codec() {
        use crate::types::Value;
        let values = [Value::filler(10), Value::filler(100)];
        let payload_bytes: u64 = values.iter().map(|v| v.encoded_len() as u64).sum();
        // Each Value encodes as a 4-byte length prefix plus its payload.
        assert_eq!(payload_bytes, (4 + 10) + (4 + 100));
        let b = StorageBreakdown {
            payload_bytes,
            index_bytes: 0,
            history_bytes: 0,
        };
        assert_eq!(b.total(), 118);
        assert_eq!(b.encoded_len(), b.encode().len());
    }

    #[test]
    fn merged_adds_componentwise() {
        let a = StorageBreakdown {
            payload_bytes: 1,
            index_bytes: 2,
            history_bytes: 3,
        };
        let b = StorageBreakdown {
            payload_bytes: 10,
            index_bytes: 20,
            history_bytes: 30,
        };
        let m = a.merged(&b);
        assert_eq!(m.payload_bytes, 11);
        assert_eq!(m.index_bytes, 22);
        assert_eq!(m.history_bytes, 33);
        assert_eq!(m.total(), 66);
    }
}
