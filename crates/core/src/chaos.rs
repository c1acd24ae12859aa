//! Invariant oracles: cross-cutting correctness checks run over every
//! receipt stream after every probe (Rudra-style exhaustive checking applied
//! to model semantics instead of unsafe code).
//!
//! An [`InvariantOracle`] observes each [`TxnReceipt`] as the driver drains
//! it — so the checks work identically under `MetricsMode::Exact` and
//! `MetricsMode::Streaming` — and renders a verdict once the run is over.
//! The standard set ([`OracleSet::standard`]):
//!
//! * **`receipt-conservation`** — every submitted transaction produced
//!   exactly one receipt: observed receipts == arrivals issued. A fault
//!   schedule may abort transactions, but it must never lose them.
//! * **`no-duplicate-receipt`** — no transaction id is receipted twice.
//! * **`commit-order-monotonic`** — per-receipt causality (a transaction
//!   cannot finish before it was submitted), and for chain-committed
//!   receipts that claim a total order (a `commit_version` plus a
//!   `consensus` phase, i.e. block heights), the claimed order must agree
//!   with finish time: a higher block never completes before a lower one.
//! * **`no-clamped-events`** — the engine never clamped a stage event into
//!   the past; queueing stayed causal under the fault schedule.
//!
//! Violations surface as labelled probe failures (the scenario layer turns
//! them into `ProbeFailure`s) and as an oracle-report section per row in
//! `repro --json`.

use dichotomy_common::{codec, TxnId, TxnReceipt};
#[expect(
    clippy::disallowed_types,
    reason = "membership-only dedup set on the 1M-receipt hot path; iteration order never observed"
)]
use std::collections::HashSet;

/// End-of-run facts the driver hands every oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleContext {
    /// Arrivals the driver issued (excluding preload).
    pub arrivals_issued: u64,
    /// Stage events the engine clamped into the past.
    pub events_clamped: u64,
}

/// A cross-cutting invariant checked over one run's receipt stream.
///
/// Implementations accumulate state in [`observe`](Self::observe) (called
/// once per receipt, in the order the run surfaced them) and deliver the
/// verdict in [`check`](Self::check).
pub trait InvariantOracle: Send {
    /// Stable label, used in probe-failure messages and the JSON report.
    fn name(&self) -> &'static str;
    /// Observe one receipt.
    fn observe(&mut self, receipt: &TxnReceipt);
    /// Final verdict: `Err(description)` on violation.
    fn check(&mut self, ctx: &OracleContext) -> Result<(), String>;
}

/// One oracle's verdict for a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleOutcome {
    /// The oracle's label.
    pub name: &'static str,
    /// `Some(description)` if the invariant was violated.
    pub violation: Option<String>,
}
codec!(Encode + Decode for struct OracleOutcome { name, violation });

/// All oracle verdicts for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleReport {
    /// One outcome per oracle, in registration order.
    pub outcomes: Vec<OracleOutcome>,
}
codec!(Encode + Decode for struct OracleReport { outcomes });

impl OracleReport {
    /// Whether every oracle passed (vacuously true when none ran).
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.violation.is_none())
    }

    /// The violated outcomes, in registration order.
    pub fn violations(&self) -> impl Iterator<Item = &OracleOutcome> {
        self.outcomes.iter().filter(|o| o.violation.is_some())
    }
}

/// The oracle battery one run feeds: receipts in, [`OracleReport`] out.
pub struct OracleSet {
    oracles: Vec<Box<dyn InvariantOracle>>,
}

impl OracleSet {
    /// No oracles (runs that opt out of checking).
    pub fn empty() -> Self {
        OracleSet {
            oracles: Vec::new(),
        }
    }

    /// The standard battery documented at the module level.
    pub fn standard() -> Self {
        OracleSet {
            oracles: vec![
                Box::new(ReceiptConservation::default()),
                Box::new(NoDuplicateReceipt::default()),
                Box::new(CommitOrderMonotonic::default()),
                Box::new(NoClampedEvents),
            ],
        }
    }

    /// Whether the set holds no oracles.
    pub fn is_empty(&self) -> bool {
        self.oracles.is_empty()
    }

    /// Feed one receipt to every oracle.
    pub fn observe(&mut self, receipt: &TxnReceipt) {
        for oracle in &mut self.oracles {
            oracle.observe(receipt);
        }
    }

    /// Feed a drained batch.
    pub fn observe_all(&mut self, receipts: &[TxnReceipt]) {
        for r in receipts {
            self.observe(r);
        }
    }

    /// Collect every verdict.
    pub fn finish(mut self, ctx: OracleContext) -> OracleReport {
        OracleReport {
            outcomes: self
                .oracles
                .iter_mut()
                .map(|oracle| OracleOutcome {
                    name: oracle.name(),
                    violation: oracle.check(&ctx).err(),
                })
                .collect(),
        }
    }
}

/// `receipt-conservation`: observed receipts == arrivals issued.
#[derive(Default)]
struct ReceiptConservation {
    observed: u64,
}

impl InvariantOracle for ReceiptConservation {
    fn name(&self) -> &'static str {
        "receipt-conservation"
    }

    fn observe(&mut self, _receipt: &TxnReceipt) {
        self.observed += 1;
    }

    fn check(&mut self, ctx: &OracleContext) -> Result<(), String> {
        if self.observed == ctx.arrivals_issued {
            Ok(())
        } else {
            Err(format!(
                "{} arrivals issued but {} receipts observed ({} {})",
                ctx.arrivals_issued,
                self.observed,
                ctx.arrivals_issued.abs_diff(self.observed),
                if self.observed < ctx.arrivals_issued {
                    "lost"
                } else {
                    "conjured"
                },
            ))
        }
    }
}

/// `no-duplicate-receipt`: no transaction id receipted twice.
#[derive(Default)]
struct NoDuplicateReceipt {
    #[expect(
        clippy::disallowed_types,
        reason = "contains-then-insert only; nothing iterates it"
    )]
    seen: HashSet<TxnId>,
    first_duplicate: Option<TxnId>,
}

impl InvariantOracle for NoDuplicateReceipt {
    fn name(&self) -> &'static str {
        "no-duplicate-receipt"
    }

    fn observe(&mut self, receipt: &TxnReceipt) {
        if !self.seen.insert(receipt.txn_id) && self.first_duplicate.is_none() {
            self.first_duplicate = Some(receipt.txn_id);
        }
    }

    fn check(&mut self, _ctx: &OracleContext) -> Result<(), String> {
        match self.first_duplicate {
            None => Ok(()),
            Some(id) => Err(format!("transaction {id:?} was receipted more than once")),
        }
    }
}

/// `commit-order-monotonic`: per-receipt causality, plus agreement between
/// claimed chain order and time for block-committed receipts.
#[derive(Default)]
struct CommitOrderMonotonic {
    /// First receipt that finished before it was submitted.
    causality_break: Option<(TxnId, u64, u64)>,
    /// (finish, observation index, block height) of chain-committed receipts.
    chain: Vec<(u64, usize, u64)>,
    observed: usize,
}

impl InvariantOracle for CommitOrderMonotonic {
    fn name(&self) -> &'static str {
        "commit-order-monotonic"
    }

    fn observe(&mut self, receipt: &TxnReceipt) {
        let idx = self.observed;
        self.observed += 1;
        if receipt.finish_time < receipt.submit_time && self.causality_break.is_none() {
            self.causality_break = Some((receipt.txn_id, receipt.submit_time, receipt.finish_time));
        }
        // Only chain commits claim a total order the oracle can hold against
        // time: a commit_version (block height) plus a consensus phase.
        if receipt.status.is_committed() {
            if let Some(height) = receipt.commit_version {
                if receipt
                    .phase_latencies
                    .iter()
                    .any(|(name, _)| *name == "consensus")
                {
                    self.chain.push((receipt.finish_time, idx, height));
                }
            }
        }
    }

    fn check(&mut self, _ctx: &OracleContext) -> Result<(), String> {
        if let Some((id, submit, finish)) = self.causality_break {
            return Err(format!(
                "transaction {id:?} finished at {finish} before its submission at {submit}"
            ));
        }
        self.chain
            .sort_unstable_by_key(|&(finish, idx, _)| (finish, idx));
        let mut prev: Option<(u64, u64)> = None;
        for &(finish, _, height) in &self.chain {
            if let Some((prev_height, prev_finish)) = prev {
                if height < prev_height {
                    return Err(format!(
                        "block {height} (finish {finish}) completed after block \
                         {prev_height} (finish {prev_finish})"
                    ));
                }
            }
            prev = Some((height, finish));
        }
        Ok(())
    }
}

/// `no-clamped-events`: the engine never clamped a stage event into the past.
struct NoClampedEvents;

impl InvariantOracle for NoClampedEvents {
    fn name(&self) -> &'static str {
        "no-clamped-events"
    }

    fn observe(&mut self, _receipt: &TxnReceipt) {}

    fn check(&mut self, ctx: &OracleContext) -> Result<(), String> {
        if ctx.events_clamped == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} stage events were clamped into the past",
                ctx.events_clamped
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dichotomy_common::{AbortReason, ClientId};

    fn committed(seq: u64, submit: u64, finish: u64) -> TxnReceipt {
        TxnReceipt::committed(TxnId::new(ClientId(1), seq), submit, finish)
    }

    fn chain_committed(seq: u64, submit: u64, finish: u64, height: u64) -> TxnReceipt {
        let mut r = committed(seq, submit, finish);
        r.commit_version = Some(height);
        r.phase_latencies = vec![("proposal", 1), ("consensus", 1), ("commit", 1)];
        r
    }

    fn run(receipts: &[TxnReceipt], ctx: OracleContext) -> OracleReport {
        let mut set = OracleSet::standard();
        set.observe_all(receipts);
        set.finish(ctx)
    }

    #[test]
    fn a_clean_run_passes_every_oracle() {
        let receipts = vec![
            committed(1, 100, 200),
            chain_committed(2, 150, 300, 1),
            chain_committed(3, 160, 300, 1),
            chain_committed(4, 400, 500, 2),
        ];
        let report = run(
            &receipts,
            OracleContext {
                arrivals_issued: 4,
                events_clamped: 0,
            },
        );
        assert!(report.passed(), "{:?}", report);
        assert_eq!(report.outcomes.len(), 4);
    }

    #[test]
    fn a_lost_receipt_trips_conservation() {
        let receipts = vec![committed(1, 100, 200)];
        let report = run(
            &receipts,
            OracleContext {
                arrivals_issued: 2,
                events_clamped: 0,
            },
        );
        let v: Vec<_> = report.violations().collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].name, "receipt-conservation");
        assert!(v[0].violation.as_ref().unwrap().contains("lost"));
    }

    #[test]
    fn a_conjured_receipt_also_trips_conservation() {
        let receipts = vec![committed(1, 100, 200), committed(2, 100, 200)];
        let report = run(
            &receipts,
            OracleContext {
                arrivals_issued: 1,
                events_clamped: 0,
            },
        );
        let v: Vec<_> = report.violations().collect();
        assert_eq!(v.len(), 1);
        assert!(v[0].violation.as_ref().unwrap().contains("conjured"));
    }

    #[test]
    fn a_duplicated_receipt_trips_the_duplicate_oracle() {
        let receipts = vec![committed(1, 100, 200), committed(1, 100, 200)];
        let report = run(
            &receipts,
            OracleContext {
                arrivals_issued: 2,
                events_clamped: 0,
            },
        );
        let names: Vec<_> = report.violations().map(|o| o.name).collect();
        assert!(names.contains(&"no-duplicate-receipt"), "{names:?}");
    }

    #[test]
    fn a_receipt_finishing_before_submission_breaks_causality() {
        let receipts = vec![committed(1, 500, 200)];
        let report = run(
            &receipts,
            OracleContext {
                arrivals_issued: 1,
                events_clamped: 0,
            },
        );
        let v: Vec<_> = report.violations().collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].name, "commit-order-monotonic");
    }

    #[test]
    fn a_higher_block_finishing_first_breaks_chain_order() {
        let receipts = vec![
            chain_committed(1, 100, 900, 1),
            chain_committed(2, 100, 500, 2),
        ];
        let report = run(
            &receipts,
            OracleContext {
                arrivals_issued: 2,
                events_clamped: 0,
            },
        );
        let v: Vec<_> = report.violations().collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].name, "commit-order-monotonic");
        assert!(v[0].violation.as_ref().unwrap().contains("block"));
    }

    #[test]
    fn clamped_events_trip_their_oracle_even_with_clean_receipts() {
        let report = run(
            &[],
            OracleContext {
                arrivals_issued: 0,
                events_clamped: 3,
            },
        );
        let v: Vec<_> = report.violations().collect();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].name, "no-clamped-events");
    }

    #[test]
    fn aborted_receipts_count_toward_conservation_like_any_other() {
        let mut aborted =
            TxnReceipt::aborted(TxnId::new(ClientId(2), 9), AbortReason::Overload, 100, 400);
        aborted.commit_version = None;
        let report = run(
            &[committed(1, 100, 200), aborted],
            OracleContext {
                arrivals_issued: 2,
                events_clamped: 0,
            },
        );
        assert!(report.passed());
    }
}
