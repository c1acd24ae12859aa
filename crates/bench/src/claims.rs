//! The paper's claims as one table of checked rows.
//!
//! The paper argues in orderings, and the plans here run far below its
//! cluster's scale, so a row checks an ordering (with a margin where one
//! matters), never an absolute number. A row names the experiment whose
//! report it reads and records whether its claim holds at quick and at full
//! size; a claim that does not hold is [`Status::Deviates`], with the ROADMAP
//! direction that would fix it, so a change that flips a row edits the table.
//! Each claim is paraphrased and names its figure or section: the repository
//! carries only the paper's abstract, so there is no text to quote.
//!
//! `tests/claims.rs` evaluates every row on fresh runs at the default seed:
//! at quick size in `cargo test`, at full size in release from
//! `scripts/ci.sh`.

use dichotomy_core::experiments::{
    chaos01_span_us, fault01_span_us, ramp01_phase_us, ExperimentReport, Row, CLOSED01_CLIENTS,
    CLOSED01_THINK_US,
};
use dichotomy_core::metrics::TimeSeries;
use dichotomy_core::systems::SystemKind;
use Status::{Deviates, Holds};

/// Whether a claim holds at one size, as the table records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The evaluator passes.
    Holds,
    /// The evaluator fails, for the reason given: the ROADMAP direction that
    /// would fix it, or "unexplained".
    Deviates(&'static str),
}

/// One checked claim of the paper.
#[derive(Clone, Copy)]
pub struct Claim {
    /// Row id, `<experiment>.<claim>`.
    pub id: &'static str,
    /// The [`EXPERIMENTS`](crate::EXPERIMENTS) id whose report the row reads.
    pub experiment: &'static str,
    /// The claim in one sentence, naming its figure or section.
    pub claim: &'static str,
    /// Evaluates the claim; `Err` names the cells and values that break it.
    pub check: fn(&ExperimentReport) -> Result<(), String>,
    /// The recorded status at quick size (`repro --quick`).
    pub quick: Status,
    /// The recorded status at full size.
    pub full: Status,
}

impl Claim {
    /// Evaluate the claim on `report`, run at quick or full size; `Err` says
    /// how the outcome disagrees with the recorded status.
    pub fn verify(&self, report: &ExperimentReport, quick: bool) -> Result<(), String> {
        let recorded = if quick { self.quick } else { self.full };
        match ((self.check)(report), recorded) {
            (Ok(()), Holds) | (Err(_), Deviates(_)) => Ok(()),
            (Err(why), Holds) => Err(format!("{}: recorded Holds, but {why}", self.id)),
            (Ok(()), Deviates(why)) => Err(format!("{}: recorded Deviates ({why})", self.id)),
        }
    }
}

const TIDB_NEVER_ABORTS: &str = "direction 3: TiDB_abort_% is 0.0 in every row";
const AHL_QUICK_BEFORE_EPOCH: &str = "direction 2: the quick AHL runs end at 0.58-1.96 s, before \
                                      the first 2 s epoch, so no pause lands and AHL_reconfig_tps \
                                      equals AHL_fixed_tps in every row";
const CRASH_INVISIBLE: &str = "unexplained: etcd, TiKV and Spanner-like tps equal baseline in \
                               every fault row, and AHL's on primary-crash";
const QUICK_TAB05_NOT_SQL_BOUND: &str = "direction 2: at 11 TiDB servers the quick run is not \
                                         bound by the SQL layer alone, so 7 TiKV read 1.3 % \
                                         above 3 TiKV";
const QUICK_RAMP_TOO_SHORT: &str = "direction 2: the quick phase 1 spans 33 ms, so its windows \
                                    see 8 arrivals, no commit and p50 0";

/// Every checked claim, in [`EXPERIMENTS`](crate::EXPERIMENTS) order; `tab02`
/// (the qualitative taxonomy) has none.
pub const CLAIMS: &[Claim] = &[
    Claim {
        id: "fig04.order",
        experiment: "fig04",
        claim: "Fig. 4: on YCSB updates Quorum < Fabric < TiDB < etcd and TiKV > TiDB, \
                and every system serves queries faster than updates.",
        check: |r| {
            let update = |system| cell(r, system, "update_tps");
            more(&update("Fabric")?, &update("Quorum")?, 1.1)?;
            more(&update("TiDB")?, &update("Fabric")?, 1.1)?;
            more(&update("etcd")?, &update("TiDB")?, 1.1)?;
            more(&update("TiKV")?, &update("TiDB")?, 1.1)?;
            let systems = ["Fabric", "Quorum", "TiDB", "etcd", "TiKV"];
            systems
                .iter()
                .try_for_each(|s| more(&cell(r, s, "query_tps")?, &update(s)?, 1.0))
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "fig05.latency-order",
        experiment: "fig05",
        claim: "Fig. 5: both blockchains commit updates slower than TiDB, which with etcd \
                stays under 100 ms, and Fabric answers queries slower than TiDB.",
        check: |r| {
            let update = |system| cell(r, system, "update_ms");
            more(&update("Fabric")?, &update("TiDB")?, 1.0)?;
            more(&update("Quorum")?, &update("TiDB")?, 1.0)?;
            less(&update("TiDB")?, &Cell::bound(100.0), 1.0)?;
            less(&update("etcd")?, &Cell::bound(100.0), 1.0)?;
            let query = |system| cell(r, system, "query_ms");
            more(&query("Fabric")?, &query("TiDB")?, 1.0)
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "fig06.fabric-aborts",
        experiment: "fig06",
        claim: "Fig. 6: under skewed Smallbank Fabric aborts over a tenth of its transactions.",
        check: |r| more(&cell(r, "Fabric", "abort_%")?, &Cell::bound(10.0), 1.0),
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "fig06.tidb-aborts",
        experiment: "fig06",
        claim: "Fig. 6: under skewed Smallbank TiDB aborts transactions too.",
        check: |r| more(&cell(r, "TiDB", "abort_%")?, &Cell::bound(0.0), 1.0),
        quick: Deviates(TIDB_NEVER_ABORTS),
        full: Deviates(TIDB_NEVER_ABORTS),
    },
    Claim {
        id: "fig07.bft-costs-little",
        experiment: "fig07",
        claim: "Fig. 7: at every f IBFT trails Raft, by under 5 %.",
        check: |r| {
            for (ibft, raft) in column(r, "ibft_tps")?.iter().zip(&column(r, "raft_tps")?) {
                less(ibft, raft, 1.0)?;
                more(ibft, raft, 0.95)?;
            }
            Ok(())
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "fig08.validation-dominates",
        experiment: "fig08",
        claim: "Fig. 8: in saturated Fabric the serial validate phase is the longest.",
        check: |r| {
            let phase = |column| cell(r, "Fabric saturated", column);
            more(&phase("validate_ms")?, &phase("execute_ms")?, 1.0)?;
            more(&phase("validate_ms")?, &phase("order_ms")?, 1.0)
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "fig09.skew",
        experiment: "fig09",
        claim: "Fig. 9: from uniform keys to Zipf θ=1 TiDB falls under 0.6× its throughput, \
                etcd and Quorum keep over 0.7×, and Fabric aborts more.",
        check: |r| {
            let uniform = |column| cell(r, "theta=0.0", column);
            let skewed = |column| cell(r, "theta=1.0", column);
            less(&skewed("TiDB_tps")?, &uniform("TiDB_tps")?, 0.6)?;
            more(&skewed("etcd_tps")?, &uniform("etcd_tps")?, 0.7)?;
            more(&skewed("Quorum_tps")?, &uniform("Quorum_tps")?, 0.7)?;
            more(&skewed("Fabric_abort_%")?, &uniform("Fabric_abort_%")?, 1.0)
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "fig09.tidb-aborts",
        experiment: "fig09",
        claim: "Fig. 9: TiDB's abort rate grows from uniform keys to Zipf θ=1.",
        check: |r| {
            let aborts = |row| cell(r, row, "TiDB_abort_%");
            more(&aborts("theta=1.0")?, &aborts("theta=0.0")?, 1.0)
        },
        quick: Deviates(TIDB_NEVER_ABORTS),
        full: Deviates(TIDB_NEVER_ABORTS),
    },
    Claim {
        id: "fig10.contention",
        experiment: "fig10",
        claim: "Fig. 10: every system's throughput falls with each step from 1 to 10 \
                operations per transaction, while Fabric's read-write conflicts rise.",
        check: |r| {
            let tps = ["Fabric_tps", "Quorum_tps", "TiDB_tps", "etcd_tps"];
            tps.iter().try_for_each(|c| falls_along(&column(r, c)?))?;
            rises_along(&column(r, "Fabric_rw_conflict_%")?)
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "fig10.tidb-aborts",
        experiment: "fig10",
        claim: "Fig. 10: TiDB aborts transactions at 10 operations per transaction.",
        check: |r| {
            let aborts = cell(r, "10 ops/txn", "TiDB_abort_%")?;
            more(&aborts, &Cell::bound(0.0), 1.0)
        },
        quick: Deviates(TIDB_NEVER_ABORTS),
        full: Deviates(TIDB_NEVER_ABORTS),
    },
    Claim {
        id: "fig11.quorum-most-size-sensitive",
        experiment: "fig11",
        claim: "Fig. 11: from 10 B to 5 000 B records Quorum loses the most throughput.",
        check: |r| {
            let loss = |c| Ok::<_, String>(cell(r, "10 B", c)?.over(&cell(r, "5000 B", c)?));
            let quorum = loss("Quorum_tps")?;
            for other in ["Fabric_tps", "TiDB_tps", "etcd_tps"] {
                more(&quorum, &loss(other)?, 1.0)?;
            }
            Ok(())
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "fig12.ledger-overhead",
        experiment: "fig12",
        claim: "Fig. 12: at every record size Fabric's blocks cost more per record than its \
                state and the record itself, and its state plus blocks more than TiDB.",
        check: |r| {
            r.rows.iter().try_for_each(|row| {
                let at = |column| cell(r, &row.label, column);
                let (block, state) = (at("Fabric_block_B/rec")?, at("Fabric_state_B/rec")?);
                let record = row.label.trim_end_matches(" B").parse().unwrap_or(f64::NAN);
                more(&block, &state, 1.0)?;
                more(&block, &Cell::bound(record), 1.0)?;
                less(&at("TiDB_B/rec")?, &state.plus(&block), 1.0)
            })
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "fig13.mpt-dwarfs-mbt",
        experiment: "fig13",
        claim: "Fig. 13: the MPT costs over 500 B per record more than the MBT at every size.",
        check: |r| {
            for (mpt, mbt) in column(r, "MPT_B/rec")?.iter().zip(&column(r, "MBT_B/rec")?) {
                more(mpt, &mbt.plus(&Cell::bound(500.0)), 1.0)?;
            }
            Ok(())
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "fig14.tidb-scales-with-shards",
        experiment: "fig14",
        claim: "Fig. 14: TiDB's throughput grows with every added shard.",
        check: |r| rises_along(&column(r, "TiDB_tps")?),
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "fig14.ahl-reconfig-costs",
        experiment: "fig14",
        claim: "Fig. 14: AHL's periodic reconfiguration costs throughput at every shard count.",
        check: |r| {
            let fixed = column(r, "AHL_fixed_tps")?;
            for (reconfig, fixed) in column(r, "AHL_reconfig_tps")?.iter().zip(&fixed) {
                less(reconfig, fixed, 1.0)?;
            }
            Ok(())
        },
        quick: Deviates(AHL_QUICK_BEFORE_EPOCH),
        full: Holds,
    },
    Claim {
        id: "fig15.veritas-over-chainifydb",
        experiment: "fig15",
        claim: "Fig. 15: all six hybrid systems are forecast, Veritas above ChainifyDB.",
        check: |r| {
            let forecast = |system| cell(r, system, "forecast_tps");
            let rows = r.rows.len();
            ensure(rows == 6, || format!("{rows} rows, not 6"))?;
            more(&forecast("Veritas")?, &forecast("ChainifyDB")?, 1.0)
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "tab04.replication-costs",
        experiment: "tab04",
        claim: "Table 4: Fabric's and etcd's throughput falls with each added node, 3 to 19.",
        check: |r| falls_along(&row_cells(r, "Fabric")?).and(falls_along(&row_cells(r, "etcd")?)),
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "tab05.sql-layer-scales",
        experiment: "tab05",
        claim: "Table 5: TiDB's throughput grows with TiDB servers and stays within 1 % \
                across TiKV node counts.",
        check: |r| {
            let tikv = ["3_tikv", "7_tikv", "11_tikv"];
            tikv.iter().try_for_each(|c| rises_along(&column(r, c)?))?;
            r.rows.iter().try_for_each(|row| {
                let cells = row_cells(r, &row.label)?;
                cells
                    .iter()
                    .try_for_each(|a| cells.iter().try_for_each(|b| less(a, b, 1.01)))
            })
        },
        quick: Deviates(QUICK_TAB05_NOT_SQL_BOUND),
        full: Holds,
    },
    Claim {
        id: "fault01.dip-and-recovery",
        experiment: "fault01",
        claim: "§5 fault study: an etcd leader crash stalls commits, and the backlog bursts \
                through after the heal.",
        check: |r| {
            more(&cell(r, "etcd", "tps")?, &Cell::bound(0.0), 1.0)?;
            let etcd = series(r, "etcd", "etcd")?;
            let span = fault01_span_us(driven_txns(etcd));
            dip_and_recovery(etcd, span / 3, 2 * span / 3)
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "closed01.littles-law-and-knee",
        experiment: "closed01",
        claim: "§5 closed loop: throughput is within 25 % of clients / (think + latency) and \
                never drops a tenth as clients double, yet 64 clients pay over twice one \
                client's latency at under 0.7× linear scaling.",
        check: |r| {
            let at = |clients: u64, column| cell(r, &format!("{clients} clients"), column);
            for clients in CLOSED01_CLIENTS {
                let (tps, lat_ms) = (at(clients, "tps")?, at(clients, "lat_ms")?.1);
                let law = clients as f64 / (CLOSED01_THINK_US as f64 / 1e6 + lat_ms / 1e3);
                let law = Cell(format!("Little's law ({law:.1})"), law);
                more(&tps, &law, 0.75).and(less(&tps, &law, 1.25))?;
            }
            for pair in column(r, "tps")?.windows(2) {
                more(&pair[1], &pair[0], 0.9)?;
            }
            more(&at(64, "lat_ms")?, &at(1, "lat_ms")?, 2.0)?;
            less(&at(64, "tps")?, &at(1, "tps")?, 64.0 * 0.7)
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "ramp01.backlog",
        experiment: "ramp01",
        claim: "§5 ramp: offered load steps up over 5× from the first phase to the third, \
                which submits over twice what it commits.",
        check: |r| {
            more(&cell(r, "Quorum", "tps")?, &Cell::bound(0.0), 1.0)?;
            let (series, phase) = ramp(r)?;
            let offered = |p| {
                series
                    .window_at(p * phase + phase / 2)
                    .map_or(0.0, |w| w.offered_tps)
            };
            let (first, third) = (offered(0), offered(2));
            ensure(third > 5.0 * first, || {
                format!("offered {first:.1} tps, then {third:.1}")
            })?;
            let (submitted, committed, _) = windowed(series, 2 * phase, 3 * phase);
            ensure(submitted > 2 * committed, || {
                format!("phase 3 commits {committed} of {submitted}")
            })
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "ramp01.inflection",
        experiment: "ramp01",
        claim: "§5 ramp: the unsaturated first phase commits at least half its arrivals, and \
                the windowed median latency from the third phase on exceeds 3× the first's.",
        check: |r| {
            let (series, phase) = ramp(r)?;
            let (submitted, committed, early) = windowed(series, 0, phase);
            let (_, _, late) = windowed(series, 2 * phase, u64::MAX);
            ensure(submitted > 0 && 2 * committed >= submitted, || {
                format!("phase 1 commits {committed} of {submitted}")
            })?;
            ensure(early > 0 && late > 3 * early, || {
                format!("windowed p50 {early} µs, then {late}")
            })
        },
        quick: Deviates(QUICK_RAMP_TOO_SHORT),
        full: Holds,
    },
    Claim {
        id: "scale01.tps-scales",
        experiment: "scale01",
        claim: "§5 engine scale: throughput grows over 4× from the smallest closed-loop \
                population to the next, and the largest adds under 0.8× linear scaling.",
        check: |r| {
            let tps = column(r, "tps")?;
            ensure(tps.len() == 3, || format!("{} rows, not 3", tps.len()))?;
            let clients = |i: usize| r.rows[i].label.trim_end_matches(" clients").parse();
            let linear = clients(2).unwrap_or(f64::NAN) / clients(1).unwrap_or(f64::NAN);
            more(&tps[1], &tps[0], 4.0)?;
            more(&tps[2], &tps[1], 1.0)?;
            less(&tps[2], &tps[1], 0.8 * linear)
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "scale01.top-population-saturates",
        experiment: "scale01",
        claim: "§5 engine scale: the largest closed-loop population pays over 10× the \
                smallest one's latency.",
        check: |r| {
            let latency = column(r, "lat_ms")?;
            match (latency.first(), latency.last()) {
                (Some(smallest), Some(largest)) => more(largest, smallest, 10.0),
                _ => Err(format!("{} has no rows", r.id)),
            }
        },
        quick: Deviates(
            "direction 2: the quick ladder (8 / 64 / 2 000 clients) never saturates; \
             lat_ms stays 0.854-0.855",
        ),
        full: Holds,
    },
    Claim {
        id: "chaos01.survives-faults",
        experiment: "chaos01",
        claim: "§5 chaos grid: every model passes all four invariant oracles under every \
                fault, a primary crash stalls etcd until its backlog bursts through after \
                the heal, and the baseline row commits mid-run.",
        check: |r| {
            for row in &r.rows {
                let models = row.series.len();
                ensure(models == SystemKind::ALL.len(), || {
                    format!("{}: {models} models", row.label)
                })?;
                for s in &row.series {
                    ensure(s.oracles.outcomes.len() == 4 && s.oracles.passed(), || {
                        format!("{} / {}: {:?}", row.label, s.name, s.oracles)
                    })?;
                }
            }
            let crashed = series(r, "primary-crash", "etcd")?;
            let span = chaos01_span_us(driven_txns(crashed));
            dip_and_recovery(crashed, span / 3, 2 * span / 3)?;
            let mid = series(r, "baseline", "etcd")?.window_at(span / 2);
            ensure(mid.is_some_and(|w| w.committed > 0), || {
                "baseline etcd stalls".into()
            })
        },
        quick: Holds,
        full: Holds,
    },
    Claim {
        id: "chaos01.crash-lowers-tps",
        experiment: "chaos01",
        claim: "§5 chaos grid: a primary crash lowers every model's run-level throughput.",
        check: |r| {
            let baseline = row_cells(r, "baseline")?;
            for (crashed, baseline) in row_cells(r, "primary-crash")?.iter().zip(&baseline) {
                less(crashed, baseline, 1.0)?;
            }
            Ok(())
        },
        quick: Deviates(CRASH_INVISIBLE),
        full: Deviates(CRASH_INVISIBLE),
    },
];

/// One report cell: where it sits (`row/column`) and its value.
#[derive(Debug, Clone)]
struct Cell(String, f64);

impl Cell {
    /// A fixed bound to compare a cell with.
    fn bound(value: f64) -> Cell {
        Cell(value.to_string(), value)
    }

    /// The sum of two cells.
    fn plus(&self, other: &Cell) -> Cell {
        Cell(format!("{} + {}", self.0, other.0), self.1 + other.1)
    }

    /// The ratio of two cells.
    fn over(&self, other: &Cell) -> Cell {
        Cell(format!("{} / {}", self.0, other.0), self.1 / other.1)
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} = {:.3}", self.0, self.1)
    }
}

/// `Ok` if `holds`, else `Err` with the message `why` builds.
fn ensure(holds: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(why())
    }
}

/// The row labelled `row`.
fn find_row<'r>(r: &'r ExperimentReport, row: &str) -> Result<&'r Row, String> {
    let found = r.rows.iter().find(|x| x.label == row);
    found.ok_or_else(|| format!("{} has no row {row:?}", r.id))
}

/// The cell at `row`/`column`; `Err` names whichever of the two is missing.
fn cell(r: &ExperimentReport, row: &str, column: &str) -> Result<Cell, String> {
    let found = find_row(r, row)?.values.iter().find(|(c, _)| c == column);
    let (_, value) =
        found.ok_or_else(|| format!("{} row {row:?} has no column {column:?}", r.id))?;
    Ok(Cell(format!("{row}/{column}"), *value))
}

/// Every cell of one row, in column order.
fn row_cells(r: &ExperimentReport, row: &str) -> Result<Vec<Cell>, String> {
    let cells = find_row(r, row)?.values.iter();
    Ok(cells.map(|(c, v)| Cell(format!("{row}/{c}"), *v)).collect())
}

/// One column's cell in every row, in row order.
fn column(r: &ExperimentReport, column: &str) -> Result<Vec<Cell>, String> {
    r.rows
        .iter()
        .map(|row| cell(r, &row.label, column))
        .collect()
}

/// `a` is above `factor` × `b`.
fn more(a: &Cell, b: &Cell, factor: f64) -> Result<(), String> {
    ensure(a.1 > factor * b.1, || {
        format!("{a} is not above {factor} × {b}")
    })
}

/// `a` is below `factor` × `b`.
fn less(a: &Cell, b: &Cell, factor: f64) -> Result<(), String> {
    ensure(a.1 < factor * b.1, || {
        format!("{a} is not below {factor} × {b}")
    })
}

/// Each cell is below the one before it.
fn falls_along(cells: &[Cell]) -> Result<(), String> {
    cells.windows(2).try_for_each(|w| less(&w[1], &w[0], 1.0))
}

/// Each cell is above the one before it.
fn rises_along(cells: &[Cell]) -> Result<(), String> {
    cells.windows(2).try_for_each(|w| more(&w[1], &w[0], 1.0))
}

/// The windowed series of probe `name` backing `row`.
fn series<'r>(r: &'r ExperimentReport, row: &str, name: &str) -> Result<&'r TimeSeries, String> {
    let series = find_row(r, row)?.series.iter().find(|s| s.name == name);
    series
        .map(|s| &s.series)
        .ok_or_else(|| format!("{} row {row:?} has no {name} series", r.id))
}

/// The transactions a run drove: each arrival is counted in exactly one
/// window, so the windows' submissions sum to the count that the plan
/// derived its span (and fault times) from.
fn driven_txns(series: &TimeSeries) -> u64 {
    series.windows.iter().map(|w| w.submitted).sum()
}

/// ramp01's series and the length (µs) of each of its three phases.
fn ramp(r: &ExperimentReport) -> Result<(&TimeSeries, u64), String> {
    let series = series(r, "Quorum", "Quorum")?;
    Ok((series, ramp01_phase_us(driven_txns(series))))
}

/// Over the windows lying wholly in `[from, to)` µs: (submitted, committed,
/// the highest p50 µs of a window that committed).
fn windowed(series: &TimeSeries, from: u64, to: u64) -> (u64, u64, u64) {
    let inside = series
        .windows
        .iter()
        .filter(|w| w.start_us >= from && w.end_us <= to);
    inside.fold((0, 0, 0), |(submitted, committed, p50), w| {
        let p50 = p50.max(if w.committed > 0 { w.latency.p50_us } else { 0 });
        (submitted + w.submitted, committed + w.committed, p50)
    })
}

/// A crash's signature in a windowed series: the window halfway to the crash
/// commits, the window mid-crash commits nothing, and a window after the heal
/// commits more than the pre-crash one as the stalled backlog drains.
fn dip_and_recovery(series: &TimeSeries, crash_from: u64, crash_until: u64) -> Result<(), String> {
    let window = |t: u64| series.window_at(t).map_or(0, |w| w.committed);
    let before = window(crash_from / 2);
    let during = window((crash_from + crash_until) / 2);
    let after = series.windows.iter().filter(|w| w.start_us >= crash_until);
    let recovered = after.map(|w| w.committed).max().unwrap_or(0);
    ensure(before > 0 && during == 0 && recovered > before, || {
        format!("commits: {before} before the crash, {during} mid-crash, {recovered} after")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EXPERIMENTS;

    #[test]
    fn row_ids_are_unique_and_cover_every_measured_experiment() {
        let mut ids = std::collections::BTreeSet::new();
        for claim in CLAIMS {
            assert!(ids.insert(claim.id), "duplicate row id {}", claim.id);
            assert!(EXPERIMENTS.contains(&claim.experiment), "{}", claim.id);
        }
        // tab02 is the qualitative taxonomy: nothing to order.
        for id in EXPERIMENTS.iter().filter(|id| **id != "tab02") {
            assert!(CLAIMS.iter().any(|c| c.experiment == *id), "{id}");
        }
    }
}
