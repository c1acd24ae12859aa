//! Outage windows: the times a station cannot start work. A crash, a
//! partition, a leadership handover and an epoch reconfiguration all mean
//! that the station hosting the role starts nothing from `t₀` to `t₁`. A
//! [`MultiResource`](crate::MultiResource) carries one [`Outages`], and a
//! role no station hosts asks [`Outages::start`] at its decision point.

use dichotomy_common::Timestamp;

/// When a station cannot start work: sorted, merged, half-open windows
/// `[from, until)`, an optional permanent tail (down for good from some
/// time on), and an optional periodic term (a window of `len` µs at every
/// multiple `k ≥ 1` of `period`), so that a recurring pause needs no
/// horizon and no list of epochs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outages {
    /// Disjoint, non-touching windows, sorted by start.
    windows: Vec<(Timestamp, Timestamp)>,
    /// The permanent tail: nothing starts at or after this time.
    down_from: Option<Timestamp>,
    /// `(period, len)`, with `0 < len < period`.
    every: Option<(u64, u64)>,
}

impl Outages {
    /// The outages of `windows`, each `(from, until)` with `until = None`
    /// for a window that never ends. Windows may overlap and come in any
    /// order.
    pub fn new(windows: impl IntoIterator<Item = (Timestamp, Option<Timestamp>)>) -> Self {
        let mut outages = Outages::default();
        outages.extend(windows);
        outages
    }

    /// Add the periodic term: a window `[k·period, k·period + len)` for
    /// every `k ≥ 1`, replacing any earlier term. A zero `len` adds
    /// nothing; `len ≥ period` leaves no gap, so the station is down for
    /// good from `period` on.
    pub fn every(&mut self, period: u64, len: u64) {
        if len == 0 {
            self.every = None;
        } else if len >= period {
            self.every = None;
            self.extend([(period, None)]);
        } else {
            self.every = Some((period, len));
        }
    }

    /// Whether nothing is ever down.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.down_from.is_none() && self.every.is_none()
    }

    /// When work that is ready at `ready` and needs `d` µs may start. The
    /// rule is non-preemptive: work whose span `[t, t + d)` would overlap a
    /// window starts at that window's end, and the check repeats from
    /// there. Work of zero length is an instant that a window containing it
    /// holds up. `None` when no start exists: the permanent tail begins
    /// before the work could end, or the work is longer than the gap
    /// between two periodic windows.
    ///
    /// # Panics
    ///
    /// If a step fails to move `t` forward, or the steps outrun their bound:
    /// a broken invariant of this search, which would otherwise never end.
    pub fn start(&self, ready: Timestamp, d: u64) -> Option<Timestamp> {
        let span = d.max(1);
        let mut t = ready;
        // Each step moves `t` strictly forward, past a listed window (each
        // one at most once, as they are disjoint and sorted) or past a
        // periodic one (never twice in a row: work that fits between two
        // periodic windows fits after the first). So a start is found within
        // this many steps, and more means the loop would never end.
        let steps = 2 * self.windows.len() + 2;
        for _ in 0..steps {
            let end = t.saturating_add(span);
            if self.down_from.is_some_and(|from| from < end) {
                return None;
            }
            // The first window, listed or periodic, that ends after `t`.
            let next = self.windows.partition_point(|&(_, until)| until <= t);
            if let Some(&(from, until)) = self.windows.get(next) {
                if from < end {
                    assert!(until > t, "outage window ends at {until}, not after {t}");
                    t = until;
                    continue;
                }
            }
            if let Some((period, len)) = self.every {
                let from = (t.saturating_sub(len) / period + 1).saturating_mul(period);
                if from < end {
                    if span > period - len {
                        return None;
                    }
                    let after = from.saturating_add(len);
                    assert!(after > t, "periodic outage ends at {after}, not after {t}");
                    t = after;
                    continue;
                }
            }
            return Some(t);
        }
        panic!("no start for {span} µs of work ready at {ready} within {steps} steps");
    }
}

impl Extend<(Timestamp, Option<Timestamp>)> for Outages {
    /// Add windows (`until = None` for one that never ends) and merge them
    /// with the ones already held.
    fn extend<I: IntoIterator<Item = (Timestamp, Option<Timestamp>)>>(&mut self, windows: I) {
        for (from, until) in windows {
            match until {
                None => self.down_from = Some(self.down_from.map_or(from, |d| d.min(from))),
                Some(until) if from < until => self.windows.push((from, until)),
                Some(_) => {}
            }
        }
        self.windows.sort_unstable();
        let mut merged: Vec<(Timestamp, Timestamp)> = Vec::with_capacity(self.windows.len());
        for (from, until) in self.windows.drain(..) {
            match merged.last_mut() {
                Some(last) if from <= last.1 => last.1 = last.1.max(until),
                _ => merged.push((from, until)),
            }
        }
        self.windows = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_and_the_periodic_term_leave_no_start_when_nothing_fits() {
        assert!(Outages::new([(5, Some(5))]).is_empty());
        // A window that reaches the tail never ends either.
        let tail = Outages::new([(100, Some(200)), (150, None), (500, Some(600))]);
        assert_eq!((tail.start(50, 50), tail.start(50, 51)), (Some(50), None));
        assert_eq!((tail.start(120, 0), tail.start(700, 0)), (None, None));
        let mut o = Outages::default();
        o.every(1_000, 300);
        // Work longer than the 700 µs gap fits only before the first window.
        assert_eq!(o.start(100, 701), Some(100));
        assert_eq!(o.start(400, 701), None);
        assert_eq!(o.start(400, 700), Some(1_300));
        let far = 1_000_000_000_000;
        assert_eq!(o.start(far + 10, 5), Some(far + 300));
        // A window as long as the period leaves no gap: down for good.
        o.every(1_000, 1_000);
        assert_eq!((o.start(999, 1), o.start(999, 2)), (Some(999), None));
    }
}
