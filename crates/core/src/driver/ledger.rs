//! The set of arrival timestamps a run has already handed out.

use std::collections::BTreeMap;

use dichotomy_common::Timestamp;

/// Microseconds per [`TimestampLedger`] page, as a power of two.
pub(super) const PAGE_BITS: u32 = 16;
/// 64-bit words per page.
const PAGE_WORDS: usize = 1 << (PAGE_BITS - 6);

/// The set of already-claimed arrival timestamps as a paged bitmap: one bit
/// per microsecond, in pages of 2^16 µs keyed by `t >> PAGE_BITS`. A claim is
/// a word scan inside one page, and pages the run has moved past are dropped,
/// so memory is O(live window of the schedule), not O(transactions). The
/// pages sit in an ordered map so that a sparse or far-future timeline costs
/// one page per touched 65 ms, wherever it lies.
#[derive(Default)]
pub(super) struct TimestampLedger {
    pub(super) pages: BTreeMap<u64, Box<[u64; PAGE_WORDS]>>,
}

impl TimestampLedger {
    /// Claim the first free microsecond at or after `at` and mark it used —
    /// exactly the `while !used.insert(t) { t += 1 }` bump the driver has
    /// always performed. `now` is the engine clock: pages wholly behind both
    /// it and `at` are forgotten. Only a claim behind the clock can reach a
    /// forgotten page; the first to do so finds it empty, gets `at` itself
    /// and is clamped and counted by the engine, so every run with
    /// `events_clamped == 0` gets the timestamps the full set would give.
    #[inline]
    pub(super) fn claim(&mut self, at: Timestamp, now: Timestamp) -> Timestamp {
        let floor = at.min(now) >> PAGE_BITS;
        while self
            .pages
            .first_key_value()
            .is_some_and(|(&p, _)| p < floor)
        {
            self.pages.pop_first();
        }
        let mut page_no = at >> PAGE_BITS;
        let mut first_word = ((at >> 6) as usize) & (PAGE_WORDS - 1);
        // Bits below `at` in its own word are not candidates.
        let mut mask = !0u64 << (at & 63);
        loop {
            let page = self
                .pages
                .entry(page_no)
                .or_insert_with(|| Box::new([0; PAGE_WORDS]));
            for (w, word) in page.iter_mut().enumerate().skip(first_word) {
                let free = !*word & mask;
                if free != 0 {
                    let bit = free.trailing_zeros();
                    *word |= 1 << bit;
                    return (page_no << PAGE_BITS) | ((w as u64) << 6) | u64::from(bit);
                }
                mask = !0;
            }
            // Full from `at` to its end: the bump chain spills into the next page.
            assert!(
                page_no < Timestamp::MAX >> PAGE_BITS,
                "arrival timestamps exhausted"
            );
            page_no += 1;
            first_word = 0;
        }
    }
}
