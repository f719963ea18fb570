//! Span merging by the wire's cost model.
//!
//! A wire packet costs `base_ns + len * per_byte_ns` — the model Table
//! 4 is built on. Two byte ranges are worth fetching as one span exactly
//! when the gap between them is cheaper to ship than a second round
//! trip, i.e. when `gap_bytes * per_byte_ns < base_ns`. On a
//! high-latency KGDB link (`base_ns` = 4.9 ms) that threshold is ~408
//! bytes; on the QEMU gdb stub (~85 us) it is ~2.8 KiB; on the free
//! profile merging is unconstrained and only the span cap applies.
//! [`Target::prefetch_footprint`](crate::Target::prefetch_footprint)
//! folds a walk's footprint into spans by this rule.

use crate::profile::LatencyProfile;

/// Merges byte ranges into wire spans, gap threshold chosen from the
/// active [`LatencyProfile`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanPlanner {
    /// Merge two ranges when the gap between them is at most this many
    /// bytes (`base_ns / per_byte_ns`).
    pub(crate) gap_threshold: u64,
    /// Never grow a merged span beyond this many bytes.
    pub(crate) span_cap: u64,
}

/// Matches `Target`'s `MAX_PREFETCH`: one merged span never pulls more
/// than a page worth of blocks.
const DEFAULT_SPAN_CAP: u64 = 4096;

impl SpanPlanner {
    /// Derive the merge threshold from a latency profile. A free wire
    /// (`per_byte_ns == 0`) merges without a gap limit — fewer packets
    /// always wins when bytes are free.
    pub(crate) fn for_profile(profile: &LatencyProfile) -> SpanPlanner {
        let gap_threshold = profile
            .base_ns
            .checked_div(profile.per_byte_ns)
            .unwrap_or(u64::MAX);
        SpanPlanner {
            gap_threshold,
            span_cap: DEFAULT_SPAN_CAP,
        }
    }

    /// Fold `(addr, len)` ranges, sorted by address, into fetch spans,
    /// handing each span to `emit` in address order: a range joins the
    /// span before it when the gap is within the threshold and the
    /// merged span stays under the cap. Empty ranges are dropped, and
    /// overlapping ones merge. Allocates nothing.
    pub(crate) fn fold(
        &self,
        sorted: impl IntoIterator<Item = (u64, u64)>,
        mut emit: impl FnMut(u64, u64),
    ) {
        let mut span: Option<(u64, u64)> = None;
        for (addr, len) in sorted {
            if len == 0 {
                continue;
            }
            let end = addr.saturating_add(len);
            if let Some(last) = span.as_mut() {
                let last_end = last.0.saturating_add(last.1);
                let merged_len = end.saturating_sub(last.0);
                if addr <= last_end.saturating_add(self.gap_threshold)
                    && merged_len <= self.span_cap
                {
                    last.1 = last.1.max(merged_len);
                    continue;
                }
                emit(last.0, last.1);
            }
            span = Some((addr, len));
        }
        if let Some((addr, len)) = span {
            emit(addr, len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ranges` sorted, then folded into a vector of spans.
    fn merge(p: &SpanPlanner, mut ranges: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        ranges.sort_unstable();
        let mut out = Vec::new();
        p.fold(ranges, |addr, len| out.push((addr, len)));
        out
    }

    #[test]
    fn kgdb_threshold_merges_near_ranges_only() {
        // kgdb_rpi400: 4_900_000 / 12_000 = 408 bytes.
        let p = SpanPlanner::for_profile(&LatencyProfile::kgdb_rpi400());
        assert_eq!(p.gap_threshold, 408);
        let spans = merge(&p, vec![(0x1000, 8), (0x1100, 8), (0x2000, 8)]);
        // 0x1000..0x1108 merge (gap 248 <= 408); 0x2000 is its own span.
        assert_eq!(spans, vec![(0x1000, 0x108), (0x2000, 8)]);
    }

    #[test]
    fn free_profile_merges_up_to_the_cap() {
        let p = SpanPlanner::for_profile(&LatencyProfile::free());
        assert_eq!(p.gap_threshold, u64::MAX);
        let spans = merge(&p, vec![(0, 8), (100_000, 8)]);
        // 100 KB apart but the merged span would exceed the 4 KiB cap.
        assert_eq!(spans.len(), 2);
        let spans = merge(&p, vec![(0, 8), (2048, 8)]);
        assert_eq!(spans, vec![(0, 2056)]);
    }

    #[test]
    fn merge_is_order_insensitive_and_dedups_overlaps() {
        let p = SpanPlanner {
            gap_threshold: 0,
            span_cap: 4096,
        };
        let a = merge(&p, vec![(0x10, 16), (0x20, 16), (0x18, 8)]);
        let b = merge(&p, vec![(0x18, 8), (0x10, 16), (0x20, 16)]);
        assert_eq!(a, b);
        assert_eq!(a, vec![(0x10, 0x20)]);
    }
}
