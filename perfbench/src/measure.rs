//! Measurement helpers: percentiles, per-thread scheduler accounting,
//! peak memory, and span self time.

use std::time::Instant;

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p`% of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample or a `p` outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile rank {p} out of (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// How many samples lie strictly above the nearest-rank `p`th
/// percentile's position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).max(1)
}

/// The median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// One thread's scheduler accounting, from `/proc/.../schedstat`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Nanoseconds spent running on a CPU.
    pub on_cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting for a CPU.
    pub runq_ns: u64,
}

impl SchedStat {
    /// Accounting accrued between `earlier` and `self`.
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            on_cpu_ns: self.on_cpu_ns.saturating_sub(earlier.on_cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
        }
    }
}

/// Parse the text of a `schedstat` file: on-CPU nanoseconds, run-queue
/// nanoseconds, then a timeslice count.
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    let on_cpu_ns = fields.next()?.ok()?;
    let runq_ns = fields.next()?.ok()?;
    fields.next()?.ok()?;
    Some(SchedStat { on_cpu_ns, runq_ns })
}

/// The scheduler accounting of thread `tid` of this process; `None`
/// where the kernel does not expose it.
pub fn thread_schedstat(tid: u32) -> Option<SchedStat> {
    read_schedstat(&format!("/proc/self/task/{tid}/schedstat"))
}

/// [`parse_schedstat`] of the file at `path`; `None` if it is missing
/// or malformed.
pub fn read_schedstat(path: &str) -> Option<SchedStat> {
    parse_schedstat(&std::fs::read_to_string(path).ok()?)
}

/// The calling thread's kernel thread id, if the kernel exposes it.
pub fn current_tid() -> Option<u32> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One timed call, recorded by the benchmark around a call into the
/// program. `parent` indexes the enclosing span in the same log.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `vserve.recv`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// The trigger (0 is set-up) the span belongs to.
    pub trigger: u32,
}

/// Spans kept in memory until the run ends.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, trigger: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trigger,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn samples_beyond_the_p90_of_a_hundred_are_ten() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(1, 90.0), 0);
    }

    #[test]
    fn schedstat_parses_three_fields() {
        assert_eq!(
            parse_schedstat("154173132 72671879 133\n"),
            Some(SchedStat {
                on_cpu_ns: 154173132,
                runq_ns: 72671879
            })
        );
        assert_eq!(parse_schedstat("1 2"), None);
        assert_eq!(parse_schedstat("a b c"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn schedstat_of_a_missing_file_is_unavailable() {
        assert_eq!(read_schedstat("/proc/self/task/0/schedstat"), None);
        assert_eq!(thread_schedstat(0), None);
    }

    #[test]
    fn schedstat_since_subtracts_and_saturates() {
        let a = SchedStat {
            on_cpu_ns: 10,
            runq_ns: 5,
        };
        let b = SchedStat {
            on_cpu_ns: 25,
            runq_ns: 4,
        };
        assert_eq!(
            b.since(a),
            SchedStat {
                on_cpu_ns: 15,
                runq_ns: 0
            }
        );
    }

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            trigger: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps its sibling by 10
            span(60, 70, Some(0)),
            span(25, 28, Some(1)),  // grandchild: charged to span 1 only
            span(90, 120, Some(0)), // runs past the parent's end
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10 - 10, 17, 30, 10, 3, 30]
        );
    }
}
