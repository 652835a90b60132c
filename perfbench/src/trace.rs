//! Spans recorded around calls into the system, and the self-time
//! arithmetic over them.
//!
//! Client spans wrap `open`, `pread`, `close` and `read_file_segmented` in
//! the reader loop; PFS spans wrap every call into the PFS store. Both carry
//! the sample's file index, so a client call's *self time* is its duration
//! minus the part of it during which the PFS was working on the same file.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What a span wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `HvacClient::open` (one `Stat` RPC).
    Open,
    /// `HvacClient::pread` of the whole file.
    Read,
    /// `HvacClient::close` (one `Close` RPC).
    Close,
    /// `HvacClient::read_file_segmented` (stat + batched segment reads).
    Segmented,
    /// `FileStore::open_meta` on the PFS.
    PfsOpen,
    /// `FileStore::read_all` / `read_at` on the PFS.
    PfsRead,
}

impl Op {
    /// Name in the span table.
    pub fn label(self) -> &'static str {
        match self {
            Op::Open => "client.open",
            Op::Read => "client.pread",
            Op::Close => "client.close",
            Op::Segmented => "client.segmented",
            Op::PfsOpen => "pfs.open_meta",
            Op::PfsRead => "pfs.read",
        }
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The call.
    pub op: Op,
    /// File index of the sample the call served.
    pub file: u32,
    /// Small per-process index of the recording thread.
    pub thread: u32,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Switchable span recorder shared by the reader threads and the PFS
/// wrapper. Reader threads keep their own span buffers; PFS calls arrive on
/// server threads and land in one shared buffer.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    pfs_spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            origin: Instant::now(),
            pfs_spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Turn recording on or off (between epochs, while no call is running).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// ns since the tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a PFS span.
    pub fn push_pfs(&self, span: Span) {
        self.pfs_spans
            .lock()
            .expect("no thread panics while holding the span buffer")
            .push(span);
    }

    /// Take every PFS span recorded so far.
    pub fn take_pfs(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .pfs_spans
                .lock()
                .expect("no thread panics while holding the span buffer"),
        )
    }
}

/// Small stable index of the calling thread, for span tags.
pub fn thread_index() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static INDEX: u32 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// File index encoded in a sample path `.../sample_<index>.bin`, the naming
/// the dataset writer uses (`u32::MAX` for anything else).
pub fn file_index(path: &std::path::Path) -> u32 {
    path.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_prefix("sample_"))
        .and_then(|n| n.strip_suffix(".bin"))
        .and_then(|n| n.parse().ok())
        .unwrap_or(u32::MAX)
}

/// Self time of each client span: its duration minus the union of the PFS
/// spans of the same file that overlap it, clipped to the client span.
/// Overlapping PFS spans are merged first, so concurrent PFS work on one
/// file is not subtracted twice.
pub fn self_times_ns(client: &[Span], pfs: &[Span]) -> Vec<u64> {
    let mut by_file: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in pfs {
        by_file
            .entry(s.file)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    for v in by_file.values_mut() {
        v.sort_unstable();
    }
    client
        .iter()
        .map(|c| {
            let covered = by_file
                .get(&c.file)
                .map_or(0, |v| covered_ns(v, c.start_ns, c.end_ns));
            c.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals` (sorted by
/// start).
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals {
        if s >= hi {
            break;
        }
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: Op, file: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op,
            file,
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_without_pfs_is_the_duration() {
        let c = [span(Op::Read, 1, 100, 400)];
        assert_eq!(self_times_ns(&c, &[]), vec![300]);
    }

    #[test]
    fn pfs_spans_of_other_files_are_ignored() {
        let c = [span(Op::Read, 1, 100, 400)];
        let p = [span(Op::PfsRead, 2, 150, 350)];
        assert_eq!(self_times_ns(&c, &p), vec![300]);
    }

    #[test]
    fn partial_overlaps_are_clipped_to_the_client_span() {
        let c = [span(Op::Open, 1, 100, 400)];
        // 50..150 overlaps by 50; 350..500 by 50.
        let p = [
            span(Op::PfsOpen, 1, 50, 150),
            span(Op::PfsRead, 1, 350, 500),
        ];
        assert_eq!(self_times_ns(&c, &p), vec![200]);
    }

    #[test]
    fn overlapping_pfs_spans_are_not_subtracted_twice() {
        let c = [span(Op::Read, 7, 0, 1000)];
        // 100..400 and 300..600 cover 100..600 = 500, plus nested 450..500.
        let p = [
            span(Op::PfsRead, 7, 300, 600),
            span(Op::PfsOpen, 7, 100, 400),
            span(Op::PfsRead, 7, 450, 500),
            span(Op::PfsRead, 7, 900, 1200),
        ];
        assert_eq!(self_times_ns(&c, &p), vec![1000 - 500 - 100]);
    }

    #[test]
    fn each_client_span_sees_only_its_own_window() {
        let c = [span(Op::Open, 3, 0, 100), span(Op::Read, 3, 100, 300)];
        let p = [span(Op::PfsOpen, 3, 20, 80), span(Op::PfsRead, 3, 120, 280)];
        assert_eq!(self_times_ns(&c, &p), vec![40, 40]);
    }

    #[test]
    fn file_index_parses_sample_paths_only() {
        use std::path::Path;
        assert_eq!(file_index(Path::new("/data/train/sample_00000042.bin")), 42);
        assert_eq!(file_index(Path::new("/data/train/other.bin")), u32::MAX);
    }
}
