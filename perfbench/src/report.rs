//! Turning a [`RunResult`] into named metrics, a readable table and the
//! one-line JSON result.

use crate::stats::{median, quantile, quietest, ratio};
use crate::trace::{self_times_ns, Op, Span};
use crate::workload::{Epoch, RunResult};
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9][A-Za-z0-9_.-]*`, at most 64 characters).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Whether `name` is a valid metric name: 1 to 64 letters, digits, `_`,
/// `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Share of the measured epochs, those with the least host steal, that
/// wall-clock and CPU metrics are taken over. On a shared host, steal comes
/// in phases of seconds and slows every thread of the process, so a run
/// reports what the program does when the host leaves it alone.
pub const QUIET_EPOCHS: f64 = 0.25;
/// Share of the set-ups, those with the least host steal, whose median is
/// `setup_s`.
pub const QUIET_SETUPS: f64 = 0.5;

/// The quietest [`QUIET_EPOCHS`] of the epochs that were (not) traced.
pub fn quiet_epochs(res: &RunResult, traced: bool) -> Vec<&Epoch> {
    let group: Vec<&Epoch> = res.epochs.iter().filter(|e| e.traced == traced).collect();
    quietest(&group, QUIET_EPOCHS, |e| e.time.steal)
        .into_iter()
        .copied()
        .collect()
}

/// Median samples per second of epochs.
fn median_rate(epochs: &[&Epoch]) -> f64 {
    let rates: Vec<f64> = epochs
        .iter()
        .map(|e| ratio(e.samples as f64, e.time.secs))
        .collect();
    median(&rates).unwrap_or(0.0)
}

/// Sorted latencies in µs of the samples of `epochs`.
pub fn latencies_us(epochs: &[&Epoch]) -> Vec<f64> {
    let mut v: Vec<f64> = epochs
        .iter()
        .flat_map(|e| e.latencies_ns.iter().map(|&ns| ns as f64 / 1e3))
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(res: &RunResult) -> Vec<Metric> {
    let quiet = quiet_epochs(res, false);
    let lat = latencies_us(&quiet);
    let cpu_us: u64 = quiet.iter().map(|e| e.cpu_us).sum();
    let cpu_samples: u64 = quiet.iter().map(|e| e.samples).sum();
    let setups: Vec<f64> = quietest(&res.setups, QUIET_SETUPS, |s| s.steal)
        .into_iter()
        .map(|s| s.secs)
        .collect();
    let pfs_ops = (res.job_pfs.opens + res.job_pfs.reads) as f64;
    vec![
        m("setup_s", median(&setups).unwrap_or(0.0), "s"),
        m("samples_per_s", median_rate(&quiet), "1/s"),
        m("sample_p50_us", quantile(&lat, 0.5).unwrap_or(0.0), "us"),
        m("sample_p90_us", quantile(&lat, 0.9).unwrap_or(0.0), "us"),
        m(
            "cpu_us_per_sample",
            ratio(cpu_us as f64, cpu_samples as f64),
            "us",
        ),
        m(
            "pfs_ops_per_sample",
            ratio(pfs_ops, res.samples as f64),
            "count",
        ),
        m(
            "success_frac",
            ratio(res.exact as f64, res.samples as f64),
            "frac",
        ),
        m("peak_rss_mib", res.peak_rss_kib as f64 / 1024.0, "MiB"),
    ]
}

/// p50 in µs of the given span durations (ns); 0 when there are none.
fn p50_us(mut ns: Vec<f64>) -> f64 {
    ns.sort_by(f64::total_cmp);
    quantile(&ns, 0.5).map_or(0.0, |v| v / 1e3)
}

fn durations<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<f64> {
    spans.map(|s| s.dur_ns() as f64).collect()
}

/// Client reads: whole-file `pread` or `read_file_segmented`.
fn is_read(op: Op) -> bool {
    matches!(op, Op::Read | Op::Segmented)
}

/// The per-layer metrics of a traced run.
pub fn per_layer(res: &RunResult) -> Vec<Metric> {
    let c = &res.measured;
    let n = res.measured_samples as f64;
    let per = |x: u64| ratio(x as f64, n);
    let per_k = |x: u64| ratio(x as f64 * 1e3, n);
    let client = |op: Op| p50_us(durations(res.client_spans.iter().filter(|s| s.op == op)));
    let pfs = |op: Op| p50_us(durations(res.pfs_spans.iter().filter(|s| s.op == op)));
    let selfs = self_times_ns(&res.client_spans, &res.pfs_spans);
    let read_self: Vec<f64> = res
        .client_spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| is_read(s.op))
        .map(|(_, &t)| t as f64)
        .collect();
    let overhead = 1.0
        - ratio(
            median_rate(&quiet_epochs(res, true)),
            median_rate(&quiet_epochs(res, false)),
        );
    vec![
        m("client.open_p50_us", client(Op::Open), "us"),
        m(
            "client.read_p50_us",
            p50_us(durations(res.client_spans.iter().filter(|s| is_read(s.op)))),
            "us",
        ),
        m("client.read_self_p50_us", p50_us(read_self), "us"),
        m("client.close_p50_us", client(Op::Close), "us"),
        m("client.retries_per_ksample", per_k(c.retries), "count"),
        m(
            "client.degraded_per_ksample",
            per_k(c.degraded_reads),
            "count",
        ),
        m(
            "client.batch_fallbacks_per_ksample",
            per_k(c.batch_fallbacks),
            "count",
        ),
        m("net.rpcs_per_sample", per(c.rpcs), "count"),
        m("net.header_bytes_per_sample", per(c.header_bytes), "B"),
        m(
            "net.bulk_bytes_per_payload_byte",
            ratio(c.bulk_bytes as f64, res.measured_payload_bytes as f64),
            "ratio",
        ),
        m("net.failed_calls", c.failed_calls as f64, "count"),
        m(
            "server.hit_frac",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "frac",
        ),
        m("server.pfs_copies_per_sample", per(c.pfs_copies), "count"),
        m(
            "server.dedup_waits_per_ksample",
            per_k(c.dedup_waits),
            "count",
        ),
        m("server.eviction_races", c.eviction_races as f64, "count"),
        m("server.batch_rpcs_per_sample", per(c.batch_rpcs), "count"),
        m(
            "server.stripe_contention_per_ksample",
            per_k(c.stripe_contention),
            "count",
        ),
        m("cache.evictions_per_sample", per(c.evictions), "count"),
        m(
            "cache.used_frac",
            median(&res.cache_used_frac).unwrap_or(0.0),
            "frac",
        ),
        m("pfs.open_meta_per_sample", per(c.pfs.opens), "count"),
        m("pfs.read_per_sample", per(c.pfs.reads), "count"),
        m("pfs.open_meta_p50_us", pfs(Op::PfsOpen), "us"),
        m("pfs.read_p50_us", pfs(Op::PfsRead), "us"),
        m(
            "pfs.busy_us_per_sample",
            ratio(res.job_pfs.busy_ns as f64 / 1e3, res.samples as f64),
            "us",
        ),
        m("trace.overhead_frac", overhead, "frac"),
    ]
}

/// Client self time and PFS span totals of a traced run, one line each.
pub fn span_table(res: &RunResult) -> String {
    let selfs = self_times_ns(&res.client_spans, &res.pfs_spans);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>12} {:>12} {:>14}",
        "span", "count", "p50_us", "self_p50_us", "total_ms"
    );
    for op in [Op::Open, Op::Read, Op::Segmented, Op::Close] {
        let (dur, own): (Vec<f64>, Vec<f64>) = res
            .client_spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.op == op)
            .map(|(s, &t)| (s.dur_ns() as f64, t as f64))
            .unzip();
        let total = dur.iter().fold(0.0, |a, b| a + b);
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>12.1} {:>12.1} {:>14.1}",
            op.label(),
            dur.len(),
            p50_us(dur),
            p50_us(own),
            total / 1e6
        );
    }
    for op in [Op::PfsOpen, Op::PfsRead] {
        let dur = durations(res.pfs_spans.iter().filter(|s| s.op == op));
        let total = dur.iter().fold(0.0, |a, b| a + b);
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>12.1} {:>12} {:>14.1}",
            op.label(),
            dur.len(),
            p50_us(dur),
            "-",
            total / 1e6
        );
    }
    out
}

/// The metrics as an aligned `name value unit` table.
pub fn metric_table(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for mt in metrics {
        let _ = writeln!(out, "{:<38} {:>16.4} {}", mt.name, mt.value, mt.unit);
    }
    out
}

/// The one-line result: `correct`, `attempted`, `failed` and `metrics`.
/// Values are printed with every digit Rust's shortest round-trip
/// formatting gives.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|mt| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                mt.name, mt.value, mt.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "setup_s",
            "client.open_p50_us",
            "a",
            "9x",
            "net.rpcs-per_sample",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "ü",
            "x\"y",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn every_reported_name_is_valid_and_unique() {
        let res = RunResult::default();
        for set in [end_to_end(&res), per_layer(&res)] {
            let mut names: Vec<_> = set.iter().map(|m| m.name).collect();
            assert!(names.iter().all(|n| valid_name(n)));
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), set.len());
        }
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let line = result_json(true, 10, 0, &[m("setup_s", 0.8127, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
