//! A tiny run of every workload, untraced and traced, through the same
//! entry point the benchmark binary uses.

use perfbench::report::{end_to_end, per_layer, valid_name, Metric};
use perfbench::workload::{run, RunConfig, RunResult, Workload, WORKLOADS};

fn tiny_run(name: &str, trace: bool) -> RunResult {
    let data_dir = std::env::temp_dir().join(format!(
        "perfbench-smoke-{name}-{}-{}",
        u8::from(trace),
        std::process::id()
    ));
    let cfg = RunConfig {
        workload: Workload::named(name).expect("known workload").tiny(),
        seed: 7,
        seconds: 1,
        trace,
        data_dir: data_dir.clone(),
    };
    let res = run(&cfg).expect("tiny run completes");
    std::fs::remove_dir_all(&data_dir).expect("scratch dir removed");
    res
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} reported"))
        .value
}

fn check_common(name: &str, res: &RunResult, metrics: &[Metric]) {
    assert!(res.samples > 0, "{name}: no samples");
    assert_eq!(
        res.exact, res.samples,
        "{name}: a sample was not byte-exact"
    );
    assert!(
        res.ledger_errors.is_empty(),
        "{name}: {:?}",
        res.ledger_errors
    );
    for m in metrics {
        assert!(valid_name(m.name) && m.value.is_finite(), "{name}: {m:?}");
    }
}

#[test]
fn every_workload_runs_untraced() {
    for name in WORKLOADS {
        let res = tiny_run(name, false);
        let metrics = end_to_end(&res);
        check_common(name, &res, &metrics);
        assert_eq!(value(&metrics, "success_frac"), 1.0);
        // CPU time is counted in 10 ms clock ticks, which a tiny epoch may
        // not reach; every other end-to-end metric is never zero.
        for m in metrics.iter().filter(|m| m.name != "cpu_us_per_sample") {
            assert!(m.value > 0.0, "{name}: {} is zero", m.name);
        }
    }
}

#[test]
fn every_workload_runs_traced() {
    for name in WORKLOADS {
        let res = tiny_run(name, true);
        let metrics = per_layer(&res);
        check_common(name, &res, &metrics);
        assert!(!res.client_spans.is_empty(), "{name}: no client spans");
        let pfs_per_sample =
            value(&metrics, "pfs.open_meta_per_sample") + value(&metrics, "pfs.read_per_sample");
        match name {
            "hit_epoch" => {
                assert_eq!(pfs_per_sample, 0.0, "warm epochs never touch the PFS");
                assert!(value(&metrics, "net.rpcs_per_sample") >= 3.0);
                assert_eq!(value(&metrics, "server.hit_frac"), 1.0);
            }
            "miss_epoch" => assert!(value(&metrics, "server.pfs_copies_per_sample") > 0.0),
            "large_files" => {
                // Warm segmented reads (every other file) still stat the PFS.
                assert_eq!(value(&metrics, "pfs.open_meta_per_sample"), 0.5);
                assert_eq!(value(&metrics, "pfs.read_per_sample"), 0.0);
                assert!(value(&metrics, "server.batch_rpcs_per_sample") > 0.0);
            }
            other => panic!("unexpected workload {other}"),
        }
    }
}
