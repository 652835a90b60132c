//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints every metric by name with its unit, a line
//! of run diagnostics, and, last, a one-line JSON result. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` the per-layer metrics of a traced
//! run. Run it from the repository root; scratch files go under
//! `.bench_data/` there and are removed on exit.

use perfbench::procfs;
use perfbench::report::{
    end_to_end, latencies_us, metric_table, per_layer, quiet_epochs, result_json, span_table,
    valid_name,
};
use perfbench::stats::quantile;
use perfbench::workload::{run, RunConfig, Workload, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::named(&value).ok_or(format!(
                    "unknown workload {value}; expected one of {WORKLOADS:?}"
                ))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Commit the checkout is at, read from `.git` without running git
/// (`unknown` outside a git checkout).
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|r| r.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave `.bench_data` itself only if another run still uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = Scratch(PathBuf::from(".bench_data").join(format!("run-{}", std::process::id())));
    let tmp = scratch.0.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    // Unix-domain sockets are created under the temp dir. A relative path
    // keeps them inside the checkout and short enough for `sun_path`
    // wherever the checkout lives. Set before any thread starts.
    std::env::set_var("TMPDIR", &tmp);

    let host_before = procfs::host_cpu();
    let cfg = RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        data_dir: scratch.0.clone(),
    };
    let res = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            return ExitCode::from(1);
        }
    };
    let steal = match (host_before, procfs::host_cpu()) {
        (Some(a), Some(b)) => a.steal_frac_until(&b),
        _ => 0.0,
    };

    let metrics = if cfg.trace {
        per_layer(&res)
    } else {
        end_to_end(&res)
    };
    assert!(
        metrics
            .iter()
            .all(|m| valid_name(m.name) && m.value.is_finite()),
        "every metric has a valid name and a finite value"
    );
    let failed = res.samples - res.exact;
    let correct = failed == 0 && res.ledger_errors.is_empty();

    println!(
        "workload {} seed {} trace {} epochs/round {} rounds {}",
        cfg.workload.name,
        cfg.seed,
        u8::from(cfg.trace),
        cfg.workload.epochs_per_round(cfg.seconds),
        res.setups.len()
    );
    if cfg.trace {
        print!("{}", span_table(&res));
    }
    print!("{}", metric_table(&metrics));
    let quiet = quiet_epochs(&res, false);
    let lat = latencies_us(&quiet);
    let setups: Vec<String> = res
        .setups
        .iter()
        .map(|s| format!("{:.3}@{:.2}", s.secs, s.steal))
        .collect();
    println!(
        "diag cpus {} steal_frac {:.4} git_rev {} seed {} samples {} measured_samples {} \
         quiet_epochs {}/{} quiet_steal_max {:.3} sample_p99_us {:.1} samples_above_p99 {} \
         verify_us_per_sample {:.2} write_s {:.3} setups(s@steal) {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        steal,
        git_rev(),
        cfg.seed,
        res.samples,
        res.measured_samples,
        quiet.len(),
        res.epochs.iter().filter(|e| !e.traced).count(),
        quiet.iter().map(|e| e.time.steal).fold(0.0, f64::max),
        quantile(&lat, 0.99).unwrap_or(0.0),
        lat.len() / 100,
        res.measured_verify_ns as f64 / 1e3 / res.measured_samples.max(1) as f64,
        res.write_s,
        setups.join(" "),
    );
    for e in &res.ledger_errors {
        println!("ledger broken: {e}");
    }
    println!("{}", result_json(correct, res.samples, failed, &metrics));
    drop(scratch);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
