//! Read hot-path latency harness for segmented reads.
//!
//! Spins up a real [`Cluster`] per transport, warms every file into the
//! node-local caches, then fans out 1/4/8/16 reader threads — each with its
//! own client rank — issuing segmented reads and recording per-read
//! latency. The segment size is deliberately small (16 KiB on 256 KiB
//! files — 16 segments striped over 4 nodes) because small RPCs are what
//! the batching layer exists for: the read planner coalesces adjacent
//! segments, groups the rest into per-destination batch RPCs submitted
//! concurrently through the submission queue, and reassembles replies from
//! the slab pool. It runs on the in-process loopback fabric and on real TCP
//! sockets.
//!
//! Run with `cargo bench -p hvac-bench --bench bench_hotpath`; emits
//! `results/BENCH_hotpath.json` at the repo root and self-asserts its gate:
//! p99 at 16 readers must not exceed a fixed per-transport ceiling — the
//! 16-reader p99 of the one-RPC-per-segment path (since deleted) in its
//! last committed two-arm run, so the batched path may never fall back to
//! what batching replaced.

use hvac_bench::hist::{LatencyHist, Percentiles};
use hvac_core::{Cluster, ClusterOptions};
use hvac_pfs::MemStore;
use hvac_types::TransportKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const N_FILES: u64 = 64;
const FILE_SIZE: usize = 256 * 1024;
const SEGMENT_SIZE: u64 = 16 * 1024;
const READS_PER_THREAD: usize = 48;
const READER_COUNTS: [usize; 4] = [1, 4, 8, 16];
const REPS: usize = 3;
const NODES: u32 = 4;
const CLIENTS_PER_NODE: u32 = 4; // NODES * CLIENTS_PER_NODE >= max readers

/// p99 ceiling at 16 readers per transport, in ns: the one-RPC-per-segment
/// path's 16-reader p99 in the last two-arm run of this harness.
const P99_CEILING_NS: [(TransportKind, u64); 2] = [
    (TransportKind::Loopback, 4_741_892),
    (TransportKind::Tcp, 10_252_843),
];

fn sample(i: u64) -> PathBuf {
    PathBuf::from(format!("/gpfs/hot/sample_{i:08}.bin"))
}

fn build_cluster(transport: TransportKind) -> Cluster {
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/hot"), N_FILES, |_| FILE_SIZE);
    Cluster::new(
        pfs,
        ClusterOptions::new(NODES, 1)
            .dataset_dir("/gpfs/hot")
            .clients_per_node(CLIENTS_PER_NODE)
            .rebalance(false)
            .repair(false)
            .transport(transport),
    )
    .expect("cluster construction")
}

/// Pull every file through rank 0 once so the measured phase is all
/// node-cache hits, and verify the bytes while we are at it.
fn warm(cluster: &Cluster) {
    let client = cluster.client(0);
    for i in 0..N_FILES {
        let data = client
            .read_file_segmented(&sample(i), SEGMENT_SIZE)
            .expect("warm read");
        assert_eq!(
            data,
            MemStore::sample_content(i, FILE_SIZE),
            "warm read returned wrong bytes for file {i}"
        );
    }
}

/// One timed rep: `readers` threads, each on its own client rank, issue
/// `READS_PER_THREAD` segmented reads round-robin over the dataset with a
/// per-thread stride so the ranks do not move in lockstep. Returns the
/// merged latency histogram.
fn run_once(cluster: &Cluster, readers: usize) -> LatencyHist {
    let mut merged = LatencyHist::new();
    std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(readers);
        for t in 0..readers {
            let client = cluster.client(t).clone();
            joins.push(scope.spawn(move || {
                let mut hist = LatencyHist::new();
                let mut bytes = 0usize;
                for r in 0..READS_PER_THREAD {
                    let i = (t as u64 * 17 + r as u64) % N_FILES;
                    let start = Instant::now();
                    let data = client
                        .read_file_segmented(&sample(i), SEGMENT_SIZE)
                        .expect("measured read");
                    hist.record(start.elapsed());
                    bytes += data.len();
                }
                assert_eq!(bytes, READS_PER_THREAD * FILE_SIZE);
                hist
            }));
        }
        for j in joins {
            merged.merge(&j.join().expect("reader thread panicked"));
        }
    });
    merged
}

/// Best-of-N percentiles (minimum p99 across reps) for one configuration —
/// the rep least disturbed by scheduler noise is the honest shape.
fn measure(cluster: &Cluster, readers: usize) -> (Percentiles, usize) {
    // Warm-up rep: thread-spawn paths, lazily dialed sockets.
    run_once(cluster, readers);
    let mut best: Option<Percentiles> = None;
    let mut samples = 0usize;
    for _ in 0..REPS {
        let hist = run_once(cluster, readers);
        samples = hist.len();
        let p = hist.percentiles().expect("non-empty rep");
        if best.is_none_or(|b| p.p99 < b.p99) {
            best = Some(p);
        }
    }
    (best.expect("REPS >= 1"), samples)
}

fn transport_name(t: TransportKind) -> &'static str {
    match t {
        TransportKind::Loopback => "loopback",
        TransportKind::Tcp => "tcp",
        TransportKind::Unix => "unix",
    }
}

fn main() {
    println!(
        "hotpath bench: {N_FILES} files x {FILE_SIZE} B, segment {SEGMENT_SIZE} B, \
         {READS_PER_THREAD} reads/thread, reps {REPS}"
    );

    let mut rows = Vec::new();
    let mut gates = Vec::new();
    let mut gate_failures = Vec::new();
    let max_readers = *READER_COUNTS.last().expect("non-empty");
    for (transport, ceiling) in P99_CEILING_NS {
        let tname = transport_name(transport);
        let cluster = build_cluster(transport);
        warm(&cluster);
        let mut p99_at_max = 0u64;
        for &readers in &READER_COUNTS {
            let (p, samples) = measure(&cluster, readers);
            println!(
                "  {tname:<8} readers={readers:>2}  \
                 p50 {:>9.1} us  p99 {:>9.1} us  p999 {:>9.1} us",
                p.p50 as f64 / 1e3,
                p.p99 as f64 / 1e3,
                p.p999 as f64 / 1e3,
            );
            rows.push(format!(
                "    {{\"transport\": \"{tname}\", \
                 \"readers\": {readers}, \"samples\": {samples}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
                p.p50, p.p99, p.p999
            ));
            if readers == max_readers {
                p99_at_max = p.p99;
            }
        }
        let pass = p99_at_max <= ceiling;
        gates.push(format!(
            "    {{\"transport\": \"{tname}\", \"readers\": {max_readers}, \"p99_ns\": {p99_at_max}, \
             \"ceiling_p99_ns\": {ceiling}, \"pass\": {pass}}}"
        ));
        if !pass {
            gate_failures.push(format!(
                "{tname}: p99 {p99_at_max} ns > ceiling {ceiling} ns at {max_readers} readers"
            ));
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"files\": {N_FILES},\n  \
         \"file_size_bytes\": {FILE_SIZE},\n  \"segment_size_bytes\": {SEGMENT_SIZE},\n  \
         \"reads_per_thread\": {READS_PER_THREAD},\n  \"reps\": {REPS},\n  \
         \"results\": [\n{}\n  ],\n  \"gate\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        gates.join(",\n"),
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/BENCH_hotpath.json");
    std::fs::write(&out, json).expect("write results/BENCH_hotpath.json");
    println!("wrote {}", out.display());
    assert!(
        gate_failures.is_empty(),
        "hotpath gate failed: {}",
        gate_failures.join("; ")
    );
}
