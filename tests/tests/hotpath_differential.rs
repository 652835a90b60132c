//! Differential hot-path tier: **every read shape** — whole-file, multi-chunk
//! bulk, segmented, coalesced, batched — must be byte-exact on every
//! transport, clean and under drop/delay/crash faults.
//!
//! Whole-file reads run on two arms: the one-RPC arm (default 1 MiB chunks,
//! so every read here is a single RPC down the replica ladder) and the
//! planned arm (8 KiB chunks, so larger files become chunk RPCs through the
//! read planner and submission queue). Segmented reads are planned on both.
//! Every assertion compares three ways: against the synthesized ground
//! truth, and between the two arms, so a bug that corrupts both arms the
//! same way still trips the ground-truth check.

use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_net::{FaultSpec, BULK_CHUNK_SIZE};
use hvac_pfs::MemStore;
use hvac_types::{RetryPolicy, TransportKind};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SEG: u64 = 16 * 1024;

/// File sizes chosen to hit every tiling case: sub-segment, exact
/// segment multiple, straddling remainders, and multi-batch spans.
const SIZES: [usize; 6] = [
    1,
    100,
    SEG as usize,
    3 * SEG as usize + 17,
    96 * 1024,
    256 * 1024 + 12_345,
];

/// `(name, bulk_chunk)` of the two whole-file arms.
const ARMS: [(&str, usize); 2] = [("one-rpc", BULK_CHUNK_SIZE), ("planned", 8 * 1024)];

const TRANSPORTS: [TransportKind; 3] = [
    TransportKind::Loopback,
    TransportKind::Tcp,
    TransportKind::Unix,
];

fn sample(i: u64) -> PathBuf {
    PathBuf::from(format!("/gpfs/train/sample_{i:08}.bin"))
}

fn dataset() -> Arc<MemStore> {
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), SIZES.len() as u64, |i| {
        SIZES[i as usize]
    });
    pfs
}

fn build(
    transport: TransportKind,
    bulk_chunk: usize,
    tweak: impl FnOnce(ClusterOptions) -> ClusterOptions,
) -> (Arc<MemStore>, Cluster) {
    let pfs = dataset();
    let options = tweak(
        ClusterOptions::new(4, 1)
            .dataset_dir("/gpfs/train")
            .transport(transport)
            .bulk_transfer(bulk_chunk, 4),
    );
    let cluster = Cluster::new(pfs.clone(), options).unwrap();
    (pfs, cluster)
}

/// Read every file through both shapes on `cluster` and return the bytes
/// so the caller can difference the two arms.
fn read_all(cluster: &Cluster, rank: usize, tag: &str) -> Vec<(Vec<u8>, Vec<u8>)> {
    let client = cluster.client(rank);
    SIZES
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let p = sample(i as u64);
            let whole = client.read_file(&p).unwrap_or_else(|e| {
                panic!("{tag}: whole-file read of {} failed: {e}", p.display())
            });
            let segmented = client
                .read_file_segmented(&p, SEG)
                .unwrap_or_else(|e| panic!("{tag}: segmented read of {} failed: {e}", p.display()));
            let expected = MemStore::sample_content(i as u64, size);
            assert_eq!(whole, expected, "{tag}: whole-file bytes of file {i}");
            assert_eq!(segmented, expected, "{tag}: segmented bytes of file {i}");
            (whole.to_vec(), segmented.to_vec())
        })
        .collect()
}

/// Clean differential sweep: whole-file (one RPC vs 8 KiB chunk RPCs) +
/// segmented (coalesced and batched) on every transport.
#[test]
fn all_read_shapes_agree_across_arms_and_transports() {
    for transport in TRANSPORTS {
        let (_p1, one_rpc) = build(transport, ARMS[0].1, |o| o);
        let (_p2, planned) = build(transport, ARMS[1].1, |o| o);
        let a = read_all(&one_rpc, 0, &format!("{transport:?}/one-rpc"));
        let b = read_all(&planned, 0, &format!("{transport:?}/planned"));
        assert_eq!(a, b, "{transport:?}: arms disagree");
        for cluster in [&one_rpc, &planned] {
            assert!(
                cluster.client(0).metrics().full_snapshot().batch_rpcs >= 1,
                "{transport:?}: segmented reads never batched"
            );
        }
        // Same segmented reads on both arms, so the extra server reads are
        // the planned arm's chunk RPCs.
        assert!(
            planned.aggregate_metrics().reads > one_rpc.aggregate_metrics().reads,
            "{transport:?}: the planned arm never split a read into chunks"
        );
    }
}

/// A single-node allocation homes every segment on the same server, so the
/// planner's adjacent-range coalescing collapses a whole file into one
/// request — the pure-coalescing shape.
#[test]
fn coalesced_single_destination_reads_are_exact() {
    for transport in TRANSPORTS {
        let pfs = dataset();
        let mk = |bulk_chunk| {
            Cluster::new(
                pfs.clone(),
                ClusterOptions::new(1, 1)
                    .dataset_dir("/gpfs/train")
                    .transport(transport)
                    .bulk_transfer(bulk_chunk, 4),
            )
            .unwrap()
        };
        let (one_rpc, planned) = (mk(ARMS[0].1), mk(ARMS[1].1));
        let a = read_all(&one_rpc, 0, &format!("{transport:?}/coalesced/one-rpc"));
        let b = read_all(&planned, 0, &format!("{transport:?}/coalesced/planned"));
        assert_eq!(a, b, "{transport:?}: single-node arms disagree");
    }
}

/// Coalescing disabled and a tiny `batch_max` force many small batches per
/// destination — the pure-batching shape.
#[test]
fn batched_reads_with_coalescing_disabled_are_exact() {
    for transport in TRANSPORTS {
        let (_p1, one_rpc) = build(transport, ARMS[0].1, |o| o.coalesce_batch(0, 2));
        let (_p2, planned) = build(transport, ARMS[1].1, |o| o.coalesce_batch(0, 2));
        let a = read_all(&one_rpc, 1, &format!("{transport:?}/batched/one-rpc"));
        let b = read_all(&planned, 1, &format!("{transport:?}/batched/planned"));
        assert_eq!(a, b, "{transport:?}: batching arms disagree");
    }
}

/// Small deadlines so injected drops cost milliseconds, enough attempts
/// that a few-percent drop rate cannot exhaust a replica ladder.
fn fault_retry() -> RetryPolicy {
    RetryPolicy {
        rpc_timeout: Duration::from_millis(50),
        max_attempts: 4,
        backoff_base: Duration::from_millis(1),
        breaker_threshold: 16,
        breaker_cooldown: Duration::from_millis(100),
        jitter_seed: 0x4845_5854, // "HXT"
        ..RetryPolicy::default()
    }
}

fn arm_drop_delay(cluster: &Cluster) {
    for (i, addr) in cluster.fabric().endpoint_names().into_iter().enumerate() {
        cluster.fabric().fault_injector().set(
            &addr,
            FaultSpec {
                delay_prob: 0.25,
                delay: Duration::from_millis(1),
                drop_prob: 0.03,
                seed: 0xD1FF ^ ((i as u64) << 8),
                ..FaultSpec::default()
            },
        );
    }
}

/// Drop + delay faults on every endpoint: batch and chunk RPCs fail
/// probabilistically and must fall back to their ladders without ever
/// returning wrong bytes.
#[test]
fn drop_and_delay_faults_stay_byte_exact_on_both_arms() {
    for transport in TRANSPORTS {
        for (arm, bulk_chunk) in ARMS {
            let (_pfs, cluster) = build(transport, bulk_chunk, |o| {
                o.replication(2).retry_policy(fault_retry())
            });
            // Warm pass (clean) so the dataset is cached, then arm faults.
            read_all(&cluster, 0, &format!("{transport:?}/warm"));
            arm_drop_delay(&cluster);
            for pass in 0..3 {
                read_all(
                    &cluster,
                    pass % 2,
                    &format!("{transport:?}/faulted/{arm}/pass{pass}"),
                );
            }
            assert!(
                cluster.fabric().fault_injector().injected() > 0,
                "{transport:?}: the fault plan never fired"
            );
        }
    }
}

/// Crash-stop a node mid-workload: with k=2 replication the surviving
/// replica (or the PFS rung) must keep every shape byte-exact on both arms.
#[test]
fn crash_faults_stay_byte_exact_on_both_arms() {
    for transport in TRANSPORTS {
        for (arm, bulk_chunk) in ARMS {
            let (_pfs, cluster) = build(transport, bulk_chunk, |o| {
                o.replication(2).retry_policy(fault_retry()).repair(false)
            });
            read_all(&cluster, 0, &format!("{transport:?}/pre-crash"));
            cluster.crash_node(1).unwrap();
            for pass in 0..2 {
                read_all(
                    &cluster,
                    pass,
                    &format!("{transport:?}/crashed/{arm}/pass{pass}"),
                );
            }
            cluster.restart_node(1).unwrap();
            read_all(&cluster, 1, &format!("{transport:?}/post-restart/{arm}"));
        }
    }
}
