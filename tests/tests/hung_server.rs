//! Hung-server resilience (paper §III-H, the failure-semantics extension).
//!
//! A *hung* server is worse than a dead one: the fabric accepts the request
//! and simply never answers, so only a per-call deadline can unblock the
//! client. These tests inject hangs with the seeded [`FaultInjector`] and
//! verify the full degradation ladder — typed timeout → same-replica retry
//! → replica failover → circuit breaker → direct-PFS degradation — keeps an
//! epoch byte-correct and promptly served, never wedged.

use hvac_core::client::server_addr;
use hvac_core::cluster::{Cluster, ClusterOptions};
use hvac_net::FaultSpec;
use hvac_pfs::MemStore;
use hvac_types::RetryPolicy;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N_FILES: u64 = 20;
const FILE_SIZE: usize = 256;

/// Tight budgets so a whole epoch against hung servers stays in test time:
/// 40 ms deadline, 2 attempts, 1 ms backoff, breaker after 2 failures.
fn tight_retry() -> RetryPolicy {
    RetryPolicy {
        rpc_timeout: Duration::from_millis(40),
        max_attempts: 2,
        backoff_base: Duration::from_millis(1),
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_secs(10),
        jitter_seed: 0xDEAD_BEEF,
        ..RetryPolicy::default()
    }
}

fn cluster(nodes: u32, replication: u32) -> (Arc<MemStore>, Cluster) {
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), N_FILES, |_| FILE_SIZE);
    let cluster = Cluster::new(
        pfs.clone(),
        ClusterOptions::new(nodes, 1)
            .dataset_dir("/gpfs/train")
            .replication(replication)
            .retry_policy(tight_retry()),
    )
    .unwrap();
    (pfs, cluster)
}

fn sample(i: u64) -> PathBuf {
    PathBuf::from(format!("/gpfs/train/sample_{i:08}.bin"))
}

/// One replica hung (k=2): the epoch completes byte-correct via failover,
/// the timeout is typed and counted, and no read ever approaches the
/// 30-second RPC stall the paper's Mercury deployment suffered.
#[test]
fn hung_replica_epoch_completes_via_failover() {
    let (_pfs, cluster) = cluster(3, 2);
    cluster
        .fabric()
        .fault_injector()
        .set(&server_addr(0, 1), FaultSpec::always_hang(42));

    let client = cluster.client(1);
    let mut max_read = Duration::ZERO;
    for i in 0..N_FILES {
        let start = Instant::now();
        let data = client.read_file(&sample(i)).unwrap();
        max_read = max_read.max(start.elapsed());
        assert_eq!(
            data,
            MemStore::sample_content(i, FILE_SIZE),
            "file {i} corrupted under failover"
        );
    }

    let s = client.metrics().full_snapshot();
    assert!(s.timeouts > 0, "hangs surface as typed timeouts: {s:?}");
    assert!(s.failovers > 0, "hung home must fail over: {s:?}");
    assert_eq!(s.degraded_reads, 0, "replicas suffice, no PFS degradation");
    assert!(
        max_read < Duration::from_secs(5),
        "a read stalled {max_read:?}; one hung replica may cost retries \
         plus one failover, never a 30 s wedge"
    );
}

/// Everything hung (k=1): the client trips its breakers and completes the
/// epoch byte-correct straight from the PFS — HVAC degrades, it never
/// fails the application.
#[test]
fn all_servers_hung_epoch_degrades_to_pfs() {
    let (_pfs, cluster) = cluster(2, 1);
    for addr in cluster.fabric().endpoint_names() {
        cluster
            .fabric()
            .fault_injector()
            .set(&addr, FaultSpec::always_hang(7));
    }

    let client = cluster.client(0);
    let start = Instant::now();
    for i in 0..N_FILES {
        let data = client.read_file(&sample(i)).unwrap();
        assert_eq!(
            data,
            MemStore::sample_content(i, FILE_SIZE),
            "degraded read of file {i} corrupted"
        );
    }

    let s = client.metrics().full_snapshot();
    assert!(s.degraded_reads > 0, "PFS degradation engaged: {s:?}");
    assert!(s.timeouts > 0, "hangs were detected by deadline: {s:?}");
    assert!(s.breaker_trips > 0, "breakers tripped on the wedge: {s:?}");
    assert!(
        s.breaker_skips > 0,
        "later reads skipped the wedged servers: {s:?}"
    );
    // Once the breakers are open the epoch runs at PFS speed: the total
    // cost is a handful of initial deadlines, nowhere near one per read.
    let budget = tight_retry().rpc_timeout * 4 * 8;
    assert!(
        start.elapsed() < budget.max(Duration::from_secs(10)),
        "epoch took {:?}; breakers failed to bound the deadline cost",
        start.elapsed()
    );
}

/// The same seeded fault plan and jitter seed produce the same counter
/// values run-to-run — failures are reproducible, which is what makes them
/// debuggable.
#[test]
fn seeded_faults_are_deterministic() {
    let run = || {
        let (_pfs, cluster) = cluster(2, 2);
        cluster
            .fabric()
            .fault_injector()
            .set(&server_addr(1, 1), FaultSpec::always_hang(99));
        let client = cluster.client(0);
        for i in 0..N_FILES {
            client.read_file(&sample(i)).unwrap();
        }
        let s = client.metrics().full_snapshot();
        (
            s.reads,
            s.bytes,
            s.timeouts,
            s.retries,
            s.failovers,
            s.breaker_trips,
            s.breaker_skips,
            s.degraded_reads,
        )
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "fixed seeds must reproduce the same epoch");
    assert!(first.2 > 0, "the hung replica was actually exercised");
}

/// Drop faults (request lost before the server ever sees it) behave like
/// hangs from the client's perspective: deadline, retry, failover.
#[test]
fn dropped_requests_fail_over_like_hangs() {
    let (_pfs, cluster) = cluster(2, 2);
    cluster
        .fabric()
        .fault_injector()
        .set(&server_addr(0, 1), FaultSpec::always_drop(5));

    let client = cluster.client(0);
    for i in 0..N_FILES {
        let data = client.read_file(&sample(i)).unwrap();
        assert_eq!(data, MemStore::sample_content(i, FILE_SIZE));
    }
    let s = client.metrics().full_snapshot();
    assert!(s.timeouts > 0, "drops surface as deadline misses: {s:?}");
    assert_eq!(s.degraded_reads, 0, "the healthy replica carries the load");
}

/// Once a hung home's breaker is open, multi-RPC reads must route around
/// it like every other call: the read planner addresses each segment range
/// and each chunk to the first replica whose breaker is closed, so no later
/// segmented or multi-chunk read waits out the hung server's deadline.
#[test]
fn open_breakers_route_multi_rpc_reads_around_a_hung_home() {
    let deadline = Duration::from_millis(200);
    let pfs = Arc::new(MemStore::new());
    pfs.synthesize_dataset(Path::new("/gpfs/train"), N_FILES, |_| FILE_SIZE);
    let cluster = Cluster::new(
        pfs,
        ClusterOptions::new(3, 1)
            .dataset_dir("/gpfs/train")
            .replication(2)
            // 64-byte chunks: every whole-file read is four chunk RPCs.
            .bulk_transfer(64, 4)
            .retry_policy(RetryPolicy {
                rpc_timeout: deadline,
                max_attempts: 1,
                breaker_threshold: 1,
                breaker_cooldown: Duration::from_secs(600),
                ..tight_retry()
            }),
    )
    .unwrap();
    cluster
        .fabric()
        .fault_injector()
        .set(&server_addr(0, 1), FaultSpec::always_hang(13));
    let client = cluster.client(1);
    let segment = 32;

    // The first reads that touch the hung home trip its breaker.
    for i in 0..N_FILES {
        let expected = MemStore::sample_content(i, FILE_SIZE);
        assert_eq!(
            client.read_file_segmented(&sample(i), segment).unwrap(),
            expected
        );
        assert_eq!(client.read_file(&sample(i)).unwrap(), expected);
    }
    let tripped = client.metrics().full_snapshot();
    assert!(
        tripped.breaker_trips >= 1,
        "the hung home tripped: {tripped:?}"
    );

    for i in 0..N_FILES {
        let expected = MemStore::sample_content(i, FILE_SIZE);
        let start = Instant::now();
        let segmented = client.read_file_segmented(&sample(i), segment).unwrap();
        let took = start.elapsed();
        assert_eq!(segmented, expected, "segmented read of file {i}");
        assert!(
            took < deadline / 2,
            "segmented read of file {i} took {took:?}: it waited on an open breaker"
        );
        let start = Instant::now();
        let whole = client.read_file(&sample(i)).unwrap();
        let took = start.elapsed();
        assert_eq!(whole, expected, "multi-chunk read of file {i}");
        assert!(
            took < deadline / 2,
            "multi-chunk read of file {i} took {took:?}: it waited on an open breaker"
        );
    }
    let s = client.metrics().full_snapshot();
    assert_eq!(
        s.timeouts, tripped.timeouts,
        "no deadline after the trip: {s:?}"
    );
    assert!(s.breaker_skips > tripped.breaker_skips, "{s:?}");
    assert_eq!(
        s.degraded_reads, 0,
        "the live replica carries the load: {s:?}"
    );
}
