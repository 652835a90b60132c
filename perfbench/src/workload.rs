//! The workloads and the runner that drives a cluster through them.
//!
//! Load is closed-loop: [`READERS`] threads, each one training rank on its
//! own node's client, read their `DistributedSampler` shard of a shuffled
//! epoch and issue the next sample only when the last one has returned.
//! Every sample is checked byte for byte. A run builds the cluster once per
//! round; each round's set-up is timed and is followed by a fixed number of
//! whole measured epochs, so per-sample counts repeat exactly.

use crate::procfs;
use crate::store::{is_exact, write_dataset, PfsCounts, TimedStore};
use crate::trace::{Op, Span, Tracer};
use bytes::Bytes;
use hvac_core::{Cluster, ClusterOptions, HvacClient};
use hvac_dl::{DatasetSpec, DistributedSampler};
use hvac_pfs::{DirStore, FileStore};
use hvac_types::{ByteSize, EvictionPolicyKind, JobId, Result, TransportKind};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Compute nodes, each with one server instance and one training rank.
pub const NODES: u32 = 2;
/// Closed-loop reader threads: one per node, matching the 2 vCPUs the
/// benchmark was tuned on (more readers than CPUs only measures queueing).
pub const READERS: usize = NODES as usize;
/// Application directory the dataset lives under.
pub const DATASET_DIR: &str = "/data/train";

/// How a sample is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `open` → whole-file `pread` → `close`.
    Whole,
    /// Even file indices through `read_file_segmented` with `segment`-byte
    /// segments; odd ones as [`Shape::Whole`].
    AlternateSegmented {
        /// Segment size in bytes.
        segment: u64,
    },
}

impl Shape {
    fn segmented(self, file: usize) -> Option<u64> {
        match self {
            Shape::AlternateSegmented { segment } if file.is_multiple_of(2) => Some(segment),
            _ => None,
        }
    }
}

/// One workload: a dataset, a cluster configuration and a read shape.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// File-size distribution (the per-run seed is mixed into its seed).
    pub dataset: DatasetSpec,
    /// Files in the dataset (even, so every epoch reads every file).
    pub files: usize,
    /// RPC transport.
    pub transport: TransportKind,
    /// Per-node cache capacity as a share of the dataset's bytes.
    pub cache_share: f64,
    /// Whether set-up reads the whole dataset once (the warm epoch).
    pub warm: bool,
    /// How samples are read.
    pub shape: Shape,
    /// Cluster set-ups per run, each followed by its share of the epochs.
    pub rounds: usize,
    /// Measured epochs per second of `--seconds`, so a run measures for
    /// about `--seconds` on a 2-vCPU host while always doing whole epochs.
    pub epochs_per_second: f64,
}

/// Names of every workload, in the order the benchmark lists them.
pub const WORKLOADS: [&str; 3] = ["hit_epoch", "miss_epoch", "large_files"];

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        let imagenet = DatasetSpec::imagenet21k();
        let w = match name {
            // Fits in cache and is read once in set-up: every measured read
            // is a hit over real TCP sockets; the PFS is never touched.
            "hit_epoch" => Workload {
                name: "hit_epoch",
                files: 1_600,
                dataset: imagenet,
                transport: TransportKind::Tcp,
                cache_share: 1.0,
                warm: true,
                shape: Shape::Whole,
                rounds: 4,
                epochs_per_second: 2.8,
            },
            // Four times the aggregate cache, random eviction, no warm-up:
            // most reads take the miss path (Stat → open_meta, copy, insert,
            // evict); loopback keeps the transport cheap.
            "miss_epoch" => Workload {
                name: "miss_epoch",
                files: 1_600,
                dataset: imagenet,
                transport: TransportKind::Loopback,
                cache_share: 1.0 / (4.0 * f64::from(NODES)),
                warm: false,
                shape: Shape::Whole,
                rounds: 8,
                epochs_per_second: 3.2,
            },
            // ~2.5 MB files, fully warm, over UDS: segmented reads
            // (coalescing, batch RPCs, submission queue) and >1 MiB chunk
            // pipelines on alternate files.
            "large_files" => Workload {
                name: "large_files",
                files: 120,
                dataset: DatasetSpec::cosmouniverse(),
                transport: TransportKind::Unix,
                cache_share: 1.0,
                warm: true,
                shape: Shape::AlternateSegmented { segment: 256 << 10 },
                rounds: 4,
                epochs_per_second: 4.0,
            },
            _ => return None,
        };
        Some(w)
    }

    /// A few-file version of the workload for smoke tests.
    pub fn tiny(mut self) -> Self {
        self.files = 16;
        self.rounds = 2;
        self.epochs_per_second = 0.0;
        self
    }

    /// Measured epochs per round for a run of `seconds` (at least 2, so a
    /// traced run has both traced and untraced epochs).
    pub fn epochs_per_round(&self, seconds: u64) -> usize {
        let per_round = seconds as f64 * self.epochs_per_second / self.rounds as f64;
        (per_round.round() as usize).max(2)
    }

    /// File sizes for `seed`: the dataset's distribution, with the seed
    /// mixed into its draws.
    pub fn sizes(&self, seed: u64) -> Vec<usize> {
        let mut spec = self.dataset.clone();
        spec.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (0..self.files as u64)
            .map(|i| spec.size_of(i).bytes() as usize)
            .collect()
    }
}

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the dataset sizes, the epoch shuffles and random eviction.
    pub seed: u64,
    /// Length of the measurement, in seconds (sets the epoch count).
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory the PFS files are written under.
    pub data_dir: PathBuf,
}

/// Declares [`Counters`] with field-wise `since` and `add`.
macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Public-metrics counters, summed over clients and servers.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct Counters {
            $(pub $field: u64,)*
            /// PFS calls, from the wrapper.
            pub pfs: PfsCounts,
        }

        impl Counters {
            fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($field: self.$field - earlier.$field,)*
                    pfs: self.pfs.since(&earlier.pfs),
                }
            }

            fn add(&mut self, other: &Counters) {
                $(self.$field += other.$field;)*
                self.pfs.add(&other.pfs);
            }
        }
    };
}

counters!(
    client_opens,
    client_reads,
    client_closes,
    retries,
    degraded_reads,
    batch_fallbacks,
    server_reads,
    cache_hits,
    cache_misses,
    pfs_copies,
    evictions,
    dedup_waits,
    eviction_races,
    batch_rpcs,
    stripe_contention,
    rpcs,
    header_bytes,
    bulk_bytes,
    failed_calls,
);

impl Counters {
    fn read(cluster: &Cluster, store: &TimedStore) -> Counters {
        let mut c = Counters::default();
        for rank in 0..cluster.n_clients() {
            let m = cluster.client(rank).metrics().full_snapshot();
            c.client_opens += m.opens;
            c.client_reads += m.reads;
            c.client_closes += m.closes;
            c.retries += m.retries;
            c.degraded_reads += m.degraded_reads;
            c.batch_fallbacks += m.batch_fallbacks;
        }
        let s = cluster.aggregate_metrics();
        c.server_reads = s.reads;
        c.cache_hits = s.cache_hits;
        c.cache_misses = s.cache_misses;
        c.pfs_copies = s.pfs_copies;
        c.evictions = s.evictions;
        c.dedup_waits = s.dedup_waits;
        c.eviction_races = s.eviction_races;
        c.batch_rpcs = s.batch_rpcs;
        c.stripe_contention = s.stripe_contention;
        let (rpcs, request_bytes, reply_bytes, bulk_bytes, failed) =
            cluster.fabric().stats().snapshot();
        c.rpcs = rpcs;
        c.header_bytes = request_bytes + reply_bytes;
        c.bulk_bytes = bulk_bytes;
        c.failed_calls = failed;
        c.pfs = store.counts();
        c
    }
}

/// One timed interval (a set-up or a measured epoch) and how much of the
/// host's CPU time the hypervisor stole during it.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Wall time, in seconds.
    pub secs: f64,
    /// Stolen share of host CPU time over the interval.
    pub steal: f64,
}

/// One measured epoch.
#[derive(Debug, Clone, Default)]
pub struct Epoch {
    /// Wall time and steal.
    pub time: Timed,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Samples read.
    pub samples: u64,
    /// Process CPU time, in µs.
    pub cpu_us: u64,
    /// Latency of each sample, in ns (untraced epochs only).
    pub latencies_ns: Vec<u64>,
}

/// Everything a run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Each round's set-up.
    pub setups: Vec<Timed>,
    /// Each measured epoch, in order.
    pub epochs: Vec<Epoch>,
    /// Samples issued, set-up included.
    pub samples: u64,
    /// Samples that came back byte-exact.
    pub exact: u64,
    /// Samples issued in measured epochs.
    pub measured_samples: u64,
    /// Bytes those samples returned.
    pub measured_payload_bytes: u64,
    /// Time the readers spent checking those bytes, in ns.
    pub measured_verify_ns: u64,
    /// Counters accumulated over the measured epochs.
    pub measured: Counters,
    /// PFS calls over the whole run, set-up included.
    pub job_pfs: PfsCounts,
    /// Peak resident memory at the end of the first round, in KiB.
    pub peak_rss_kib: u64,
    /// Used share of each node's cache at the end of each round.
    pub cache_used_frac: Vec<f64>,
    /// Client spans of the traced measured epochs.
    pub client_spans: Vec<Span>,
    /// PFS spans of the traced phases, set-up included.
    pub pfs_spans: Vec<Span>,
    /// Broken ledgers, one line each.
    pub ledger_errors: Vec<String>,
    /// Seconds spent writing the dataset (not part of set-up).
    pub write_s: f64,
}

/// Times `f` and the host steal share while it runs.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let host = procfs::host_cpu();
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    let steal = match (host, procfs::host_cpu()) {
        (Some(a), Some(b)) => a.steal_frac_until(&b),
        _ => 0.0,
    };
    (out, Timed { secs, steal })
}

/// What the reader threads of one epoch did.
#[derive(Debug, Default)]
struct EpochOutcome {
    samples: u64,
    exact: u64,
    verify_ns: u64,
    payload_bytes: u64,
    latencies_ns: Vec<u64>,
    spans: Vec<Span>,
}

impl EpochOutcome {
    fn absorb(&mut self, other: EpochOutcome) {
        self.samples += other.samples;
        self.exact += other.exact;
        self.verify_ns += other.verify_ns;
        self.payload_bytes += other.payload_bytes;
        self.latencies_ns.extend(other.latencies_ns);
        self.spans.extend(other.spans);
    }
}

/// Read-only state the reader threads share.
struct Dataset {
    paths: Vec<PathBuf>,
    sizes: Vec<usize>,
    sampler: DistributedSampler,
    shape: Shape,
    tracer: Arc<Tracer>,
}

/// Run `f` as a span of `op` on `file` when `spans` is recording.
fn span<T>(
    tracer: &Tracer,
    spans: &mut Option<&mut Vec<Span>>,
    op: Op,
    file: usize,
    f: impl FnOnce() -> T,
) -> T {
    let Some(spans) = spans else {
        return f();
    };
    let start_ns = tracer.now_ns();
    let out = f();
    spans.push(Span {
        op,
        file: file as u32,
        thread: crate::trace::thread_index(),
        start_ns,
        end_ns: tracer.now_ns(),
    });
    out
}

/// One sample: `<open, pread, close>` or one segmented read.
fn read_sample(
    client: &HvacClient,
    ds: &Dataset,
    file: usize,
    mut spans: Option<&mut Vec<Span>>,
) -> Result<Bytes> {
    let path = ds.paths[file].as_path();
    let t = &ds.tracer;
    if let Some(segment) = ds.shape.segmented(file) {
        return span(t, &mut spans, Op::Segmented, file, || {
            client.read_file_segmented(path, segment)
        });
    }
    let fd = span(t, &mut spans, Op::Open, file, || client.open(path))?;
    let data = span(t, &mut spans, Op::Read, file, || {
        client.pread(fd, 0, ds.sizes[file])
    });
    span(t, &mut spans, Op::Close, file, || client.close(fd))?;
    data
}

/// One rank's shard of one epoch, closed-loop.
fn reader(client: &HvacClient, ds: &Dataset, epoch: u32, rank: usize, timed: bool) -> EpochOutcome {
    let mut out = EpochOutcome::default();
    let traced = ds.tracer.enabled();
    for file in ds.sampler.rank_iter(epoch, rank as u64) {
        let file = file as usize;
        let t = Instant::now();
        let got = read_sample(client, ds, file, traced.then_some(&mut out.spans));
        let lat = t.elapsed();
        out.samples += 1;
        if let Ok(data) = got {
            out.payload_bytes += data.len() as u64;
            let t = Instant::now();
            if is_exact(file as u64, ds.sizes[file], &data) {
                out.exact += 1;
            }
            out.verify_ns += t.elapsed().as_nanos() as u64;
        }
        if timed {
            out.latencies_ns.push(lat.as_nanos() as u64);
        }
    }
    out
}

/// One epoch on every rank.
fn run_epoch(cluster: &Cluster, ds: &Dataset, epoch: u32, timed: bool) -> EpochOutcome {
    let outcomes: Vec<EpochOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..READERS)
            .map(|rank| s.spawn(move || reader(cluster.client(rank), ds, epoch, rank, timed)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let mut total = EpochOutcome::default();
    for o in outcomes {
        total.absorb(o);
    }
    total
}

/// Cluster configuration of `w` with `cache_bytes` per node.
fn cluster_options(w: &Workload, seed: u64, cache_bytes: u64) -> ClusterOptions {
    let mut options = ClusterOptions::new(NODES, 1)
        .dataset_dir(DATASET_DIR)
        .cache_capacity(ByteSize(cache_bytes))
        .eviction(EvictionPolicyKind::Random)
        .transport(w.transport)
        .job_id(JobId::DEFAULT);
    options.seed = seed;
    options
}

/// Check the public ledgers of a quiescent cluster that issued `issued`
/// samples since it was built.
fn check_ledgers(round: usize, c: &Counters, issued: u64, shape: Shape, errors: &mut Vec<String>) {
    let mut check = |ok: bool, what: String| {
        if !ok {
            errors.push(format!("round {round}: {what}"));
        }
    };
    check(
        c.cache_hits + c.cache_misses == c.server_reads,
        format!(
            "server hits {} + misses {} != reads {}",
            c.cache_hits, c.cache_misses, c.server_reads
        ),
    );
    check(
        c.client_opens == issued,
        format!("client opens {} != samples issued {issued}", c.client_opens),
    );
    check(
        c.client_closes == issued,
        format!(
            "client closes {} != samples issued {issued}",
            c.client_closes
        ),
    );
    // A segmented read counts one client read per coalesced range, so the
    // per-sample read ledger holds only when every sample is one pread.
    if shape == Shape::Whole {
        check(
            c.client_reads == issued,
            format!("client reads {} != samples issued {issued}", c.client_reads),
        );
    }
}

/// Write the dataset, then run `rounds` × (set-up + measured epochs).
pub fn run(cfg: &RunConfig) -> Result<RunResult> {
    let w = &cfg.workload;
    let tracer = Arc::new(Tracer::default());
    let store = Arc::new(TimedStore::new(
        DirStore::new(cfg.data_dir.join("pfs"))?,
        tracer.clone(),
    ));
    let mut res = RunResult::default();

    let t = Instant::now();
    let sizes = w.sizes(cfg.seed);
    let paths = write_dataset(store.inner(), DATASET_DIR, &sizes)?;
    res.write_s = t.elapsed().as_secs_f64();

    let total_bytes: u64 = sizes.iter().map(|&s| s as u64).sum();
    let cache_bytes = (total_bytes as f64 * w.cache_share).ceil() as u64;
    let options = cluster_options(w, cfg.seed, cache_bytes);
    let ds = Dataset {
        paths,
        sizes,
        sampler: DistributedSampler::new(w.files as u64, READERS as u64, cfg.seed),
        shape: w.shape,
        tracer: tracer.clone(),
    };
    let epochs = w.epochs_per_round(cfg.seconds);
    let pfs: Arc<dyn FileStore> = store.clone();

    for round in 0..w.rounds {
        let pfs_at_start = store.counts();
        let base_epoch = round as u32 * 1000;
        tracer.set_enabled(cfg.trace);
        let (built, setup) = timed(|| -> Result<_> {
            let cluster = Cluster::new(pfs.clone(), options.clone())?;
            let warm = w.warm.then(|| run_epoch(&cluster, &ds, base_epoch, false));
            Ok((cluster, warm.unwrap_or_default()))
        });
        let (mut cluster, warm) = built?;
        res.setups.push(setup);
        let mut issued = warm.samples;
        res.samples += warm.samples;
        res.exact += warm.exact;

        let before = Counters::read(&cluster, &store);
        for e in 0..epochs {
            // A traced run interleaves untraced and traced epochs in an
            // ABBA order, so the overhead of tracing is measured on the same
            // cluster and a drift across the round does not bias it.
            let traced = cfg.trace && matches!(e % 4, 1 | 2);
            tracer.set_enabled(traced);
            let cpu_before = procfs::process_cpu_us().unwrap_or(0);
            let (o, time) = timed(|| run_epoch(&cluster, &ds, base_epoch + 1 + e as u32, !traced));
            let cpu_us = procfs::process_cpu_us()
                .unwrap_or(0)
                .saturating_sub(cpu_before);
            issued += o.samples;
            res.samples += o.samples;
            res.exact += o.exact;
            res.measured_samples += o.samples;
            res.measured_payload_bytes += o.payload_bytes;
            res.measured_verify_ns += o.verify_ns;
            res.client_spans.extend(o.spans);
            res.epochs.push(Epoch {
                time,
                traced,
                samples: o.samples,
                cpu_us,
                latencies_ns: o.latencies_ns,
            });
        }
        tracer.set_enabled(false);
        let after = Counters::read(&cluster, &store);
        res.measured.add(&after.since(&before));
        res.job_pfs.add(&after.pfs.since(&pfs_at_start));
        res.pfs_spans.extend(tracer.take_pfs());
        check_ledgers(round, &after, issued, w.shape, &mut res.ledger_errors);
        for used in cluster.per_node_bytes() {
            res.cache_used_frac.push(used as f64 / cache_bytes as f64);
        }
        if round == 0 {
            res.peak_rss_kib = procfs::peak_rss_kib().unwrap_or(0);
        }
        cluster.shutdown();
    }
    Ok(res)
}
