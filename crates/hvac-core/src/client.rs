//! The HVAC client library (paper §III-D, §III-F).
//!
//! The client is what the `LD_PRELOAD` shim (or an embedding application)
//! talks to. It keeps a descriptor table for intercepted files, computes the
//! home server of each path by hashing (§III-E), and forwards
//! `<open, read, close>` as RPCs.
//!
//! Failure semantics (§III-H, extended here): every RPC carries a per-call
//! deadline from the client's [`RetryPolicy`]; transient failures (typed
//! timeouts from hung servers, `ServerDown`, transport errors) are retried
//! with exponential backoff + seeded jitter and then failed over to the
//! next replica. A per-replica consecutive-failure circuit breaker skips a
//! wedged server proactively on subsequent calls. When every replica is
//! exhausted and the client has a PFS fallback configured, reads degrade to
//! direct PFS access — the epoch completes byte-correct instead of erroring,
//! which is HVAC's whole contract.

use crate::intercept::DatasetMatcher;
use crate::metrics::ClientMetrics;
use crate::protocol::{Request, Response};
use crate::view::ViewHandle;
use bytes::Bytes;
use hvac_hash::pathhash::{hash_job_path, mix64};
use hvac_hash::placement::{make_placement, Placement};
use hvac_net::fabric::{Fabric, Reply};
use hvac_net::plan::{coalesce_plan, BatchItem, PlanEntry};
use hvac_net::pool::BufferPool;
use hvac_net::reassemble_bulk_pooled;
use hvac_net::sq::{SqEntry, SqPool, SubmissionQueue};
use hvac_pfs::FileStore;
use hvac_sync::{classes, OrderedMutex};
use hvac_types::{ClusterView, HvacError, JobId, PlacementKind, Result, RetryPolicy, ServerId};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client configuration.
#[derive(Debug, Clone)]
pub struct HvacClientOptions {
    /// Directory whose files are cached (the `HVAC_DATASET_DIR` contract).
    pub dataset_dir: PathBuf,
    /// Placement algorithm — must match the rest of the job.
    pub placement: PlacementKind,
    /// Replicas per file (1 = paper's single-home design).
    pub replication: u32,
    /// Total HVAC server instances in the allocation.
    pub n_servers: usize,
    /// Server instances per node (for address derivation).
    pub instances_per_node: u32,
    /// Deadline/retry/backoff/breaker budget for every RPC this client
    /// issues.
    pub retry: RetryPolicy,
    /// Reads larger than this are split into chunk RPCs of at most this many
    /// bytes (Mercury's RDMA-sized bulk pieces).
    pub bulk_chunk: usize,
    /// Dispatch workers in the client's [`SqPool`], which carries every
    /// multi-RPC read (chunks and segment batches).
    pub bulk_window: usize,
    /// Adjacent same-home segments are merged into one read range of at most
    /// this many bytes (0 disables coalescing).
    pub coalesce_max: u64,
    /// At most this many coalesced ranges ride in one batch RPC.
    pub batch_max: usize,
    /// Tenant identity stamped on every request this client issues. Job 0
    /// (the default) is the legacy namespace: requests stay byte-identical
    /// to pre-tenancy clients. A non-default job namespaces placement, the
    /// server-side cache, and QoS accounting.
    pub job_id: JobId,
}

impl HvacClientOptions {
    /// Options for a single-home (no replication) job.
    pub fn new<P: Into<PathBuf>>(
        dataset_dir: P,
        n_servers: usize,
        instances_per_node: u32,
    ) -> Self {
        Self {
            dataset_dir: dataset_dir.into(),
            placement: PlacementKind::Modulo,
            replication: 1,
            n_servers,
            instances_per_node,
            retry: RetryPolicy::default(),
            bulk_chunk: hvac_net::BULK_CHUNK_SIZE,
            bulk_window: hvac_net::DEFAULT_SQ_DEPTH,
            coalesce_max: 1 << 20,
            batch_max: 16,
            job_id: JobId::from_env(),
        }
    }
}

/// Whence values for [`HvacClient::lseek`], mirroring POSIX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// Absolute position.
    Set,
    /// Relative to the current position.
    Cur,
    /// Relative to end-of-file.
    End,
}

#[derive(Debug)]
struct OpenFile {
    path: PathBuf,
    size: u64,
    pos: u64,
}

/// Per-replica circuit-breaker state. A replica that fails
/// `breaker_threshold` calls in a row is skipped (not even attempted) until
/// `breaker_cooldown` has elapsed; the first call after the cooldown is the
/// half-open probe — success closes the breaker, failure re-opens it.
#[derive(Debug, Default)]
struct ReplicaHealth {
    consecutive_failures: u32,
    open_until: Option<Instant>,
    /// When this replica's breaker last tripped. Kept after the breaker
    /// closes again: when *every* replica of a call is open, the ladder
    /// force-probes the least-recently-tripped replica (the one that has
    /// been cooling the longest, hence the most likely to have recovered).
    tripped_at: Option<Instant>,
}

/// How a multi-RPC read is planned and re-read (see
/// [`HvacClient::read_planned`]).
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `bulk_chunk` pieces of one `pread`: `Read` RPCs on the file's
    /// replica set. A chunk may come back short at EOF.
    Chunks,
    /// Coalesced ranges of `segment_size`-byte segments: `Batch` RPCs on
    /// each segment's own replica set. A segment must come back whole.
    Segments { segment_size: u64 },
}

/// How many stale-view redirects one logical RPC will chase before giving
/// up. Each hop installs a strictly newer epoch, so more hops than this
/// means the membership is churning faster than the client can follow.
const MAX_VIEW_HOPS: u32 = 4;

/// A per-process HVAC client.
pub struct HvacClient {
    fabric: Arc<Fabric>,
    placement: Box<dyn Placement>,
    /// The membership view ownership is resolved through. Starts as the
    /// dense epoch-0 launch layout; advanced by [`Response::StaleView`]
    /// redirects or an explicit [`Self::install_view`].
    view: Arc<ViewHandle>,
    matcher: DatasetMatcher,
    options: HvacClientOptions,
    fds: OrderedMutex<HashMap<u64, OpenFile>>,
    next_fd: AtomicU64,
    metrics: ClientMetrics,
    health: OrderedMutex<HashMap<String, ReplicaHealth>>,
    /// splitmix64 state for backoff jitter — seeded from the policy so two
    /// runs with the same seed sleep the same schedule.
    jitter_state: AtomicU64,
    /// Last rung of the degradation ladder: read straight from the PFS when
    /// every replica is exhausted. `None` = error out instead (the pre-§III-H
    /// behaviour, and the only option for pure-RPC embeddings).
    pfs_fallback: Option<Arc<dyn FileStore>>,
    /// Slab pool for reassembly: multi-RPC reads recycle slabs instead of
    /// allocating per read.
    pool: BufferPool,
    /// Persistent dispatch workers for multi-RPC reads: every
    /// [`SubmissionQueue`] this client builds shares them, so the hot path
    /// never pays a per-read thread spawn.
    sq: SqPool,
}

/// The fabric address of a server instance, by global index.
pub fn server_addr(global_index: usize, instances_per_node: u32) -> String {
    ServerId::from_global_index(global_index, instances_per_node).to_string()
}

impl HvacClient {
    /// Build a client over a fabric.
    pub fn new(fabric: Arc<Fabric>, options: HvacClientOptions) -> Result<Self> {
        if options.n_servers == 0 {
            return Err(HvacError::InvalidConfig("n_servers must be >= 1".into()));
        }
        if options.replication == 0 {
            return Err(HvacError::InvalidConfig("replication must be >= 1".into()));
        }
        if options.bulk_chunk == 0 {
            return Err(HvacError::InvalidConfig("bulk_chunk must be >= 1".into()));
        }
        if options.bulk_window == 0 {
            return Err(HvacError::InvalidConfig("bulk_window must be >= 1".into()));
        }
        if options.batch_max == 0 {
            return Err(HvacError::InvalidConfig("batch_max must be >= 1".into()));
        }
        let jitter_seed = options.retry.jitter_seed;
        let view = ViewHandle::new(ClusterView::initial(
            options.n_servers,
            options.instances_per_node,
        )?);
        Ok(Self {
            placement: make_placement(options.placement),
            matcher: DatasetMatcher::new(&options.dataset_dir),
            sq: SqPool::new(fabric.clone(), options.bulk_window)?,
            fabric,
            options,
            view,
            fds: OrderedMutex::new(classes::CLIENT_FDS, HashMap::new()),
            next_fd: AtomicU64::new(1),
            metrics: ClientMetrics::default(),
            health: OrderedMutex::new(classes::CLIENT_HEALTH, HashMap::new()),
            jitter_state: AtomicU64::new(jitter_seed),
            pfs_fallback: None,
            pool: BufferPool::new(),
        })
    }

    /// Install a (strictly newer) membership view, as a cluster harness
    /// does on `add_node`/`remove_node`. Clients also learn views
    /// organically from [`Response::StaleView`] redirects; either path is
    /// monotonic, so the two never fight.
    pub fn install_view(&self, view: Arc<ClusterView>) -> bool {
        self.view.install(view)
    }

    /// Snapshot of the membership view this client resolves homes through.
    pub fn view(&self) -> Arc<ClusterView> {
        self.view.snapshot()
    }

    /// Arm client-side PFS degradation: when every replica of a read is
    /// exhausted (hung, down, or erroring at the transport level), serve the
    /// read directly from `pfs` instead of failing the application.
    pub fn set_pfs_fallback(&mut self, pfs: Arc<dyn FileStore>) {
        self.pfs_fallback = Some(pfs);
    }

    /// Whether HVAC should intercept this path (the shim falls back to the
    /// real libc call otherwise).
    pub fn intercepts<P: AsRef<Path>>(&self, path: P) -> bool {
        self.matcher.matches(path)
    }

    /// Client metrics.
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    /// Replica addresses of a path, home first, per the current view.
    pub fn replica_addrs(&self, path: &Path) -> Vec<String> {
        self.replica_addrs_in(&self.view.snapshot(), path)
    }

    /// Replica addresses of a path in an explicit view, home first.
    /// Placement hashes `(job, path)`, so two tenants reading the same
    /// dataset spread their (separately-cached) copies independently.
    fn replica_addrs_in(&self, view: &ClusterView, path: &Path) -> Vec<String> {
        let fid = hash_job_path(self.options.job_id, path);
        self.placement
            .replicas_in_view(fid, view, self.options.replication as usize)
            .into_iter()
            .map(|sid| view.addr(sid))
            .collect()
    }

    /// Next jitter draw in `[0, backoff_base)` (splitmix64; relaxed CAS-free
    /// update is fine — determinism only matters for single-threaded tests).
    fn jitter(&self) -> Duration {
        let base = self.options.retry.backoff_base;
        let mut x = self
            .jitter_state
            .fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::Relaxed)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        let nanos = base.as_nanos().max(1) as u64;
        Duration::from_nanos(x % nanos)
    }

    /// Whether `addr`'s breaker is open (still cooling down). A replica past
    /// its cooldown is allowed one half-open probe.
    fn breaker_open(&self, addr: &str) -> bool {
        let mut health = self.health.lock();
        match health.get_mut(addr) {
            Some(h) => match h.open_until {
                Some(until) if Instant::now() < until => true,
                Some(_) => {
                    // Half-open: let one probe through; a failure re-trips.
                    h.open_until = None;
                    false
                }
                None => false,
            },
            None => false,
        }
    }

    fn record_success(&self, addr: &str) {
        let mut health = self.health.lock();
        if let Some(h) = health.get_mut(addr) {
            h.consecutive_failures = 0;
            h.open_until = None;
        }
    }

    fn record_failure(&self, addr: &str) {
        let policy = &self.options.retry;
        let mut health = self.health.lock();
        let h = health.entry(addr.to_string()).or_default();
        h.consecutive_failures += 1;
        if h.consecutive_failures >= policy.breaker_threshold && h.open_until.is_none() {
            let now = Instant::now();
            h.open_until = Some(now + policy.breaker_cooldown);
            h.tripped_at = Some(now);
            self.metrics.breaker_trips.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One replica, with the per-call deadline and same-replica retries:
    /// timeouts and transport errors are retried up to `max_attempts` with
    /// exponential backoff + jitter; `ServerDown` returns immediately
    /// (retrying a dead endpoint is pointless); fatal errors (an answered
    /// RPC error) close the breaker and return at once.
    fn call_one_replica(&self, addr: &str, encoded: &Bytes) -> Result<Reply> {
        let policy = &self.options.retry;
        let mut attempt = 0u32;
        loop {
            match self
                .fabric
                .call_with_deadline(addr, encoded.clone(), policy.rpc_timeout)
            {
                Ok(reply) => {
                    self.record_success(addr);
                    return Ok(reply);
                }
                Err(e) => {
                    if matches!(e, HvacError::RpcTimeout { .. }) {
                        self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    if !e.is_retriable() {
                        // An answered error from a live server is the file's
                        // real status — the server is healthy.
                        self.record_success(addr);
                        return Err(e);
                    }
                    self.record_failure(addr);
                    attempt += 1;
                    if matches!(e, HvacError::ServerDown(_)) || attempt >= policy.max_attempts {
                        return Err(e);
                    }
                    self.metrics.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = policy
                        .backoff_base
                        .saturating_mul(1u32 << (attempt - 1).min(16));
                    std::thread::sleep(backoff + self.jitter());
                }
            }
        }
    }

    /// Race one hedged pair: fire `primary`, and if it has not answered
    /// within the policy's hedge delay, fire a *single* backup request to
    /// `backup` and take whichever answers first. Legs are bare one-shot
    /// calls (no same-replica retries — the sequential ladder owns those);
    /// health is recorded as each leg's outcome arrives, so a slow leg
    /// still feeds the breaker. Returns `Some(Ok)` on the first success,
    /// `Some(Err)` on an answered (fatal) error — the file's real status,
    /// which hedging must not mask — and `None` when every fired leg
    /// failed transiently, telling the caller to walk the ordinary ladder.
    fn call_hedged(&self, primary: &str, backup: &str, encoded: &Bytes) -> Option<Result<Reply>> {
        let policy = &self.options.retry;
        let delay = policy.hedge_delay()?;
        let timeout = policy.rpc_timeout;
        let (tx, rx) = std::sync::mpsc::channel();
        let spawn_leg = |addr: &str, is_backup: bool| {
            let fabric = Arc::clone(&self.fabric);
            let addr = addr.to_string();
            let encoded = encoded.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let result = fabric.call_with_deadline(&addr, encoded, timeout);
                // A closed channel just means the other leg already won.
                let _ = tx.send((is_backup, addr, result));
            });
        };
        spawn_leg(primary, false);
        let mut outstanding = 1u32;
        let mut queue = Vec::new();
        match rx.recv_timeout(delay) {
            Ok(msg) => queue.push(msg),
            Err(_) => {
                // Primary is past the hedge delay: arm the backup and race.
                self.metrics.hedges.fetch_add(1, Ordering::Relaxed);
                spawn_leg(backup, true);
                outstanding = 2;
            }
        }
        loop {
            let (is_backup, addr, result) = match queue.pop() {
                Some(msg) => msg,
                // Every leg is bounded by the deadline; the slack covers
                // scheduler noise. A miss here means both legs wedged —
                // hand the call back to the ladder.
                None => rx.recv_timeout(timeout + delay).ok()?,
            };
            outstanding -= 1;
            match result {
                Ok(reply) => {
                    self.record_success(&addr);
                    if is_backup {
                        self.metrics.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    return Some(Ok(reply));
                }
                Err(e) if e.is_retriable() => {
                    if matches!(e, HvacError::RpcTimeout { .. }) {
                        self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                    }
                    self.record_failure(&addr);
                    if outstanding == 0 {
                        return None;
                    }
                }
                Err(fatal) => {
                    // An answered error from a live server is real status.
                    self.record_success(&addr);
                    return Some(Err(fatal));
                }
            }
        }
    }

    /// Issue one RPC over the replica ladder:
    ///
    /// 0. with a hedge delay configured ([`RetryPolicy::hedge_delay`]) and
    ///    at least two closed-breaker replicas, race a delayed backup
    ///    against the primary ([`Self::call_hedged`]) and take the first
    ///    success; open breakers are never hedged to, so hedging cannot
    ///    double the load on a replica that is already tripping,
    /// 1. walk replicas home-first, skipping any whose breaker is open,
    /// 2. each attempted replica gets deadline + retry via
    ///    [`Self::call_one_replica`]; transient failure moves to the next
    ///    replica, a fatal error returns at once (a live server's `ENOENT`
    ///    must not be masked by a replica walk),
    /// 3. if the walk attempted *nothing* — every replica's breaker is
    ///    open — force-probe the skipped ones, least-recently-tripped
    ///    first (the replica cooling the longest is the most likely to
    ///    have recovered). This holds even with a PFS fallback armed
    ///    (then one probe suffices before degrading): returning
    ///    `ServerDown` without a single RPC would pin a fully recovered
    ///    cluster onto the PFS for an entire cooldown. If something *was*
    ///    attempted and failed, a fallback-armed caller degrades instead,
    ///    which is just as correct and far cheaper than waiting out a
    ///    wedged server's deadline; without a fallback, probe them all,
    /// 4. success on any replica other than the home counts as a failover.
    fn call_replicas(&self, addrs: &[String], encoded: &Bytes) -> Result<Reply> {
        if addrs.is_empty() {
            return Err(HvacError::InvalidConfig("empty replica set".into()));
        }
        if self.options.retry.hedge_delay().is_some() && addrs.len() >= 2 {
            let live: Vec<&String> = addrs
                .iter()
                .filter(|a| !self.breaker_open(a))
                .take(2)
                .collect();
            if live.len() == 2 {
                if let Some(outcome) = self.call_hedged(live[0], live[1], encoded) {
                    return outcome;
                }
            }
        }
        let mut skipped = Vec::new();
        let mut attempted = false;
        let mut last_err = None;
        for addr in addrs {
            if self.breaker_open(addr) {
                self.metrics.breaker_skips.fetch_add(1, Ordering::Relaxed);
                skipped.push(addr);
                continue;
            }
            attempted = true;
            match self.call_one_replica(addr, encoded) {
                Ok(reply) => {
                    if *addr != addrs[0] {
                        self.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(reply);
                }
                Err(e) if e.is_retriable() => last_err = Some(e),
                Err(fatal) => return Err(fatal),
            }
        }
        if !attempted && !skipped.is_empty() {
            {
                let health = self.health.lock();
                skipped.sort_by_key(|a| health.get(a.as_str()).and_then(|h| h.tripped_at));
            }
            if self.pfs_fallback.is_some() {
                skipped.truncate(1);
            }
        } else if self.pfs_fallback.is_some() {
            skipped.clear();
        }
        for addr in skipped {
            match self.call_one_replica(addr, encoded) {
                Ok(reply) => {
                    if *addr != addrs[0] {
                        self.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(reply);
                }
                Err(e) if e.is_retriable() => last_err = Some(e),
                Err(fatal) => return Err(fatal),
            }
        }
        // addrs is non-empty and every arm either returned or set last_err.
        Err(last_err.unwrap_or_else(|| HvacError::ServerDown("no replica answered".into())))
    }

    /// Issue one logical RPC through the membership view: snapshot the
    /// view, resolve replica addresses *in that view*, stamp the request
    /// with the view's epoch, and send it down the replica ladder. A
    /// [`Response::StaleView`] redirect installs the piggybacked (strictly
    /// newer) view and re-resolves — bounded by [`MAX_VIEW_HOPS`] so a
    /// churn storm degrades into an error instead of a livelock. The
    /// interception happens *here*, before [`Response::into_result`],
    /// because that is the only place the piggybacked view is still
    /// attached to the error.
    fn call_with_view<F>(&self, req: &Request, addrs_of: F) -> Result<Reply>
    where
        F: Fn(&ClusterView) -> Vec<String>,
    {
        let mut hops = 0u32;
        loop {
            let view = self.view.snapshot();
            let encoded = req.encode_ctx(view.epoch(), self.options.job_id)?;
            let addrs = addrs_of(&view);
            let reply = self.call_replicas(&addrs, &encoded)?;
            match Response::decode(reply.header.clone())? {
                Response::StaleView { view: next } => {
                    self.metrics.view_refreshes.fetch_add(1, Ordering::Relaxed);
                    self.view.install(Arc::new(next));
                    hops += 1;
                    if hops >= MAX_VIEW_HOPS {
                        return Err(HvacError::StaleView {
                            current_epoch: self.view.epoch(),
                        });
                    }
                }
                _ => return Ok(reply),
            }
        }
    }

    /// Issue an RPC to the first healthy replica of `path`.
    fn call(&self, path: &Path, req: &Request) -> Result<Reply> {
        self.call_with_view(req, |view| self.replica_addrs_in(view, path))
    }

    /// Open a dataset file; returns an HVAC descriptor.
    pub fn open(&self, path: &Path) -> Result<u64> {
        if !self.intercepts(path) {
            self.metrics
                .passthrough_opens
                .fetch_add(1, Ordering::Relaxed);
            return Err(HvacError::Protocol(format!(
                "{} is outside the dataset directory {}",
                path.display(),
                self.matcher.root().display()
            )));
        }
        let size = self.stat(path)?;
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.fds.lock().insert(
            fd,
            OpenFile {
                path: path.to_path_buf(),
                size,
                pos: 0,
            },
        );
        self.metrics.opens.fetch_add(1, Ordering::Relaxed);
        Ok(fd)
    }

    fn with_fd<T>(&self, fd: u64, f: impl FnOnce(&mut OpenFile) -> T) -> Result<T> {
        let mut fds = self.fds.lock();
        fds.get_mut(&fd).map(f).ok_or(HvacError::BadFd(fd as i32))
    }

    /// Clamp a request to the size recorded at open time, so an oversized
    /// `len` (POSIX allows `read(fd, buf, SIZE_MAX)`) never plans an
    /// absurd chunk plan — it just short-reads like the syscall would.
    fn clamp_len(size: u64, offset: u64, len: usize) -> usize {
        len.min(size.saturating_sub(offset).try_into().unwrap_or(usize::MAX))
    }

    /// Positional read (POSIX `pread`): does not move the file position.
    pub fn pread(&self, fd: u64, offset: u64, len: usize) -> Result<Bytes> {
        let (path, size) = self.with_fd(fd, |of| (of.path.clone(), of.size))?;
        self.read_path_at(&path, offset, Self::clamp_len(size, offset, len))
    }

    /// Sequential read: reads at the current position and advances it.
    pub fn read(&self, fd: u64, len: usize) -> Result<Bytes> {
        let (path, pos, size) = self.with_fd(fd, |of| (of.path.clone(), of.pos, of.size))?;
        let data = self.read_path_at(&path, pos, Self::clamp_len(size, pos, len))?;
        self.with_fd(fd, |of| of.pos = pos + data.len() as u64)?;
        Ok(data)
    }

    /// POSIX `lseek`. Returns the new position.
    pub fn lseek(&self, fd: u64, offset: i64, whence: Whence) -> Result<u64> {
        self.with_fd(fd, |of| {
            let base = match whence {
                Whence::Set => 0i64,
                Whence::Cur => of.pos as i64,
                Whence::End => of.size as i64,
            };
            let newpos =
                base.checked_add(offset)
                    .filter(|&p| p >= 0)
                    .ok_or(HvacError::Protocol(format!(
                        "seek to negative offset {offset}"
                    )))?;
            of.pos = newpos as u64;
            Ok(of.pos)
        })?
    }

    /// Size recorded at open time.
    pub fn fd_size(&self, fd: u64) -> Result<u64> {
        self.with_fd(fd, |of| of.size)
    }

    /// Close a descriptor, sending the out-of-band teardown RPC (§III-D ⑧).
    pub fn close(&self, fd: u64) -> Result<()> {
        let path = {
            let mut fds = self.fds.lock();
            fds.remove(&fd).ok_or(HvacError::BadFd(fd as i32))?.path
        };
        self.metrics.closes.fetch_add(1, Ordering::Relaxed);
        // Teardown is advisory; a down server must not fail the close.
        let _ = self.call(&path, &Request::Close { path: path.clone() });
        Ok(())
    }

    /// Whether `err` should fall through to direct PFS access: every replica
    /// failed transiently (hung/down/transport) *and* a fallback store is
    /// armed. Fatal errors (an answered `ENOENT`, protocol garbage) never
    /// degrade — the PFS would only repeat them.
    fn should_degrade(&self, err: &HvacError) -> bool {
        self.pfs_fallback.is_some() && err.is_retriable()
    }

    /// Stat without opening.
    pub fn stat(&self, path: &Path) -> Result<u64> {
        let reply = match self.call(
            path,
            &Request::Stat {
                path: path.to_path_buf(),
            },
        ) {
            Ok(reply) => reply,
            Err(e) if self.should_degrade(&e) => {
                // Unwrap is fine: should_degrade checked is_some.
                let pfs = self.pfs_fallback.as_ref().ok_or(e)?;
                return Ok(pfs.open_meta(path)?.size);
            }
            Err(e) => return Err(e),
        };
        match Response::decode(reply.header)?.into_result()? {
            Response::Stat { size } => Ok(size),
            other => Err(HvacError::Protocol(format!(
                "unexpected stat reply: {other:?}"
            ))),
        }
    }

    /// Serve one read directly from the PFS (the degradation ladder's last
    /// rung). Byte-identical to what a server-side miss would return.
    fn degraded_read(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
        let pfs = self
            .pfs_fallback
            .as_ref()
            .ok_or_else(|| HvacError::InvalidConfig("no PFS fallback armed".into()))?;
        let data = pfs.read_at(path, offset, len)?;
        self.metrics.degraded_reads.fetch_add(1, Ordering::Relaxed);
        self.metrics.reads.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    /// Fetch one chunk of a read: a `Read` RPC over the replica ladder (the
    /// full deadline/retry/failover/breaker treatment per chunk), degrading
    /// to direct PFS access for just this chunk when every replica is
    /// exhausted. Each chunk re-resolves its home through the current view,
    /// so a membership change mid-read redirects only the chunks that
    /// actually hit a stale home. Counts only `degraded_reads`; the logical
    /// read's `reads`/`bytes` are accounted once by [`Self::read_path_at`].
    fn fetch_chunk(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
        let req = Request::Read {
            path: path.to_path_buf(),
            offset,
            len: len as u64,
        };
        let reply = match self.call_with_view(&req, |view| self.replica_addrs_in(view, path)) {
            Ok(reply) => reply,
            Err(e) if self.should_degrade(&e) => {
                let pfs = self.pfs_fallback.as_ref().ok_or(e)?;
                let data = pfs.read_at(path, offset, len)?;
                self.metrics.degraded_reads.fetch_add(1, Ordering::Relaxed);
                return Ok(data);
            }
            Err(e) => return Err(e),
        };
        match Response::decode(reply.header)?.into_result()? {
            Response::Data { .. } => Ok(reply.bulk.unwrap_or_default()),
            other => Err(HvacError::Protocol(format!(
                "unexpected read reply: {other:?}"
            ))),
        }
    }

    /// One logical read (`pread`/`read`). A read that fits in `bulk_chunk`
    /// is one RPC straight down the ladder ([`Self::fetch_chunk`]); a larger
    /// one is tiled into `bulk_chunk` pieces and planned
    /// ([`Self::read_planned`]).
    fn read_path_at(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
        let data = if len <= self.options.bulk_chunk {
            self.fetch_chunk(path, offset, len)?
        } else {
            self.read_planned(path, offset, len as u64, Shape::Chunks)?
        };
        self.metrics.reads.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    /// Read a whole file at **segment granularity** (the §III-E alternative
    /// to file-granular caching): the file is cut into `segment_size` byte
    /// segments, each homed on its *own* server (`hash(path, segment)`), so
    /// a multi-gigabyte file spreads over the allocation instead of landing
    /// on one NVMe. Returns the reassembled contents.
    pub fn read_file_segmented(&self, path: &Path, segment_size: u64) -> Result<Bytes> {
        if segment_size == 0 {
            return Err(HvacError::InvalidConfig("segment_size must be > 0".into()));
        }
        let size = self.stat(path)?;
        self.metrics.opens.fetch_add(1, Ordering::Relaxed);
        let data = self.read_planned(path, 0, size, Shape::Segments { segment_size })?;
        self.metrics.closes.fetch_add(1, Ordering::Relaxed);
        Ok(data)
    }

    /// One segment through the per-segment ladder: `call_with_view` with the
    /// segment's own placement (each segment re-resolves its home, so a
    /// mid-file membership change redirects only later segments), degrading
    /// to direct PFS access for just this segment when every replica is
    /// exhausted. Strict on length: a short segment is a protocol error.
    fn read_one_segment(
        &self,
        path: &Path,
        seg_index: u64,
        offset: u64,
        len: u64,
    ) -> Result<Bytes> {
        let req = Request::ReadSegment {
            path: path.to_path_buf(),
            offset,
            len,
        };
        let reply = match self.call_with_view(&req, |view| {
            self.segment_replica_addrs_in(view, path, seg_index)
        }) {
            Ok(r) => r,
            Err(e) if self.should_degrade(&e) => {
                // Serve just this segment from the PFS; later segments
                // still try their own (distinct) home servers.
                let data = self.degraded_read(path, offset, len as usize)?;
                if data.len() as u64 != len {
                    return Err(HvacError::Protocol(format!(
                        "segment {seg_index} of {} returned {} bytes from the PFS, expected {len}",
                        path.display(),
                        data.len()
                    )));
                }
                return Ok(data);
            }
            Err(e) => return Err(e),
        };
        match Response::decode(reply.header)?.into_result()? {
            Response::Data { .. } => {
                let data = reply.bulk.unwrap_or_default();
                if data.len() as u64 != len {
                    return Err(HvacError::Protocol(format!(
                        "segment {seg_index} of {} returned {} bytes, expected {len}",
                        path.display(),
                        data.len()
                    )));
                }
                self.metrics.reads.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .bytes
                    .fetch_add(data.len() as u64, Ordering::Relaxed);
                Ok(data)
            }
            other => Err(HvacError::Protocol(format!(
                "unexpected segment reply: {other:?}"
            ))),
        }
    }

    /// The replica the ladder would try first: the first one whose breaker
    /// is closed. `None` when every breaker is open — the ladder's
    /// force-probe owns that case.
    fn first_closed(&self, addrs: Vec<String>) -> Option<String> {
        addrs.into_iter().find(|a| !self.breaker_open(a))
    }

    /// The multi-RPC read pipeline: plan → submit → ladder.
    ///
    /// 1. **Plan.** [`coalesce_plan`] tiles `[offset, offset + len)`.
    ///    Chunks are `bulk_chunk` pieces of the read, all on the file's
    ///    replica set; segments are coalesced runs of adjacent same-server
    ///    segments (≤ `coalesce_max`), each on its own replica set. Every
    ///    entry goes to the first replica whose breaker is closed.
    /// 2. **Submit.** Each chunk is one `Read`; segment ranges are grouped
    ///    per destination into `Batch`es of ≤ `batch_max`. All of them go
    ///    through one [`SubmissionQueue`] on the client's persistent
    ///    [`SqPool`] — no thread is spawned per read — as plain unhedged
    ///    calls whose outcomes feed the breakers.
    /// 3. **Ladder.** An entry whose RPC failed, answered `StaleView`, came
    ///    back malformed or never completed — or that had no closed-breaker
    ///    replica to go to — is re-read through its own ladder
    ///    ([`Self::fetch_chunk`] / [`Self::read_entry_by_segments`]), which
    ///    retries, fails over, hedges and degrades, so the fast path never
    ///    weakens fault tolerance.
    ///
    /// Parts are reassembled in offset order into a slab from the client's
    /// pool.
    fn read_planned(&self, path: &Path, offset: u64, len: u64, shape: Shape) -> Result<Bytes> {
        let view = self.view.snapshot();
        let plan: Vec<PlanEntry<Option<String>>> = match shape {
            Shape::Chunks => {
                // Tile relative to the read's own offset, so a read of n
                // chunk lengths is n RPCs wherever it starts.
                let dest = self.first_closed(self.replica_addrs_in(&view, path));
                let mut plan =
                    coalesce_plan(0, len, self.options.bulk_chunk as u64, 0, |_| dest.clone());
                for entry in &mut plan {
                    entry.offset += offset;
                }
                plan
            }
            Shape::Segments { segment_size } => coalesce_plan(
                offset,
                len,
                segment_size,
                self.options.coalesce_max,
                |seg| self.first_closed(self.segment_replica_addrs_in(&view, path, seg)),
            ),
        };
        // Group entries into RPCs (order preserved): a chunk is one `Read`,
        // segment ranges share a `Batch` per destination.
        let per_rpc = match shape {
            Shape::Chunks => 1,
            Shape::Segments { .. } => self.options.batch_max,
        };
        let mut rpcs: Vec<(&str, Vec<usize>)> = Vec::new();
        let mut open: HashMap<&str, usize> = HashMap::new();
        for (i, entry) in plan.iter().enumerate() {
            let Some(dest) = entry.dest.as_deref() else {
                continue;
            };
            match open.get(dest) {
                Some(&r) if rpcs[r].1.len() < per_rpc => rpcs[r].1.push(i),
                _ => {
                    open.insert(dest, rpcs.len());
                    rpcs.push((dest, vec![i]));
                }
            }
        }
        let mut sq = SubmissionQueue::with_pool(&self.sq);
        for (r, (dest, idxs)) in rpcs.iter().enumerate() {
            let req = match shape {
                Shape::Chunks => Request::Read {
                    path: path.to_path_buf(),
                    offset: plan[idxs[0]].offset,
                    len: plan[idxs[0]].len,
                },
                Shape::Segments { .. } => {
                    let path_str = path.to_str().ok_or_else(|| {
                        HvacError::Protocol(format!(
                            "non-UTF-8 path not supported: {}",
                            path.display()
                        ))
                    })?;
                    self.metrics.batch_rpcs.fetch_add(1, Ordering::Relaxed);
                    Request::Batch {
                        items: idxs
                            .iter()
                            .map(|&i| BatchItem {
                                path: path_str.to_string(),
                                offset: plan[i].offset,
                                len: plan[i].len,
                            })
                            .collect(),
                    }
                }
            };
            sq.prep(SqEntry {
                dest: dest.to_string(),
                payload: req.encode_ctx(view.epoch(), self.options.job_id)?,
                deadline: self.options.retry.rpc_timeout,
                user_data: r as u64,
            });
        }
        let mut slots: Vec<Option<Bytes>> = vec![None; plan.len()];
        // Completions come back in submission order, one per RPC — a lost
        // dispatch too, as an error completion in its own slot.
        for (c, (dest, idxs)) in sq.submit_and_wait().into_iter().zip(&rpcs) {
            let parts = self
                .settle(dest, c.result)
                .and_then(|reply| self.split_reply(reply, shape, idxs, &plan));
            match parts {
                Some(parts) => {
                    for (&i, part) in idxs.iter().zip(parts) {
                        if let Shape::Segments { .. } = shape {
                            // A segment read counts one read per range.
                            self.metrics.reads.fetch_add(1, Ordering::Relaxed);
                            self.metrics
                                .bytes
                                .fetch_add(part.len() as u64, Ordering::Relaxed);
                        }
                        slots[i] = Some(part);
                    }
                }
                None => {
                    self.metrics.batch_fallbacks.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut parts = Vec::with_capacity(plan.len());
        for (entry, slot) in plan.iter().zip(slots) {
            parts.push(match (slot, shape) {
                (Some(part), _) => part,
                (None, Shape::Chunks) => {
                    self.fetch_chunk(path, entry.offset, entry.len as usize)?
                }
                (None, Shape::Segments { segment_size }) => {
                    self.read_entry_by_segments(path, entry, segment_size)?
                }
            });
        }
        // lockgraph: acquires NET_POOL
        Ok(reassemble_bulk_pooled(&parts, &self.pool))
    }

    /// Feed one fast-path completion to `dest`'s breaker exactly as the
    /// ladder feeds an attempt: a reply closes it, a transient error counts
    /// towards tripping it (and a timeout towards `timeouts`). Returns the
    /// reply, if any.
    fn settle(&self, dest: &str, result: Result<Reply>) -> Option<Reply> {
        match result {
            Ok(reply) => {
                self.record_success(dest);
                Some(reply)
            }
            Err(e) => {
                if matches!(e, HvacError::RpcTimeout { .. }) {
                    self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                if e.is_retriable() {
                    self.record_failure(dest);
                } else {
                    self.record_success(dest);
                }
                None
            }
        }
    }

    /// Validate and split one fast-path reply into the payloads of its
    /// entries `idxs`. Returns `None` on anything other than a well-formed
    /// full answer — an error reply, a stale view (installed here so the
    /// ladder re-resolves under the newer epoch), a segment of the wrong
    /// length, a chunk longer than asked — and the caller falls back. A
    /// chunk may come back short at EOF; a segment never may.
    fn split_reply<D>(
        &self,
        reply: Reply,
        shape: Shape,
        idxs: &[usize],
        plan: &[PlanEntry<D>],
    ) -> Option<Vec<Bytes>> {
        let bulk = reply.bulk.unwrap_or_default();
        match (Response::decode(reply.header).ok()?, shape) {
            (Response::Data { .. }, Shape::Chunks) => {
                (bulk.len() as u64 <= plan[idxs[0]].len).then(|| vec![bulk])
            }
            (Response::Batch { lens }, Shape::Segments { .. }) => {
                if lens.len() != idxs.len() {
                    return None;
                }
                let total: u64 = lens.iter().map(|&l| u64::from(l)).sum();
                if bulk.len() as u64 != total {
                    return None;
                }
                let mut parts = Vec::with_capacity(lens.len());
                let mut at = 0usize;
                for (&i, &l) in idxs.iter().zip(&lens) {
                    if u64::from(l) != plan[i].len {
                        return None;
                    }
                    parts.push(bulk.slice(at..at + l as usize));
                    at += l as usize;
                }
                Some(parts)
            }
            (Response::StaleView { view }, _) => {
                self.metrics.view_refreshes.fetch_add(1, Ordering::Relaxed);
                self.view.install(Arc::new(view));
                None
            }
            _ => None,
        }
    }

    /// Ladder for one coalesced range: read its segments individually
    /// through [`Self::read_one_segment`] (retry, failover, hedging, PFS
    /// degrade) and reassemble from the slab pool. Ranges planned from
    /// offset 0 start on segment boundaries, so each piece is exactly the
    /// segment a one-segment read would cache.
    fn read_entry_by_segments<D>(
        &self,
        path: &Path,
        entry: &PlanEntry<D>,
        segment_size: u64,
    ) -> Result<Bytes> {
        let mut chunks = Vec::new();
        let mut at = entry.offset;
        let end = entry.offset + entry.len;
        while at < end {
            let seg = at / segment_size;
            let seg_end = (seg + 1).saturating_mul(segment_size).min(end);
            chunks.push(self.read_one_segment(path, seg, at, seg_end - at)?);
            at = seg_end;
        }
        // lockgraph: acquires NET_POOL
        Ok(reassemble_bulk_pooled(&chunks, &self.pool))
    }

    /// Replica addresses of one segment of a path, home first, per the
    /// current view. Each segment hashes independently, so segments of one
    /// file spread across servers.
    pub fn segment_replica_addrs(&self, path: &Path, seg_index: u64) -> Vec<String> {
        self.segment_replica_addrs_in(&self.view.snapshot(), path, seg_index)
    }

    /// Replica addresses of one segment in an explicit view.
    fn segment_replica_addrs_in(
        &self,
        view: &ClusterView,
        path: &Path,
        seg_index: u64,
    ) -> Vec<String> {
        let fid = hash_job_path(self.options.job_id, path);
        let seg_fid =
            hvac_types::FileId(mix64(fid.0 ^ seg_index.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        self.placement
            .replicas_in_view(seg_fid, view, self.options.replication as usize)
            .into_iter()
            .map(|sid| view.addr(sid))
            .collect()
    }

    /// Ask the home server of every path to stage it in the background
    /// (the paper's §IV-C prefetching future work). Paths are grouped by
    /// home server and sent as one RPC per server; returns the number of
    /// paths submitted. Staging is asynchronous — subsequent reads of a
    /// still-copying file simply piggyback on the in-flight copy.
    pub fn prefetch<'a, I>(&self, paths: I) -> Result<usize>
    where
        I: IntoIterator<Item = &'a Path>,
    {
        let mut pending: Vec<PathBuf> = paths
            .into_iter()
            .filter(|p| self.intercepts(p))
            .map(Path::to_path_buf)
            .collect();
        let submitted = pending.len();
        let mut hops = 0u32;
        while !pending.is_empty() {
            // Group by home server *in the current view*; a StaleView bounce
            // re-groups just the bounced batch under the newer view.
            let view = self.view.snapshot();
            let mut by_server: HashMap<String, Vec<PathBuf>> = HashMap::new();
            for path in pending.drain(..) {
                let addr = self
                    .replica_addrs_in(&view, &path)
                    .into_iter()
                    .next()
                    .ok_or_else(|| HvacError::InvalidConfig("replication must be >= 1".into()))?;
                by_server.entry(addr).or_default().push(path);
            }
            for (addr, batch) in by_server {
                let req = Request::Prefetch {
                    paths: batch.clone(),
                };
                let reply = self
                    .fabric
                    .call(&addr, req.encode_ctx(view.epoch(), self.options.job_id)?)?;
                match Response::decode(reply.header)? {
                    Response::StaleView { view: next } => {
                        self.metrics.view_refreshes.fetch_add(1, Ordering::Relaxed);
                        self.view.install(Arc::new(next));
                        pending.extend(batch);
                    }
                    resp => {
                        resp.into_result()?;
                    }
                }
            }
            if !pending.is_empty() {
                hops += 1;
                if hops >= MAX_VIEW_HOPS {
                    return Err(HvacError::StaleView {
                        current_epoch: self.view.epoch(),
                    });
                }
            }
        }
        Ok(submitted)
    }

    /// Convenience: `<open, read-entire-file, close>` — the exact transaction
    /// the paper's DL profile shows per training sample (§III-F).
    pub fn read_file(&self, path: &Path) -> Result<Bytes> {
        let fd = self.open(path)?;
        let size = self.fd_size(fd)?;
        let result = self.pread(fd, 0, size as usize);
        self.close(fd)?;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheManager;
    use crate::eviction::make_policy;
    use crate::server::{HvacServer, HvacServerOptions};
    use hvac_pfs::{FileStore, MemStore};
    use hvac_storage::LocalStore;
    use hvac_types::{ByteSize, EvictionPolicyKind};

    type ServerSet = Vec<(Arc<HvacServer>, hvac_net::fabric::ServerEndpoint)>;

    /// Three-node mini-allocation on one fabric, with a hook to tweak the
    /// client options before the client is built.
    fn setup_with(
        replication: u32,
        tweak: impl FnOnce(&mut HvacClientOptions),
    ) -> (Arc<MemStore>, Arc<Fabric>, ServerSet, HvacClient) {
        let pfs = Arc::new(MemStore::new());
        pfs.synthesize_dataset(Path::new("/gpfs/set"), 24, |i| 64 + (i as usize % 5) * 16);
        let fabric = Arc::new(Fabric::new());
        let mut servers = Vec::new();
        for node in 0..3u32 {
            let cache = Arc::new(CacheManager::new(
                LocalStore::in_memory(ByteSize(1 << 20)),
                make_policy(EvictionPolicyKind::Random, node as u64),
            ));
            let server = HvacServer::new(
                cache,
                pfs.clone(),
                HvacServerOptions::default(),
                &format!("n{node}"),
            )
            .unwrap();
            let ep = server
                .serve(&fabric, &server_addr(node as usize, 1))
                .unwrap();
            servers.push((server, ep));
        }
        let mut opts = HvacClientOptions::new("/gpfs/set", 3, 1);
        opts.replication = replication;
        tweak(&mut opts);
        let client = HvacClient::new(fabric.clone(), opts).unwrap();
        (pfs, fabric, servers, client)
    }

    /// Three-node mini-allocation with the default retry policy.
    fn setup2(replication: u32) -> (Arc<MemStore>, Arc<Fabric>, ServerSet, HvacClient) {
        setup_with(replication, |_| {})
    }

    fn sample(i: u32) -> PathBuf {
        PathBuf::from(format!("/gpfs/set/sample_{i:08}.bin"))
    }

    #[test]
    fn open_read_close_round_trip() {
        let (pfs, _fabric, _servers, client) = setup2(1);
        let p = sample(0);
        let expected = pfs.read_all(&p).unwrap();

        let fd = client.open(&p).unwrap();
        assert_eq!(client.fd_size(fd).unwrap(), expected.len() as u64);
        let data = client.read(fd, expected.len()).unwrap();
        assert_eq!(data, expected);
        // Position advanced to EOF; next read is empty.
        assert_eq!(client.read(fd, 10).unwrap().len(), 0);
        client.close(fd).unwrap();
        assert!(matches!(client.read(fd, 1), Err(HvacError::BadFd(_))));

        let (opens, reads, bytes, closes, _, _) = client.metrics().snapshot();
        assert_eq!(opens, 1);
        assert_eq!(reads, 2);
        assert_eq!(bytes, expected.len() as u64);
        assert_eq!(closes, 1);
    }

    #[test]
    fn pread_does_not_move_position() {
        let (_pfs, _f, _s, client) = setup2(1);
        let fd = client.open(&sample(1)).unwrap();
        let a = client.pread(fd, 10, 8).unwrap();
        let b = client.read(fd, 8).unwrap(); // still at offset 0
        assert_ne!(a, b);
        client.close(fd).unwrap();
    }

    #[test]
    fn lseek_semantics() {
        let (_pfs, _f, _s, client) = setup2(1);
        let fd = client.open(&sample(2)).unwrap();
        let size = client.fd_size(fd).unwrap();
        assert_eq!(client.lseek(fd, 5, Whence::Set).unwrap(), 5);
        assert_eq!(client.lseek(fd, 3, Whence::Cur).unwrap(), 8);
        assert_eq!(client.lseek(fd, -2, Whence::End).unwrap(), size - 2);
        assert!(client.lseek(fd, -1000, Whence::Cur).is_err());
        // Position unchanged after failed seek.
        let rest = client.read(fd, usize::MAX / 2).unwrap();
        assert_eq!(rest.len() as u64, 2);
        client.close(fd).unwrap();
    }

    #[test]
    fn non_dataset_path_is_rejected_for_passthrough() {
        let (_pfs, _f, _s, client) = setup2(1);
        assert!(!client.intercepts("/etc/passwd"));
        assert!(client.open(Path::new("/etc/passwd")).is_err());
        assert_eq!(client.metrics().snapshot().5, 1);
    }

    #[test]
    fn missing_file_error_propagates() {
        let (_pfs, _f, _s, client) = setup2(1);
        let err = client.open(Path::new("/gpfs/set/absent.bin")).unwrap_err();
        assert!(matches!(err, HvacError::Remote { code: 2, .. }));
        assert_eq!(err.errno(), 2, "server-side ENOENT survives the wire");
        assert!(!err.is_retriable(), "an answered error must not fail over");
    }

    #[test]
    fn reads_are_distributed_across_homes() {
        let (_pfs, _f, servers, client) = setup2(1);
        for i in 0..24 {
            client.read_file(&sample(i)).unwrap();
        }
        let counts: Vec<u64> = servers
            .iter()
            .map(|(s, _)| s.metrics().snapshot().reads)
            .collect();
        assert_eq!(counts.iter().sum::<u64>(), 24);
        assert!(
            counts.iter().all(|&c| c > 0),
            "placement left a server idle: {counts:?}"
        );
    }

    #[test]
    fn second_epoch_is_all_cache_hits() {
        let (pfs, _f, servers, client) = setup2(1);
        for i in 0..24 {
            client.read_file(&sample(i)).unwrap();
        }
        let pfs_reads_epoch1 = pfs.stats().snapshot().1;
        assert_eq!(pfs_reads_epoch1, 24);
        for i in 0..24 {
            client.read_file(&sample(i)).unwrap();
        }
        assert_eq!(
            pfs.stats().snapshot().1,
            24,
            "epoch 2 never touched the PFS"
        );
        let total_hits: u64 = servers
            .iter()
            .map(|(s, _)| s.metrics().snapshot().cache_hits)
            .sum();
        assert_eq!(total_hits, 24);
    }

    #[test]
    fn failover_to_replica_when_home_is_down() {
        let (_pfs, fabric, servers, client) = setup2(2);
        let p = sample(3);
        // Find and kill the home server.
        let addrs = client.replica_addrs(&p);
        assert_eq!(addrs.len(), 2);
        assert_ne!(addrs[0], addrs[1]);
        fabric.set_down(&addrs[0], true);

        let data = client.read_file(&p).unwrap();
        assert!(!data.is_empty());
        assert!(client.metrics().snapshot().4 >= 1, "failover counted");
        // The replica (second address) served it.
        let served: u64 = servers
            .iter()
            .map(|(s, _)| s.metrics().snapshot().reads)
            .sum();
        assert!(served >= 1);
    }

    #[test]
    fn no_replication_and_home_down_fails() {
        let (_pfs, fabric, _servers, client) = setup2(1);
        let p = sample(4);
        let addrs = client.replica_addrs(&p);
        assert_eq!(addrs.len(), 1);
        fabric.set_down(&addrs[0], true);
        assert!(matches!(
            client.read_file(&p),
            Err(HvacError::ServerDown(_))
        ));
    }

    #[test]
    fn invalid_options_rejected() {
        let fabric = Arc::new(Fabric::new());
        let mut opts = HvacClientOptions::new("/d", 0, 1);
        assert!(HvacClient::new(fabric.clone(), opts.clone()).is_err());
        opts.n_servers = 1;
        opts.replication = 0;
        assert!(HvacClient::new(fabric, opts).is_err());
    }

    #[test]
    fn all_replicas_down_degrades_to_pfs_when_armed() {
        let (pfs, fabric, _servers, mut client) = setup2(1);
        client.set_pfs_fallback(pfs.clone());
        let p = sample(5);
        let expected = pfs.read_all(&p).unwrap();
        for addr in client.replica_addrs(&p) {
            fabric.set_down(&addr, true);
        }
        let data = client.read_file(&p).unwrap();
        assert_eq!(data, expected, "degraded read is byte-correct");
        let s = client.metrics().full_snapshot();
        assert!(s.degraded_reads >= 1, "degraded_reads counted: {s:?}");
    }

    #[test]
    fn fatal_remote_error_never_degrades() {
        let (pfs, _f, _s, mut client) = setup2(1);
        client.set_pfs_fallback(pfs);
        // The server answers ENOENT — degradation must not mask it (the PFS
        // would only repeat it, and a wrong path must stay an error).
        let err = client.open(Path::new("/gpfs/set/absent.bin")).unwrap_err();
        assert!(matches!(err, HvacError::Remote { code: 2, .. }));
        assert_eq!(client.metrics().full_snapshot().degraded_reads, 0);
    }

    #[test]
    fn breaker_trips_and_skips_a_dead_primary() {
        let (_pfs, fabric, _servers, client) = setup2(2);
        let p = sample(3);
        let addrs = client.replica_addrs(&p);
        fabric.set_down(&addrs[0], true);
        // Each read_file issues stat + read + close against the dead
        // primary; after breaker_threshold consecutive failures the breaker
        // opens and later calls skip straight to the replica.
        for _ in 0..4 {
            client.read_file(&p).unwrap();
        }
        let s = client.metrics().full_snapshot();
        assert!(s.breaker_trips >= 1, "breaker tripped: {s:?}");
        assert!(s.breaker_skips >= 1, "open breaker skipped: {s:?}");
        // Recovery: once the primary is back, a successful probe closes the
        // breaker again (after cooldown the half-open path lets one through;
        // here we just verify the job kept working throughout).
        fabric.set_down(&addrs[0], false);
        client.read_file(&p).unwrap();
    }

    #[test]
    fn large_reads_pipeline_chunk_rpcs_and_stay_byte_exact() {
        let (pfs, fabric, servers, _client) = setup2(1);
        // Rebuild the client with a tiny chunk so every file (>= 64 B)
        // pipelines; window 3 keeps several chunk RPCs in flight.
        let mut opts = HvacClientOptions::new("/gpfs/set", 3, 1);
        opts.bulk_chunk = 16;
        opts.bulk_window = 3;
        let client = HvacClient::new(fabric, opts).unwrap();
        for i in 0..8 {
            let p = sample(i);
            assert_eq!(client.read_file(&p).unwrap(), pfs.read_all(&p).unwrap());
        }
        // Each file produced several chunk RPCs server-side, but the client
        // counted one logical read per file (plus the EOF-probing read that
        // read_file's pread avoids by sizing from open).
        let server_reads: u64 = servers
            .iter()
            .map(|(s, _)| s.metrics().snapshot().reads)
            .sum();
        assert!(server_reads >= 8 * 4, "chunk RPCs issued: {server_reads}");
        assert_eq!(client.metrics().snapshot().1, 8);
    }

    #[test]
    fn pipelined_read_degrades_per_chunk_when_replicas_die() {
        let (pfs, fabric, _servers, _client) = setup2(1);
        let mut opts = HvacClientOptions::new("/gpfs/set", 3, 1);
        opts.bulk_chunk = 16;
        opts.bulk_window = 4;
        let mut client = HvacClient::new(fabric.clone(), opts).unwrap();
        client.set_pfs_fallback(pfs.clone());
        let p = sample(2);
        let expected = pfs.read_all(&p).unwrap();
        for addr in client.replica_addrs(&p) {
            fabric.set_down(&addr, true);
        }
        assert_eq!(client.read_file(&p).unwrap(), expected);
        let s = client.metrics().full_snapshot();
        assert!(
            s.degraded_reads as usize >= expected.len() / 16,
            "every chunk degraded individually: {s:?}"
        );
    }

    #[test]
    fn multi_chunk_read_surfaces_the_ladder_error() {
        let (_pfs, fabric, _servers, _client) = setup2(1);
        let mut opts = HvacClientOptions::new("/gpfs/set", 3, 1);
        opts.bulk_chunk = 16;
        let client = HvacClient::new(fabric.clone(), opts).unwrap();
        let p = sample(4);
        let fd = client.open(&p).unwrap();
        let size = client.fd_size(fd).unwrap() as usize;
        fabric.set_down(&client.replica_addrs(&p)[0], true);
        // Every chunk RPC fails, every chunk falls back to its ladder, and
        // with no PFS fallback armed the ladder's error is the read's.
        assert!(matches!(
            client.pread(fd, 0, size),
            Err(HvacError::ServerDown(_))
        ));
        let s = client.metrics().full_snapshot();
        assert_eq!(s.batch_fallbacks as usize, size.div_ceil(16), "{s:?}");
        assert_eq!(s.reads, 0, "a failed read is not counted: {s:?}");
    }

    #[test]
    fn open_breakers_are_probed_before_degrading_to_pfs() {
        let (pfs, fabric, _servers, mut client) = setup_with(2, |o| {
            o.retry.rpc_timeout = Duration::from_millis(50);
            o.retry.max_attempts = 1;
            o.retry.breaker_threshold = 2;
            // Long enough that no half-open probe can rescue the old
            // behaviour within the test.
            o.retry.breaker_cooldown = Duration::from_secs(600);
        });
        client.set_pfs_fallback(pfs.clone());
        let p = sample(6);
        let expected = pfs.read_all(&p).unwrap();
        let addrs = client.replica_addrs(&p);
        assert_eq!(addrs.len(), 2);
        for a in &addrs {
            fabric.set_down(a, true);
        }
        // Trip both breakers; the job keeps running on PFS degradation.
        for _ in 0..3 {
            assert_eq!(client.read_file(&p).unwrap(), expected);
        }
        let s = client.metrics().full_snapshot();
        assert!(s.breaker_trips >= 2, "both breakers tripped: {s:?}");
        assert!(s.degraded_reads >= 1, "{s:?}");
        let degraded_before = s.degraded_reads;
        // Both servers recover while the breakers are still mid-cooldown.
        // The ladder must force-probe a skipped replica instead of
        // returning `ServerDown` without a single RPC — which would pin a
        // fully recovered cluster onto the PFS for the whole cooldown.
        for a in &addrs {
            fabric.set_down(a, false);
        }
        assert_eq!(client.read_file(&p).unwrap(), expected);
        let s = client.metrics().full_snapshot();
        assert_eq!(
            s.degraded_reads, degraded_before,
            "the probe served the read from cache, not the PFS: {s:?}"
        );
    }

    #[test]
    fn hedged_read_races_a_slow_primary() {
        let (pfs, fabric, _servers, client) = setup_with(2, |o| {
            o.retry.rpc_timeout = Duration::from_millis(500);
            o.retry.hedge_delay_percent = 4; // 20 ms
        });
        let p = sample(7);
        let addrs = client.replica_addrs(&p);
        assert_eq!(addrs.len(), 2);
        // Warm pass: both endpoints healthy, no hedge should be needed.
        let expected = client.read_file(&p).unwrap();
        assert_eq!(expected, pfs.read_all(&p).unwrap());
        // The primary now answers, but only after 10x the hedge delay.
        fabric.fault_injector().set(
            &addrs[0],
            hvac_net::FaultSpec {
                delay_prob: 1.0,
                delay: Duration::from_millis(200),
                seed: 0x4ED6,
                ..hvac_net::FaultSpec::default()
            },
        );
        let t0 = Instant::now();
        assert_eq!(client.read_file(&p).unwrap(), expected);
        // read_file is three RPCs (stat, read, close); each hedges after
        // 20 ms and the backup answers immediately, so the whole thing
        // finishes far below even one injected 200 ms delay.
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "backup should win the race: took {:?}",
            t0.elapsed()
        );
        let s = client.metrics().full_snapshot();
        assert!(s.hedges >= 1, "hedge fired: {s:?}");
        assert!(s.hedge_wins >= 1, "backup won at least once: {s:?}");
        assert_eq!(s.degraded_reads, 0, "{s:?}");
    }

    #[test]
    fn batched_segmented_read_is_byte_exact_and_batches() {
        let (pfs, _f, servers, client) = setup2(1);
        for i in 0..8 {
            let p = sample(i);
            let expected = pfs.read_all(&p).unwrap();
            assert_eq!(client.read_file_segmented(&p, 16).unwrap(), expected);
        }
        let s = client.metrics().full_snapshot();
        assert!(s.batch_rpcs >= 1, "batch RPCs issued: {s:?}");
        assert_eq!(s.batch_fallbacks, 0, "healthy cluster never falls back");
        let server_batches: u64 = servers
            .iter()
            .map(|(srv, _)| srv.metrics().snapshot().batch_rpcs)
            .sum();
        assert_eq!(server_batches, s.batch_rpcs, "ledger balances");
    }

    #[test]
    fn segmented_reads_match_the_pfs_across_segment_sizes() {
        let (pfs, _f, _s, client) = setup2(1);
        for i in 0..8 {
            let p = sample(i);
            let expected = pfs.read_all(&p).unwrap();
            for seg in [7u64, 16, 64, 1024] {
                let data = client.read_file_segmented(&p, seg).unwrap();
                assert_eq!(data, expected, "file {i}, segment {seg}");
            }
        }
        assert_eq!(client.metrics().full_snapshot().batch_fallbacks, 0);
    }

    #[test]
    fn chunked_reads_match_the_pfs_at_any_offset_chunk_and_window() {
        let (pfs, fabric, _servers, _client) = setup2(1);
        for (chunk, window) in [(1usize, 1usize), (7, 2), (16, 4), (64, 1), (1000, 2)] {
            let mut opts = HvacClientOptions::new("/gpfs/set", 3, 1);
            opts.bulk_chunk = chunk;
            opts.bulk_window = window;
            let client = HvacClient::new(fabric.clone(), opts).unwrap();
            for i in [0u32, 3, 9] {
                let p = sample(i);
                let expected = pfs.read_all(&p).unwrap();
                let size = expected.len() as u64;
                let fd = client.open(&p).unwrap();
                // Any offset and length, including reads that run past EOF
                // and reads that start at or beyond it.
                for offset in [0, 1, 5, size / 2, size - 1, size, size + 9] {
                    for len in [0usize, 1, 6, 17, 63, 200, usize::MAX / 2] {
                        let got = client.pread(fd, offset, len).unwrap();
                        let want = pfs.read_at(&p, offset, len.min(1 << 20)).unwrap();
                        assert_eq!(got, want, "chunk {chunk} window {window} @{offset}+{len}");
                    }
                }
                // Sequential reads in odd sizes reassemble the whole file.
                let mut whole = Vec::new();
                loop {
                    let part = client.read(fd, 23).unwrap();
                    if part.is_empty() {
                        break;
                    }
                    whole.extend_from_slice(&part);
                }
                assert_eq!(whole, expected, "chunk {chunk} window {window}");
                client.close(fd).unwrap();
            }
            let s = client.metrics().full_snapshot();
            assert_eq!(
                s.batch_fallbacks, 0,
                "healthy cluster never falls back: {s:?}"
            );
            assert_eq!(s.degraded_reads, 0, "{s:?}");
        }
    }

    #[test]
    fn failed_batch_falls_back_to_the_per_segment_ladder() {
        let (pfs, fabric, _servers, mut client) = setup2(1);
        client.set_pfs_fallback(pfs.clone());
        let p = sample(3);
        let expected = pfs.read_all(&p).unwrap();
        // Down one server: any batch homed there fails as a unit, and its
        // ranges are re-read segment by segment (degrading to the PFS for
        // segments whose only replica is the dead server).
        fabric.set_down(&server_addr(0, 1), true);
        assert_eq!(client.read_file_segmented(&p, 16).unwrap(), expected);
        let s = client.metrics().full_snapshot();
        assert!(s.batch_fallbacks >= 1, "fallback counted: {s:?}");
    }

    #[test]
    fn batch_max_of_zero_is_rejected() {
        let fabric = Arc::new(Fabric::new());
        let mut opts = HvacClientOptions::new("/d", 1, 1);
        opts.batch_max = 0;
        assert!(matches!(
            HvacClient::new(fabric, opts),
            Err(HvacError::InvalidConfig(_))
        ));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let draws = |seed: u64| {
            let fabric = Arc::new(Fabric::new());
            let mut opts = HvacClientOptions::new("/d", 1, 1);
            opts.retry.jitter_seed = seed;
            let client = HvacClient::new(fabric, opts).unwrap();
            (0..8).map(|_| client.jitter()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7), "same seed, same backoff schedule");
        assert_ne!(draws(7), draws(8), "different seed, different schedule");
    }
}
