//! The PFS the cluster reads from: a real [`DirStore`] on local disk behind
//! a wrapper that counts and times every call, plus the synthetic dataset
//! written into it and the byte-exact check of what comes back.

use crate::trace::{file_index, thread_index, Op, Span, Tracer};
use bytes::Bytes;
use hvac_pfs::{DirStore, FileMeta, FileStore, StoreStats};
use hvac_types::Result;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters of the calls the cluster made into the PFS.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PfsCounts {
    /// `open_meta` calls.
    pub opens: u64,
    /// `read_all` + `read_at` calls.
    pub reads: u64,
    /// Wall time spent inside those calls, summed over threads.
    pub busy_ns: u64,
}

impl PfsCounts {
    /// Counts accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &PfsCounts) -> PfsCounts {
        PfsCounts {
            opens: self.opens - earlier.opens,
            reads: self.reads - earlier.reads,
            busy_ns: self.busy_ns - earlier.busy_ns,
        }
    }

    /// Add `other`'s counts to these.
    pub fn add(&mut self, other: &PfsCounts) {
        self.opens += other.opens;
        self.reads += other.reads;
        self.busy_ns += other.busy_ns;
    }
}

/// A [`DirStore`] that counts and times every PFS call, and records a span
/// per call while its tracer is on.
#[derive(Debug)]
pub struct TimedStore {
    inner: DirStore,
    tracer: Arc<Tracer>,
    opens: AtomicU64,
    reads: AtomicU64,
    busy_ns: AtomicU64,
}

impl TimedStore {
    /// Wrap `inner`, recording spans into `tracer`.
    pub fn new(inner: DirStore, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer,
            opens: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &DirStore {
        &self.inner
    }

    /// Counters so far.
    pub fn counts(&self) -> PfsCounts {
        PfsCounts {
            opens: self.opens.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }

    fn timed<T>(&self, op: Op, path: &Path, call: impl FnOnce() -> T) -> T {
        let counter = if op == Op::PfsOpen {
            &self.opens
        } else {
            &self.reads
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let traced = self.tracer.enabled();
        let start_ns = if traced { self.tracer.now_ns() } else { 0 };
        let t = Instant::now();
        let out = call();
        self.busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if traced {
            self.tracer.push_pfs(Span {
                op,
                file: file_index(path),
                thread: thread_index(),
                start_ns,
                end_ns: self.tracer.now_ns(),
            });
        }
        out
    }
}

impl FileStore for TimedStore {
    fn open_meta(&self, path: &Path) -> Result<FileMeta> {
        self.timed(Op::PfsOpen, path, || self.inner.open_meta(path))
    }

    fn read_all(&self, path: &Path) -> Result<Bytes> {
        self.timed(Op::PfsRead, path, || self.inner.read_all(path))
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> Result<Bytes> {
        self.timed(Op::PfsRead, path, || self.inner.read_at(path, offset, len))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, prefix: &Path) -> Result<Vec<PathBuf>> {
        self.inner.list(prefix)
    }

    fn stats(&self) -> &StoreStats {
        self.inner.stats()
    }
}

/// Step between consecutive 8-byte words of a file. It is odd, so the
/// words of one file are all distinct.
const WORD_STEP: u64 = 0xD6E8_FEB8_6659_FD93;

/// First word of file `file`; files start far apart, so a read of the
/// wrong file or at the wrong offset cannot match.
fn first_word(file: u64) -> u64 {
    (file + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The contents of file `file`, `size` bytes long: little-endian words
/// counting up from [`first_word`] in steps of [`WORD_STEP`].
pub fn content(file: u64, size: usize) -> Vec<u8> {
    let mut v = vec![0u8; size];
    let mut word = first_word(file);
    for chunk in v.chunks_mut(8) {
        chunk.copy_from_slice(&word.to_le_bytes()[..chunk.len()]);
        word = word.wrapping_add(WORD_STEP);
    }
    v
}

/// Whether `data` is exactly the contents of file `file` of `size` bytes.
/// One add, xor and or per word with no early exit, so the compiler
/// vectorizes it and the check stays far below a sample's own cost.
pub fn is_exact(file: u64, size: usize, data: &[u8]) -> bool {
    if data.len() != size {
        return false;
    }
    let words = data.chunks_exact(8);
    let tail = words.remainder();
    let mut word = first_word(file);
    let mut diff = 0u64;
    for w in words {
        diff |= u64::from_le_bytes(w.try_into().expect("chunk of 8")) ^ word;
        word = word.wrapping_add(WORD_STEP);
    }
    diff == 0 && tail == &word.to_le_bytes()[..tail.len()]
}

/// Write `sizes.len()` files `sample_<i>.bin` under application directory
/// `dir` of `store`. Returns their application paths.
pub fn write_dataset(store: &DirStore, dir: &str, sizes: &[usize]) -> Result<Vec<PathBuf>> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let path = PathBuf::from(format!("{dir}/sample_{i:08}.bin"));
            store.put(&path, &content(i as u64, size))?;
            Ok(path)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_checks_exactly() {
        for size in [0usize, 1, 7, 8, 9, 4096, 4099] {
            let c = content(5, size);
            assert!(is_exact(5, size, &c), "size {size}");
            if size > 0 {
                let mut bad = c.clone();
                bad[size - 1] ^= 1;
                assert!(!is_exact(5, size, &bad), "flipped last byte, size {size}");
                assert!(!is_exact(6, size, &c), "other file, size {size}");
            }
            assert!(!is_exact(5, size + 1, &c), "short read, size {size}");
        }
    }

    #[test]
    fn shifted_contents_do_not_match() {
        let c = content(3, 64);
        let shifted = &content(3, 72)[8..];
        assert!(!is_exact(3, 64, shifted));
        assert!(is_exact(3, 64, &c));
    }

    #[test]
    fn wrapper_counts_and_traces_calls() {
        let dir = std::env::temp_dir().join(format!("perfbench-store-{}", std::process::id()));
        let tracer = Arc::new(Tracer::default());
        let store = TimedStore::new(DirStore::new(&dir).unwrap(), tracer.clone());
        let paths = write_dataset(store.inner(), "/d", &[10, 20]).unwrap();
        assert_eq!(store.open_meta(&paths[1]).unwrap().size, 20);
        tracer.set_enabled(true);
        let data = store.read_all(&paths[1]).unwrap();
        assert!(is_exact(1, 20, &data));
        assert_eq!(store.read_at(&paths[0], 4, 100).unwrap().len(), 6);
        let c = store.counts();
        assert_eq!((c.opens, c.reads), (1, 2));
        let spans = tracer.take_pfs();
        assert_eq!(spans.len(), 2, "only calls made while tracing leave spans");
        assert_eq!((spans[0].op, spans[0].file), (Op::PfsRead, 1));
        assert_eq!((spans[1].op, spans[1].file), (Op::PfsRead, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
