//! Chunked bulk transfer.
//!
//! Mercury separates RPC metadata from bulk data and moves the latter in
//! RDMA-sized pieces. The loopback fabric does not need chunking for
//! correctness, but the client splits large reads into [`BULK_CHUNK_SIZE`]
//! RPCs so that transfer accounting (and the simulator's network model)
//! see the same message sizes a real deployment would, and reassembles the
//! pieces here.

use crate::pool::BufferPool;
use bytes::Bytes;

/// Default bulk chunk size (1 MiB, a typical RDMA registration unit).
pub const BULK_CHUNK_SIZE: usize = 1 << 20;

/// Reassemble chunks into one contiguous payload in a pooled buffer: the
/// destination slab comes from (and returns to) `pool` instead of a
/// per-read heap allocation, so a multi-chunk read costs one slab reuse
/// rather than an allocator round trip. Single-chunk and empty inputs stay
/// zero-copy.
pub fn reassemble_bulk_pooled(chunks: &[Bytes], pool: &BufferPool) -> Bytes {
    match chunks {
        [] => Bytes::new(),
        [one] => one.clone(),
        many => {
            let total: usize = many.iter().map(|c| c.len()).sum();
            let mut out = pool.acquire(total);
            let mut at = 0usize;
            for c in many {
                out[at..at + c.len()].copy_from_slice(c);
                at += c.len();
            }
            out.freeze()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zero-copy slices of `payload`, at most `chunk_size` bytes each.
    fn chunks(payload: &Bytes, chunk_size: usize) -> Vec<Bytes> {
        (0..payload.len())
            .step_by(chunk_size)
            .map(|at| payload.slice(at..payload.len().min(at.saturating_add(chunk_size))))
            .collect()
    }

    #[test]
    fn chunking_round_trips() {
        let pool = BufferPool::new();
        let payload = Bytes::from(
            (0..10_000u32)
                .flat_map(|x| x.to_le_bytes())
                .collect::<Vec<u8>>(),
        );
        for chunk_size in [1usize, 7, 1024, BULK_CHUNK_SIZE, usize::MAX / 2] {
            let parts = chunks(&payload, chunk_size);
            assert_eq!(
                reassemble_bulk_pooled(&parts, &pool),
                payload,
                "chunk={chunk_size}"
            );
        }
    }

    #[test]
    fn chunk_count_and_sizes() {
        // A 2.5 MB read plans as three chunk RPCs: two full, one remainder.
        let plan = crate::plan::coalesce_plan(0, 2_500_000, BULK_CHUNK_SIZE as u64, 0, |_| ());
        let lens: Vec<u64> = plan.iter().map(|e| e.len).collect();
        let full = BULK_CHUNK_SIZE as u64;
        assert_eq!(lens, [full, full, 2_500_000 - 2 * full]);
    }

    #[test]
    fn pooled_reassembly_matches_unpooled_and_quiesces() {
        let pool = BufferPool::new();
        let payload = Bytes::from((0..50_000u32).map(|x| x as u8).collect::<Vec<u8>>());
        for chunk_size in [1usize, 977, 4096, usize::MAX / 2] {
            let parts = chunks(&payload, chunk_size);
            let pooled = reassemble_bulk_pooled(&parts, &pool);
            assert_eq!(pooled, payload, "chunk={chunk_size}");
            if parts.len() == 1 {
                assert_eq!(pooled.as_ptr(), payload.as_ptr(), "single chunk zero-copy");
            }
        }
        assert_eq!(pool.stats().in_flight(), 0);
        assert!(pool.stats().pool_hits > 0, "slabs were reused across reads");
    }

    #[test]
    fn empty_payload() {
        assert_eq!(
            reassemble_bulk_pooled(&[], &BufferPool::new()),
            Bytes::new()
        );
    }

    #[test]
    fn single_chunk_is_zero_copy() {
        let payload = Bytes::from_static(b"hello");
        let parts = chunks(&payload, 64);
        assert_eq!(parts.len(), 1);
        // Same backing storage: slice of the original.
        let joined = reassemble_bulk_pooled(&parts, &BufferPool::new());
        assert_eq!(joined.as_ptr(), payload.as_ptr());
    }
}
