//! Double-buffer overlap model (paper Fig. 6).
//!
//! Each CPE processes its slab as a sequence of blocks; per block it
//! DMA-gets the input ("stream" transfers), computes — issuing
//! latency-bound gather DMAs for table rows / halo atoms that are not
//! local-store resident — and DMA-puts the output. Double buffering
//! overlaps the *stream* DMA of block *i+1* with the compute of block
//! *i* ("while carrying out DMA put or get on one buffer, it computes
//! ... on the other buffer"). Gather DMAs sit on the critical path of
//! the compute phase and cannot be overlapped — which is exactly why
//! the paper finds double buffering gains little once compaction has
//! already removed most of the gathers ("there is not enough
//! computation to overlap").

/// Virtual-time cost of one block, split by overlappability.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockCost {
    /// Bulk staging DMA (block input get + output put) — overlappable.
    pub stream: f64,
    /// Latency-bound gather DMA issued from inside the compute loop
    /// (non-resident table rows, halo atom fetches) — NOT overlappable.
    pub gather: f64,
    /// Arithmetic time.
    pub compute: f64,
}

impl BlockCost {
    /// The critical-path (non-overlappable) phase of the block.
    pub fn critical(&self) -> f64 {
        self.gather + self.compute
    }

    /// Total serialized time of the block.
    pub fn total(&self) -> f64 {
        self.stream + self.gather + self.compute
    }
}

/// Total kernel time for a sequence of blocks.
///
/// * Single buffer: `Σ (stream_i + gather_i + compute_i)`.
/// * Double buffer: the first stream is an un-overlapped prologue, then
///   each critical phase runs concurrently with the next block's stream:
///   `stream_0 + Σ max(gather_i + compute_i, stream_{i+1})`.
pub fn pipeline_time(blocks: &[BlockCost], double_buffer: bool) -> f64 {
    if blocks.is_empty() {
        return 0.0;
    }
    if !double_buffer {
        return blocks.iter().map(|b| b.total()).sum();
    }
    let mut t = blocks[0].stream;
    for i in 0..blocks.len() {
        let next_stream = blocks.get(i + 1).map_or(0.0, |b| b.stream);
        t += blocks[i].critical().max(next_stream);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(n: usize, stream: f64, gather: f64, compute: f64) -> Vec<BlockCost> {
        vec![
            BlockCost {
                stream,
                gather,
                compute,
            };
            n
        ]
    }

    #[test]
    fn empty_is_zero() {
        assert_eq!(pipeline_time(&[], true), 0.0);
        assert_eq!(pipeline_time(&[], false), 0.0);
    }

    #[test]
    fn single_buffer_sums() {
        let b = blocks(3, 2.0, 1.0, 5.0);
        assert_eq!(pipeline_time(&b, false), 24.0);
    }

    #[test]
    fn double_buffer_hides_stream_only() {
        let b = blocks(10, 1.0, 0.0, 5.0);
        // 1 (prologue) + 10 * max(5, 1) = 51 vs 60 sequential.
        assert_eq!(pipeline_time(&b, true), 51.0);
    }

    #[test]
    fn gather_is_never_hidden() {
        // All-gather blocks: double buffering buys nothing.
        let b = blocks(10, 0.0, 4.0, 1.0);
        assert_eq!(pipeline_time(&b, true), pipeline_time(&b, false));
    }

    #[test]
    fn paper_shape_small_gain_when_stream_small() {
        // After compaction + reuse, stream is a few % of the block:
        // the paper sees "no obvious performance improvement".
        let b = blocks(10, 0.1, 2.0, 3.0);
        let seq = pipeline_time(&b, false);
        let db = pipeline_time(&b, true);
        assert!((seq - db) / seq < 0.03, "gain {}", (seq - db) / seq);
    }

    #[test]
    fn double_buffer_never_slower() {
        let b = vec![
            BlockCost {
                stream: 3.0,
                gather: 0.5,
                compute: 1.0,
            },
            BlockCost {
                stream: 0.5,
                gather: 0.0,
                compute: 4.0,
            },
            BlockCost {
                stream: 2.0,
                gather: 1.0,
                compute: 2.0,
            },
        ];
        assert!(pipeline_time(&b, true) <= pipeline_time(&b, false) + 1e-12);
    }

    #[test]
    fn single_block_db_equals_sequential() {
        let b = blocks(1, 2.0, 1.5, 3.0);
        assert_eq!(pipeline_time(&b, true), pipeline_time(&b, false));
    }
}
