//! Per-CPE work counters.

use serde::{Deserialize, Serialize};

/// Deterministic work counters accumulated by one CPE during a kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CpeCounters {
    /// DMA get transactions issued.
    pub dma_gets: u64,
    /// DMA put transactions issued.
    pub dma_puts: u64,
    /// Bytes moved main memory → local store.
    pub bytes_in: u64,
    /// Bytes moved local store → main memory.
    pub bytes_out: u64,
    /// Scalar floating-point operations charged.
    pub flops: u64,
    /// Lane-batched table accesses charged (one per full lane group of
    /// the SoA batch kernels; scalar/tail accesses don't count).
    pub table_batches: u64,
    /// Virtual seconds spent in DMA (outside double-buffer blocks; inside
    /// blocks DMA time is folded by the pipeline model).
    pub dma_time: f64,
    /// Virtual seconds spent computing.
    pub compute_time: f64,
}

impl CpeCounters {
    /// Total DMA bytes in either direction.
    pub fn dma_bytes(&self) -> u64 {
        self.bytes_in + self.bytes_out
    }

    /// Element-wise sum.
    pub fn merge(&self, o: &CpeCounters) -> CpeCounters {
        CpeCounters {
            dma_gets: self.dma_gets + o.dma_gets,
            dma_puts: self.dma_puts + o.dma_puts,
            bytes_in: self.bytes_in + o.bytes_in,
            bytes_out: self.bytes_out + o.bytes_out,
            flops: self.flops + o.flops,
            table_batches: self.table_batches + o.table_batches,
            dma_time: self.dma_time + o.dma_time,
            compute_time: self.compute_time + o.compute_time,
        }
    }

    /// Aggregates a slice of per-CPE counters into cluster totals
    /// (mirrors `CommStats::sum` in `mmds-swmpi`).
    pub fn sum(all: &[CpeCounters]) -> CpeCounters {
        all.iter().fold(CpeCounters::default(), |a, c| a.merge(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums() {
        let a = CpeCounters {
            dma_gets: 2,
            bytes_in: 100,
            flops: 7,
            ..Default::default()
        };
        let b = CpeCounters {
            dma_puts: 1,
            bytes_out: 50,
            flops: 3,
            ..Default::default()
        };
        let m = a.merge(&b);
        assert_eq!((m.dma_gets, m.dma_puts), (2, 1));
        assert_eq!(m.dma_bytes(), 150);
        assert_eq!(m.flops, 10);
    }

    #[test]
    fn merge_identity_and_sum_consistency() {
        let a = CpeCounters {
            dma_gets: 5,
            dma_puts: 2,
            bytes_in: 1024,
            bytes_out: 256,
            flops: 99,
            table_batches: 4,
            dma_time: 0.25,
            compute_time: 1.5,
        };
        // Default is the identity of merge.
        assert_eq!(a.merge(&CpeCounters::default()), a);
        assert_eq!(CpeCounters::default().merge(&a), a);
        // sum of an empty slice is the identity; singleton is itself.
        assert_eq!(CpeCounters::sum(&[]), CpeCounters::default());
        assert_eq!(CpeCounters::sum(&[a]), a);
        // sum agrees with folded merge.
        let b = CpeCounters {
            flops: 1,
            dma_time: 0.5,
            ..Default::default()
        };
        assert_eq!(CpeCounters::sum(&[a, b, a]), a.merge(&b).merge(&a));
    }
}
