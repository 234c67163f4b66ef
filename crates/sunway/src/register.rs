//! Register communication between CPE local stores.
//!
//! §2.1.2: "Another method is to distribute all the tables to the local
//! stores of neighbor slave cores, and use register communication
//! supported by Sunway many-core architecture to transfer data between
//! the local stores. However, since which data in the tables should be
//! transferred cannot be known before runtime, it is very difficult to
//! describe these irregular communications using register
//! communication." The conclusion (§5) proposes *one-sided* register
//! communication as the missing primitive.
//!
//! This module models both so the trade-off the paper describes can be
//! quantified (see the `ablation_tables` bench binary): the SW26010
//! register mesh moves 256-bit rows between CPEs in the same row/column
//! with ~10-cycle latency, but the *two-sided* discipline means every
//! irregular fetch costs a request/reply round trip plus the partner's
//! polling overhead.

use serde::{Deserialize, Serialize};

/// Cost model for the 8×8 CPE register mesh.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RegisterMesh {
    /// Cycle time (s) — CPEs run at 1.45 GHz.
    pub cycle_time: f64,
    /// Cycles for one 256-bit row transfer between same-row/column CPEs.
    pub hop_cycles: u64,
    /// Extra cycles when the route needs a row→column turn (two hops).
    pub turn_cycles: u64,
    /// Cycles the *partner* CPE spends servicing one two-sided request
    /// (poll, match, reply) — the cost the paper's "difficult to
    /// describe irregular communications" refers to.
    pub service_cycles: u64,
}

impl Default for RegisterMesh {
    fn default() -> Self {
        Self::sw26010()
    }
}

impl RegisterMesh {
    /// SW26010-like constants.
    pub fn sw26010() -> Self {
        Self {
            cycle_time: 1.0 / 1.45e9,
            hop_cycles: 10,
            turn_cycles: 11,
            service_cycles: 25,
        }
    }

    /// 256-bit (32-byte) rows needed for `bytes`.
    pub fn rows(bytes: usize) -> u64 {
        bytes.div_ceil(32) as u64
    }

    /// Time for a *two-sided* register fetch of `bytes` from a neighbour
    /// CPE: request row + reply rows + the partner's service overhead.
    pub fn two_sided_fetch(&self, bytes: usize, needs_turn: bool) -> f64 {
        let route = self.hop_cycles + if needs_turn { self.turn_cycles } else { 0 };
        let cycles =
            route // request
            + self.service_cycles
            + route + (Self::rows(bytes) - 1) // pipelined reply rows
            ;
        cycles as f64 * self.cycle_time
    }

    /// Time for the hypothetical *one-sided* register fetch the paper's
    /// conclusion asks for: no partner service, just route + data rows.
    pub fn one_sided_fetch(&self, bytes: usize, needs_turn: bool) -> f64 {
        let route = self.hop_cycles + if needs_turn { self.turn_cycles } else { 0 };
        let cycles = 2 * route + (Self::rows(bytes) - 1);
        cycles as f64 * self.cycle_time
    }

    /// Time the *partner* CPE loses per serviced request (stolen from
    /// its own compute) under the two-sided discipline.
    pub fn partner_overhead(&self) -> f64 {
        self.service_cycles as f64 * self.cycle_time
    }
}

/// Plans a distributed-table layout: `table_bytes` split evenly across
/// `n_cpes` local stores; returns the slice bytes each CPE holds and
/// the probability that a random access is local.
pub fn distributed_table_plan(table_bytes: usize, n_cpes: usize) -> (usize, f64) {
    let slice = table_bytes.div_ceil(n_cpes);
    (slice, 1.0 / n_cpes as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_math() {
        assert_eq!(RegisterMesh::rows(1), 1);
        assert_eq!(RegisterMesh::rows(32), 1);
        assert_eq!(RegisterMesh::rows(33), 2);
        assert_eq!(RegisterMesh::rows(56), 2);
    }

    #[test]
    fn one_sided_beats_two_sided() {
        let m = RegisterMesh::sw26010();
        for bytes in [8usize, 32, 56] {
            assert!(
                m.one_sided_fetch(bytes, true) < m.two_sided_fetch(bytes, true),
                "one-sided must avoid the service overhead"
            );
        }
    }

    #[test]
    fn register_fetch_faster_than_main_memory_dma() {
        // The raw transfer is much faster than a DMA gather — the
        // paper's point is that the *programming model*, not the speed,
        // makes it impractical for irregular table accesses.
        let m = RegisterMesh::sw26010();
        let dma = crate::SwModel::sw26010().dma_time(56);
        assert!(m.two_sided_fetch(56, true) < dma);
    }

    #[test]
    fn distribution_plan() {
        let (slice, p_local) = distributed_table_plan(280_000, 64);
        assert_eq!(slice, 4375);
        assert!((p_local - 1.0 / 64.0).abs() < 1e-12);
        assert!(
            slice < crate::SwModel::sw26010().ldm_bytes,
            "slices fit trivially in the LDM"
        );
    }
}
