//! # mmds-sunway — SW26010 core-group simulator
//!
//! The paper (§2.1.2) accelerates EAM potential evaluation on the Sunway
//! SW26010's *slave cores* (CPEs): each core group has one master core
//! (MPE) plus an 8×8 CPE mesh, every CPE owning a 64 KB software-managed
//! local store fed by DMA. The optimisations evaluated in Fig. 9 —
//! compacted interpolation tables, ghost-data reuse between blocks, and
//! double buffering — are all *local-store resource* techniques.
//!
//! We have no Sunway toolchain, so this crate provides the closest
//! substitute that exercises the same code paths:
//!
//! * [`LocalStore`] is capacity-enforced accounting: asking for a 273 KB
//!   traditional interpolation table *fails*, exactly like on the real
//!   hardware, while the 39 KB compacted table fits. Buffers the host
//!   kernel never reads are reservations (capacity, no storage), a
//!   resident table is a view of the main-memory original
//!   ([`CpeCtx::load_resident_table`]).
//! * [`CpeCtx`]'s `charge_dma_*` calls price every DMA transaction the
//!   modelled kernel would issue in virtual time through [`SwModel`].
//! * [`CpeCluster`] executes kernels on 64 logical CPEs in parallel
//!   (via rayon) and reports the cluster kernel time as the *maximum*
//!   per-CPE virtual time — the quantity an MPE would observe.
//! * [`pipeline::pipeline_time`] models the double-buffer overlap of
//!   Fig. 6.
//!
//! Virtual times are deterministic: they are derived from counted work
//! (flops, DMA bytes/transactions), never from wall clocks, so results
//! are reproducible under any host load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod budget;
pub mod counters;
pub mod cpe;
pub mod ldm_cache;
pub mod local_store;
pub mod pipeline;
pub mod register;

pub use arch::SwModel;
pub use budget::{LdmBudgetError, LdmItem, LdmPlan};
pub use counters::CpeCounters;
pub use cpe::{BlockCharges, ClusterReport, CpeCluster, CpeCtx, Priced};
pub use ldm_cache::SoftCache;
pub use local_store::{LdmOverflow, LocalStore, LsReservation, LsView};
pub use register::RegisterMesh;
