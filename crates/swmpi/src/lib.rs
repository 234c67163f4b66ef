//! # mmds-swmpi — in-process message-passing substrate
//!
//! A from-scratch "simulated MPI" used by the MMDS reproduction of
//! *Massively Scaling the Metal Microscopic Damage Simulation on Sunway
//! TaihuLight Supercomputer* (Li et al., ICPP 2018).
//!
//! The paper runs its MD and KMC engines over MPI on up to 6.6 million
//! cores. We have neither the machine nor its toolchain, so this crate
//! provides the closest substitute that exercises the same code paths:
//!
//! * **Ranks are OS threads** spawned by [`World::run`]; each receives a
//!   [`Comm`] handle.
//! * **Two-sided primitives** with MPI semantics: [`Comm::send`],
//!   [`Comm::recv`], tag matching, and the blocking [`Comm::probe`]
//!   (the paper's on-demand KMC communication, §2.2.1, probes each
//!   neighbour's runtime-sized message with it before receiving).
//! * **Collectives**: barrier, allreduce, allgather — all of which also
//!   synchronise the per-rank *virtual clocks*.
//! * **One-sided windows** ([`onesided::WindowHub`]): put + fence, the
//!   paper's alternative implementation of on-demand communication that
//!   avoids zero-size messages.
//! * **Accounting**: every message updates [`stats::CommStats`]
//!   (bytes/messages — exact, machine-independent) and advances a
//!   per-rank virtual clock through a LogP-style [`model::MachineModel`]
//!   (time — modelled, calibrated to TaihuLight-like constants).
//! * **Pairwise tracing** ([`matrix::CommMatrix`]): every rank also
//!   records *who* it talked to — the src→dst message/byte matrix that
//!   [`matrix::WorldMatrix`] assembles and validates for pairwise
//!   send/recv symmetry.
//! * **Declared skeletons** ([`skeleton::CommPlan`]): each exchange
//!   phase declares its symbolic op sequence over rank expressions;
//!   match closure, deadlock freedom and fence enclosure are proven
//!   for all P and reconciled against traced runs by `mmds-audit`.
//!
//! * **One host-side wait primitive** (the private `wait` module): every
//!   blocking point polls an atomic completion counter for a bounded
//!   time before it parks, decided per world and per rank from what the
//!   host shows ([`Comm::wait_stats`] reports it); none of it reaches
//!   clocks, counters or traces. A rank that panics ends the world:
//!   blocked peers unwind and [`World::run`] re-raises the original
//!   panic.
//!
//! Communication *volume* results (paper Fig. 12) read the exact counters;
//! communication *time* results (Figs. 10–16) read the virtual clocks, and
//! `EXPERIMENTS.md` documents that substitution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;
pub mod comm;
pub mod mailbox;
pub mod matrix;
pub mod model;
pub mod onesided;
pub mod skeleton;
pub mod stats;
pub mod topology;
pub mod trace;
mod wait;
pub mod wire;
pub mod world;

pub use comm::Comm;
pub use matrix::{CommMatrix, PairFlow, WorldMatrix};
pub use model::MachineModel;
pub use skeleton::{ByteSpec, CommPlan, SkelOp, SkelViolation};
pub use stats::{CommStats, ExchangeSavings};
pub use topology::CartGrid;
pub use trace::{CommEvent, CommOp, CommTracer};
pub use wait::WaitStats;
pub use wire::{Packer, Unpacker, Wire};
pub use world::{World, WorldConfig};

/// A message tag, used for matching as in MPI.
pub type Tag = u32;

/// A rank identifier within a [`World`].
pub type Rank = usize;
