//! # The repository benchmark
//!
//! Four workloads, three end-to-end metrics, and per-layer timings
//! taken from outside the engine; see `README.md` beside this package.
//!
//! * [`spec`] — workloads, frozen work sizes, metric tables;
//! * [`workloads`] — the workloads through the production entry points;
//! * [`child`] — one repetition per fresh process;
//! * [`run`] — arguments, run hygiene, counted checks, result lines;
//! * [`stats`], [`trace`] — order statistics and in-memory spans.
//!
//! The `bench` binary (untraced, end-to-end metrics) uses only this
//! library; every call below the production entry points lives in the
//! `bench-trace` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod child;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
