//! # mmds-audit — workspace static-analysis passes
//!
//! The paper's two hardest correctness constraints are invisible at
//! runtime until they break: every CPE kernel's tables, block buffers
//! and ghost-reuse margin must fit the 64 KB local store (§2.1.2 —
//! the whole reason compacted tables exist), and the parallel MD sweeps
//! promise bitwise determinism at any thread count. This crate proves
//! both statically on every CI run (`mmds-audit --all`), plus two
//! guardrails that keep the perf model and the safety posture honest:
//!
//! 1. [`ldm`] — **LDM budget prover**: walks every registered CPE
//!    kernel plan ([`mmds_md::offload::OffloadConfig::ldm_plans`], the
//!    Fe–Cu alloy placement, the register-mesh distributed slice) and
//!    checks each worst-case simultaneous-live footprint — computed
//!    symbolically from the declared plan constants — against
//!    [`mmds_sunway::SwModel::sw26010`]`.ldm_bytes`, emitting a
//!    per-kernel budget table. Also flags hard-coded `65536`/`64 *
//!    1024` literals outside the single source of truth
//!    (`sunway/src/arch.rs`).
//! 2. [`determinism`] — **determinism linter**: a lexical source scan
//!    of `md`, `kmc`, `coupled` for nondeterminism hazards in
//!    physics-facing code: iteration over `HashMap`/`HashSet`,
//!    wall-clock / thread-identity / address-derived values, and
//!    unordered parallel float reductions. Telemetry-only paths opt
//!    out with `#[mmds_attrs::nondeterministic_ok]` (or the comment
//!    form `// mmds: nondeterministic_ok`).
//! 3. [`flops`] — **flop-ledger cross-checker**: verifies the
//!    `LOCATE_FLOPS` / `SEG_EVAL_FLOPS` / `RECON_EXTRA_FLOPS`
//!    constants charged through `CpeCtx::charge_table_access` against
//!    machine-readable `// flops:` markers on the actual eval kernels
//!    in `eam`, and rejects call sites that charge raw numeric
//!    literals instead of the named constants.
//! 4. [`unsafe_audit`] — **unsafe audit**: every workspace crate must
//!    keep `#![forbid(unsafe_code)]` in its root, and no `unsafe`
//!    token may appear anywhere in `crates/`, `src/`, or `shims/`
//!    (real unsafe, if ever needed, is confined to shims with
//!    `#[deny(unsafe_op_in_unsafe_fn)]` and an explicit allowlist
//!    entry here).
//! 5. [`counters`] — **counter-manifest cross-checker**: every
//!    telemetry counter/series name charged from live code in `md`,
//!    `kmc`, `coupled` must have a row in the checked-in registry
//!    manifest (`TELEMETRY_MANIFEST.md`), and every manifest row must
//!    still be charged somewhere (no typo'd names silently dropping
//!    observatory data, no stale documentation). Every `MMDS_*`
//!    environment knob read by live code gets the same two-way check
//!    against the manifest's knob table, listed as an inventory.
//! 6. [`protocol`] — **communication-protocol verifier**: the exchange
//!    code declares its per-phase communication skeletons as
//!    `mmds_swmpi::CommPlan`s (symbolic op sequences over rank-offset
//!    expressions); this pass proves match closure, deadlock freedom
//!    and fence enclosure for every declared plan, executes each on
//!    the lock-step oracle at P = 8 and 27, and lexically rejects
//!    rank-guarded collectives and unfenced `win_put`s in `md`, `kmc`,
//!    `coupled` (opt-out: `// mmds: collective_uniform_ok`). The
//!    dynamic half — reconciling the declared skeletons against a real
//!    traced 8-rank run — lives in `mmds-bench::reconcile`.
//!
//! The seventh check is dynamic but exhaustive: [`interleave`] is a
//! loom-style scheduler that enumerates *every* interleaving of a set
//! of modelled threads; `tests/model_checks.rs` (behind the
//! `model-checks` feature) uses it to check the swmpi window
//! fence/put protocol, the telemetry span-fold `(rank, path)`
//! keying, and the JSONL sink sequence counter under all schedules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod determinism;
pub mod findings;
pub mod flops;
pub mod interleave;
pub mod ldm;
pub mod protocol;
pub mod unsafe_audit;
pub mod workspace;

pub use findings::Finding;

/// Runs every pass against the workspace at `root`, returning the
/// rendered budget, knob and skeleton tables and all findings (empty =
/// audit passed).
pub fn run_all(root: &std::path::Path) -> (String, Vec<Finding>) {
    let mut findings = Vec::new();
    let (mut table, f) = ldm::run(root);
    findings.extend(f);
    findings.extend(determinism::run(root));
    findings.extend(flops::run(root));
    findings.extend(unsafe_audit::run(root));
    let (knobs, f) = counters::run(root);
    findings.extend(f);
    let (skeletons, f) = protocol::run(root);
    findings.extend(f);
    for t in [knobs, skeletons] {
        table.push('\n');
        table.push_str(&t);
    }
    (table, findings)
}

/// The workspace root this crate was built in — the default audit
/// target for tests and for `mmds-audit` run from inside the tree.
pub fn built_workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/audit sits two levels under the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_passes_its_own_audit() {
        let root = built_workspace_root();
        let (table, findings) = run_all(&root);
        assert!(
            findings.is_empty(),
            "audit found {} violation(s):\n{}",
            findings.len(),
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(table.contains("md.offload"), "budget table lists kernels");
    }
}
