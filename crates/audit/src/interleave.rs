//! Mini exhaustive-interleaving model checker (loom-style, offline).
//!
//! The workspace's concurrency surfaces are small and mutex-protected
//! — the swmpi one-sided window hub, the telemetry span fold, the
//! JSONL sink sequence counter — so their correctness arguments reduce
//! to: *for every interleaving of the participating ranks' operations,
//! the protocol invariants hold*. With operations at method
//! granularity (each method takes the one internal lock, so methods
//! are the atomic steps), the schedule space is tiny — interleaving
//! two ranks' 4-step scripts is C(8,4) = 70 schedules — and can be
//! enumerated *exhaustively* instead of sampled with threads and
//! sleeps.
//!
//! [`schedules`] enumerates every interleaving of `counts[i]`-step
//! thread scripts; [`explore`] drives a fresh state through each one,
//! calling a per-step invariant and a final check. The
//! `tests/model_checks.rs` suite (behind the `model-checks` feature)
//! uses this to check the fence/put protocol and the telemetry
//! registries under all schedules.

/// Every interleaving of `counts.len()` threads where thread `i`
/// executes `counts[i]` ordered steps. Each schedule lists thread ids
/// in execution order; schedules are generated in lexicographic order,
/// so output is deterministic.
pub fn schedules(counts: &[usize]) -> Vec<Vec<usize>> {
    let total: usize = counts.iter().sum();
    let mut remaining = counts.to_vec();
    let mut current = Vec::with_capacity(total);
    let mut out = Vec::new();
    dfs(&mut remaining, &mut current, total, &mut out);
    out
}

fn dfs(remaining: &mut [usize], current: &mut Vec<usize>, total: usize, out: &mut Vec<Vec<usize>>) {
    if current.len() == total {
        out.push(current.clone());
        return;
    }
    for tid in 0..remaining.len() {
        if remaining[tid] > 0 {
            remaining[tid] -= 1;
            current.push(tid);
            dfs(remaining, current, total, out);
            current.pop();
            remaining[tid] += 1;
        }
    }
}

/// Number of distinct interleavings of `counts` (multinomial
/// coefficient) — what [`schedules`] will return, computable without
/// materialising them.
pub fn schedule_count(counts: &[usize]) -> u128 {
    let mut n: u128 = 0;
    let mut result: u128 = 1;
    for &c in counts {
        for k in 1..=c as u128 {
            n += 1;
            result = result * n / k;
        }
    }
    result
}

/// Drives a fresh state through **every** interleaving of the thread
/// scripts:
///
/// * `counts[i]` — how many steps thread `i` executes;
/// * `init()` — builds a fresh state per schedule;
/// * `step(state, tid, k)` — executes thread `tid`'s `k`-th step
///   (0-based) and asserts any per-step invariant;
/// * `check(state, schedule)` — asserts the post-conditions after the
///   full schedule ran.
///
/// Returns the number of schedules explored (callers assert it against
/// [`schedule_count`] so a broken enumerator cannot silently pass).
pub fn explore<S>(
    counts: &[usize],
    mut init: impl FnMut() -> S,
    mut step: impl FnMut(&mut S, usize, usize),
    mut check: impl FnMut(&mut S, &[usize]),
) -> usize {
    let all = schedules(counts);
    for schedule in &all {
        let mut state = init();
        let mut done = vec![0usize; counts.len()];
        for &tid in schedule {
            step(&mut state, tid, done[tid]);
            done[tid] += 1;
        }
        check(&mut state, schedule);
    }
    all.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_multinomial() {
        assert_eq!(schedules(&[2, 2]).len(), 6);
        assert_eq!(schedules(&[4, 4]).len(), 70);
        assert_eq!(schedules(&[1, 1, 1]).len(), 6);
        assert_eq!(schedule_count(&[2, 2]), 6);
        assert_eq!(schedule_count(&[4, 4]), 70);
        assert_eq!(schedule_count(&[3, 3, 3]), 1680);
    }

    #[test]
    fn schedules_preserve_program_order() {
        for s in schedules(&[3, 2]) {
            assert_eq!(s.iter().filter(|&&t| t == 0).count(), 3);
            assert_eq!(s.iter().filter(|&&t| t == 1).count(), 2);
        }
    }

    #[test]
    fn explore_visits_every_schedule_with_fresh_state() {
        let mut totals = Vec::new();
        let n = explore(
            &[2, 2],
            Vec::new,
            |state: &mut Vec<usize>, tid, k| state.push(tid * 10 + k),
            |state, schedule| {
                assert_eq!(state.len(), 4, "fresh state per schedule");
                assert_eq!(schedule.len(), 4);
                totals.push(state.clone());
            },
        );
        assert_eq!(n, 6);
        totals.sort();
        totals.dedup();
        assert_eq!(totals.len(), 6, "all six interleavings distinct");
    }
}
