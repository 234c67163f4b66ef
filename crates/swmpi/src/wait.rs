//! The one host-side wait primitive: spin briefly, then park.
//!
//! Every blocking point of the substrate — the collective hub (hence
//! barriers, allreduces, allgathers and both barriers of a fence) and
//! the mailboxes (`recv`, `probe`) — is a [`Gate`]: state behind one
//! mutex, a condvar to sleep on, and an atomic *epoch* that the
//! completing side bumps under the lock whenever it changes something
//! a waiter may be waiting for. A rank waits through its own
//! [`Waiter`]: it polls the epoch with [`std::hint::spin_loop`] for a
//! bounded time and only then takes the lock and sleeps on the
//! condvar. The completing side counts sleepers under the lock
//! and skips `notify_all` when there are none, so a rendezvous between
//! two running ranks costs neither side a system call.
//!
//! This is host time only. Virtual clocks, Lamport clocks, counters,
//! match ids and trace events are computed from what the gate's state
//! holds, never from how a rank came to see it.
//!
//! Whether to spin is decided from what the code can observe
//! ([`SpinPolicy`]), never from a setting:
//!
//! * a world with more ranks than the host has cores never spins — the
//!   rank a spinner waits for may need the spinner's core;
//! * a spin that took far longer than its budget was descheduled
//!   half-way. If the kernel's accounting shows this thread has lately
//!   spent a real share of its time runnable but waiting for a core,
//!   another process wants the cores: the rank parks without spinning
//!   for its next [`COOL_DOWN_WAITS`] waits (sleepers pre-empt a
//!   competing process when they are woken; spinners queue behind it).
//!   If the kernel shows no such wait, the interruption was not
//!   competition for this core (an interrupt, a hypervisor taking the
//!   virtual CPU) and parking would not have avoided it.
//!
//! The same primitive carries the world's abort path: a rank that
//! panics raises the [`Abort`] flag and wakes every gate, and a waiter
//! checks the flag in both its spin and its park loop and unwinds.

use std::cell::{Cell, RefCell};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::Rank;

/// How long one wait polls before it parks. One park/wake round trip
/// costs 11–60 µs of host time depending on the host; the end-to-end
/// gain is flat from about 25 µs up (DESIGN §6.20).
const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// A spin that lasted this long (8 budgets) was descheduled half-way.
const DESCHEDULED: Duration = Duration::from_micros(400);

/// A descheduled spin counts as competition when the thread has sat
/// runnable without a core for at least 1/`CONTENDED_SHARE` of the
/// stretch of spinning it closes. Measured: 24–59 % with one busy
/// process beside two ranks on two cores, 0–5 % when only the
/// hypervisor or a passing housekeeping task interrupts.
const CONTENDED_SHARE: u32 = 4;

/// The shortest stretch worth judging: a one-off 3–4 ms interruption
/// is 36 % of 10 ms and under 4 % of this.
const JUDGED_OVER: Duration = Duration::from_millis(100);

/// Waits that park at once after a spin lost to competition.
const COOL_DOWN_WAITS: u32 = 1 << 16;

/// How one rank's waits were served. Host-side scheduling facts, so
/// deliberately *not* part of [`crate::CommStats`], which must repeat
/// exactly from run to run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WaitStats {
    /// Waits that polled before anything else (whether or not the poll
    /// was enough).
    pub spun: u64,
    /// Waits that slept on the condvar.
    pub parked: u64,
    /// Spins lost to competition, each starting a cool-down.
    pub cool_downs: u64,
}

/// Whether a world of `ranks` rank threads may spin on a host with
/// `cores` cores: only when every rank can own one.
pub(crate) fn may_spin(ranks: usize, cores: usize) -> bool {
    ranks <= cores
}

/// One reading of the kernel's account of this thread: how long it has
/// been runnable but waiting for a core, in total, as of `at`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunDelay {
    pub at: Instant,
    pub waited: Duration,
}

impl RunDelay {
    /// Linux: the second field of `/proc/thread-self/schedstat`. `None`
    /// where the kernel does not say.
    fn read() -> Option<Self> {
        let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        let ns = text.split_ascii_whitespace().nth(1)?.parse().ok()?;
        Some(Self {
            at: Instant::now(),
            waited: Duration::from_nanos(ns),
        })
    }
}

/// The spin decision of one rank, as a pure state machine: the caller
/// asks for a [`grant`](Self::grant), spins, and reports how long the
/// spin took. `read` arguments supply the kernel's account of the
/// thread ([`RunDelay::read`] in production) at the few moments the
/// policy wants one.
#[derive(Debug)]
pub(crate) struct SpinPolicy {
    enabled: bool,
    cooling: u32,
    /// The reading that opens the stretch of spinning now under
    /// judgement: taken when spinning (re)started or at the previous
    /// judgement. `None` when the kernel cannot say.
    since: Option<RunDelay>,
    stats: WaitStats,
}

impl SpinPolicy {
    pub(crate) fn new(enabled: bool, read: impl FnOnce() -> Option<RunDelay>) -> Self {
        Self {
            enabled,
            cooling: 0,
            since: if enabled { read() } else { None },
            stats: WaitStats::default(),
        }
    }

    /// How long the next wait may poll before parking; `None` = park at
    /// once (spinning is off for this world, or the rank is cooling
    /// down — each refused wait shortens the cool-down by one).
    pub(crate) fn grant(&mut self, read: impl FnOnce() -> Option<RunDelay>) -> Option<Duration> {
        if !self.enabled {
            return None;
        }
        if self.cooling > 0 {
            self.cooling -= 1;
            if self.cooling == 0 {
                // Sleepers accrue run delay at every wake-up; judge the
                // next stretch of spinning from here.
                self.since = read();
            }
            return None;
        }
        self.stats.spun += 1;
        Some(SPIN_BUDGET)
    }

    /// Reports when a granted spin began and ended, successful or not.
    /// `read` is consulted only for a descheduled spin that closes a
    /// stretch long enough to judge; where the kernel cannot say, the
    /// clock's verdict stands.
    pub(crate) fn spun(
        &mut self,
        began: Instant,
        ended: Instant,
        read: impl FnOnce() -> Option<RunDelay>,
    ) {
        if ended - began < DESCHEDULED {
            return;
        }
        if let Some(then) = self.since {
            if ended - then.at < JUDGED_OVER {
                return;
            }
            self.since = read();
            if let Some(now) = self.since {
                let waited = now.waited.saturating_sub(then.waited);
                if waited * CONTENDED_SHARE < now.at - then.at {
                    return;
                }
            }
        }
        self.cooling = COOL_DOWN_WAITS;
        self.stats.cool_downs += 1;
    }

    fn note_parked(&mut self) {
        self.stats.parked += 1;
    }
}

/// World-level abort flag: the rank that failed first, if any.
#[derive(Debug, Default)]
pub(crate) struct Abort {
    /// 0 = running, otherwise failed rank + 1.
    failed: AtomicUsize,
}

impl Abort {
    /// Records that `rank` panicked; the first caller wins.
    pub(crate) fn raise(&self, rank: Rank) {
        // SeqCst: the store must precede the raiser's lock/notify pass
        // over the gates (see `Gate::wake_all`).
        let _ = self
            .failed
            .compare_exchange(0, rank + 1, Ordering::SeqCst, Ordering::SeqCst);
    }

    fn failed(&self) -> Option<Rank> {
        self.failed.load(Ordering::SeqCst).checked_sub(1)
    }
}

struct Gated<S> {
    inner: S,
    /// Waiters asleep on the condvar (maintained under the lock).
    parked: usize,
}

/// One blocking point: lock-protected state, the condvar its waiters
/// sleep on, and the epoch they poll before sleeping.
///
/// No code path may panic while holding the lock (a poisoned gate would
/// turn every peer's clean unwind into a secondary panic): failures
/// found under the lock are raised after [`Guard`] is dropped.
pub(crate) struct Gate<S> {
    state: Mutex<Gated<S>>,
    cond: Condvar,
    /// Number of [`Guard::publish`] calls so far. Written under the
    /// lock with `Release`, polled outside it with `Acquire`; a waiter
    /// re-reads the state under the lock after seeing it move, so the
    /// epoch only ever says "look again".
    epoch: AtomicU64,
}

/// The locked state of a [`Gate`].
pub(crate) struct Guard<'a, S> {
    gate: &'a Gate<S>,
    state: MutexGuard<'a, Gated<S>>,
}

impl<S> Deref for Guard<'_, S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.state.inner
    }
}

impl<S> DerefMut for Guard<'_, S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.state.inner
    }
}

impl<S> Guard<'_, S> {
    /// Publications so far (stable while the lock is held).
    pub(crate) fn epoch(&self) -> u64 {
        self.gate.epoch.load(Ordering::Relaxed)
    }

    /// Announces that the state changed in a way a waiter may be
    /// waiting for: moves the epoch for the spinners and wakes the
    /// sleepers — skipping the system call when nobody sleeps.
    pub(crate) fn publish(&mut self) {
        self.gate.epoch.fetch_add(1, Ordering::Release);
        if self.state.parked > 0 {
            self.gate.cond.notify_all();
        }
    }
}

impl<S> Gate<S> {
    pub(crate) fn new(inner: S) -> Self {
        Self {
            state: Mutex::new(Gated { inner, parked: 0 }),
            cond: Condvar::new(),
            epoch: AtomicU64::new(0),
        }
    }

    pub(crate) fn lock(&self) -> Guard<'_, S> {
        Guard {
            gate: self,
            state: self.state.lock(),
        }
    }

    /// Wakes every sleeper so it re-checks the abort flag. Taking the
    /// lock first closes the window between a waiter's last flag check
    /// and its sleep.
    pub(crate) fn wake_all(&self) {
        let _held = self.state.lock();
        self.cond.notify_all();
    }
}

impl<S: Default> Default for Gate<S> {
    fn default() -> Self {
        Self::new(S::default())
    }
}

/// One rank's way of waiting at any [`Gate`] of its world.
pub(crate) struct Waiter {
    rank: Rank,
    abort: Arc<Abort>,
    policy: RefCell<SpinPolicy>,
    /// Set just before this rank unwinds because a *peer* failed, so
    /// `World::run` can tell the secondary panic from the original.
    stopped_by_peer: Cell<bool>,
}

impl Waiter {
    pub(crate) fn new(rank: Rank, abort: Arc<Abort>, spin: bool) -> Self {
        Self {
            rank,
            abort,
            policy: RefCell::new(SpinPolicy::new(spin, RunDelay::read)),
            stopped_by_peer: Cell::new(false),
        }
    }

    pub(crate) fn stats(&self) -> WaitStats {
        self.policy.borrow().stats
    }

    pub(crate) fn stopped_by_peer(&self) -> bool {
        self.stopped_by_peer.get()
    }

    /// Unwinds this rank because `failed` did. Never called with a
    /// gate lock held.
    fn stop(&self, failed: Rank) -> ! {
        self.stopped_by_peer.set(true);
        panic!("rank {} stops waiting: rank {failed} panicked", self.rank);
    }

    /// Blocks until `ready` yields a value. `ready` runs under the
    /// gate's lock and must not panic; a `None` leaves the state as it
    /// found it.
    pub(crate) fn wait<S, T>(
        &self,
        gate: &Gate<S>,
        mut ready: impl FnMut(&mut S) -> Option<T>,
    ) -> T {
        let mut g = gate.lock();
        if let Some(v) = ready(&mut g) {
            return v;
        }
        let budget = self.policy.borrow_mut().grant(RunDelay::read);
        if let Some(budget) = budget {
            let mut seen = g.epoch();
            drop(g);
            let start = Instant::now();
            let got = 'spin: loop {
                while gate.epoch.load(Ordering::Acquire) == seen {
                    if start.elapsed() >= budget {
                        break 'spin None;
                    }
                    if let Some(failed) = self.abort.failed() {
                        self.stop(failed);
                    }
                    std::hint::spin_loop();
                }
                let mut g = gate.lock();
                if let Some(v) = ready(&mut g) {
                    break Some(v);
                }
                seen = g.epoch();
            };
            self.policy
                .borrow_mut()
                .spun(start, Instant::now(), RunDelay::read);
            if let Some(v) = got {
                return v;
            }
            g = gate.lock();
            if let Some(v) = ready(&mut g) {
                return v;
            }
        }
        self.policy.borrow_mut().note_parked();
        loop {
            if let Some(failed) = self.abort.failed() {
                drop(g);
                self.stop(failed);
            }
            g.state.parked += 1;
            gate.cond.wait(&mut g.state);
            g.state.parked -= 1;
            if let Some(v) = ready(&mut g) {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn never() -> Option<RunDelay> {
        panic!("the kernel must not be consulted here")
    }

    /// A kernel that reports `waited_ms` of run delay `at_ms` after `t0`.
    fn kernel(t0: Instant, at_ms: u64, waited_ms: u64) -> impl FnOnce() -> Option<RunDelay> {
        move || {
            Some(RunDelay {
                at: t0 + Duration::from_millis(at_ms),
                waited: Duration::from_millis(waited_ms),
            })
        }
    }

    /// A spin of `took` that ends `end_ms` after `t0`.
    fn spin(t0: Instant, end_ms: u64, took: Duration) -> (Instant, Instant) {
        let ended = t0 + Duration::from_millis(end_ms);
        (ended - took, ended)
    }

    #[test]
    fn rank_count_decides_whether_a_world_spins() {
        assert!(may_spin(1, 1));
        assert!(may_spin(2, 2));
        assert!(may_spin(2, 64));
        assert!(!may_spin(3, 2));
        assert!(!may_spin(128, 2));
    }

    #[test]
    fn disabled_policy_never_spins_and_never_asks_the_kernel() {
        let mut p = SpinPolicy::new(false, never);
        for _ in 0..1_000 {
            assert_eq!(p.grant(never), None);
        }
        assert_eq!(p.stats, WaitStats::default());
    }

    #[test]
    fn quick_spins_keep_the_budget_and_cost_no_reading() {
        let t0 = Instant::now();
        let mut p = SpinPolicy::new(true, kernel(t0, 0, 0));
        for k in 0..1_000u64 {
            assert_eq!(p.grant(never), Some(SPIN_BUDGET));
            // Up to just under the verdict, successful or exhausted.
            let (began, ended) = spin(t0, 1_000 + k, DESCHEDULED - Duration::from_nanos(1));
            p.spun(began, ended, never);
        }
        assert_eq!(p.stats.spun, 1_000);
        assert_eq!(p.stats.cool_downs, 0);
    }

    #[test]
    fn descheduled_spin_with_a_waiting_share_starts_a_cool_down() {
        let t0 = Instant::now();
        let mut p = SpinPolicy::new(true, kernel(t0, 0, 10));
        assert!(p.grant(never).is_some());
        // 200 ms of spinning, 50 ms of it runnable without a core:
        // exactly the 1/4 share.
        let (began, ended) = spin(t0, 200, DESCHEDULED);
        p.spun(began, ended, kernel(t0, 200, 60));
        assert_eq!(p.stats.cool_downs, 1);
        // The next COOL_DOWN_WAITS waits park at once; the last of them
        // takes the reading the next stretch is judged from.
        for _ in 0..COOL_DOWN_WAITS - 1 {
            assert_eq!(p.grant(never), None);
        }
        assert_eq!(p.grant(kernel(t0, 5_000, 900)), None);
        assert_eq!(p.grant(never), Some(SPIN_BUDGET));
        assert_eq!(p.stats.spun, 2);
        // Run delay accrued while parked is not held against the new
        // stretch: 10 ms of 200 ms is no competition.
        let (began, ended) = spin(t0, 5_200, 3 * DESCHEDULED);
        p.spun(began, ended, kernel(t0, 5_200, 910));
        assert_eq!(p.stats.cool_downs, 1);
        assert_eq!(p.grant(never), Some(SPIN_BUDGET));
    }

    #[test]
    fn descheduled_spin_without_a_waiting_share_keeps_spinning() {
        let t0 = Instant::now();
        let mut p = SpinPolicy::new(true, kernel(t0, 0, 0));
        // A hypervisor steal: 5 ms lost, the kernel saw the thread on
        // its core throughout.
        let (began, ended) = spin(t0, 300, Duration::from_millis(5));
        p.spun(began, ended, kernel(t0, 300, 1));
        assert_eq!(p.stats.cool_downs, 0);
        assert_eq!(p.grant(never), Some(SPIN_BUDGET));
        // The judgement moved the start of the stretch: 40 ms later is
        // too soon to judge again, so the kernel is not even asked.
        let (began, ended) = spin(t0, 340, Duration::from_millis(5));
        p.spun(began, ended, never);
        // ... and a one-off 4 ms wait for a core inside a long enough
        // stretch (4 of 110 ms) is not competition either.
        let (began, ended) = spin(t0, 410, Duration::from_millis(4));
        p.spun(began, ended, kernel(t0, 410, 5));
        assert_eq!(p.stats.cool_downs, 0);
        // Just under the share: 27 of 110 ms.
        let (began, ended) = spin(t0, 520, DESCHEDULED);
        p.spun(began, ended, kernel(t0, 520, 5 + 27));
        assert_eq!(p.stats.cool_downs, 0);
    }

    #[test]
    fn without_kernel_accounting_the_clock_alone_decides() {
        let t0 = Instant::now();
        let mut p = SpinPolicy::new(true, || None);
        assert!(p.grant(never).is_some());
        let (began, ended) = spin(t0, 1, DESCHEDULED);
        p.spun(began, ended, never);
        assert_eq!(p.stats.cool_downs, 1);
        assert_eq!(p.grant(never), None);
        // A kernel that stops answering falls back the same way.
        let mut p = SpinPolicy::new(true, kernel(t0, 0, 0));
        let (began, ended) = spin(t0, 150, DESCHEDULED);
        p.spun(began, ended, || None);
        assert_eq!(p.stats.cool_downs, 1);
    }
}
