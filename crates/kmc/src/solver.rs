//! Rejection-free (BKL) event execution within one sector.
//!
//! Paper Fig. 7, boxes #4–#5: compute the rates of every possible event
//! in the sector, select one proportionally to rate, advance the local
//! clock by an exponential deviate, repeat until the synchronisation
//! quantum `dt` is exhausted.
//!
//! # The event catalogue
//!
//! A hop swaps two sites, so it can only change rates that *read* one
//! of them. [`run_sector`] therefore evaluates every rate once, on
//! sector entry, into a catalogue, and afterwards patches it per hop
//! instead of recomputing the sector:
//!
//! * **Order.** Active vacancies (owned, inside the sector) in
//!   ascending site id — the order of `KmcLattice::vacancies()` — each
//!   with its `(partner, rate)` events in `nn1` order, vacancy partners
//!   skipped. This is exactly the order in which a from-scratch
//!   enumeration lists the events.
//! * **Patch.** After a hop `v → n` the entry of `v` is dropped, an
//!   entry for `n` is inserted at its sorted position if `n` is still
//!   in the sector (a vacancy that hops onto a ghost or into another
//!   sector becomes inactive), and every entry whose rates can read
//!   `v` or `n` is re-evaluated.
//! * **Invalidation bound.** `rate(w, p)` sums site energies over the
//!   patch `{w, p} ∪ N(w) ∪ N(p)`; `p` is one neighbour reach from `w`,
//!   the patch sites a second, and each site energy scans a third. In
//!   cells that is `3 × offsets.max_cell_reach()` along every axis —
//!   the same three reaches [`crate::lattice::required_ghost`] reserves
//!   as ghost width, derived from the lattice's offsets, never a
//!   literal. The test is a Chebyshev cell distance, which only ever
//!   over-invalidates: recomputing an unaffected rate returns the same
//!   bits, missing an affected one is the only possible bug, and the
//!   oracle test below exists to catch it.
//! * **Sum and pick stay linear.** The total is re-summed from the
//!   cached rates, and the pick scans them, in catalogue order on every
//!   step, so the floating-point sum, both RNG draws per step, the
//!   chosen event and hence every trajectory bit equal the
//!   recompute-everything loop's. A Fenwick tree would make the pick
//!   O(log n) but sums in a different association order and would
//!   re-pin every fingerprint; rate evaluation is three orders of
//!   magnitude dearer than the scan, so it is deliberately not done.
//!
//! The catalogue lives for one `run_sector` call: ghosts are rewritten
//! between sector entries. The recompute-everything loop is kept under
//! `#[cfg(test)]` as the bitwise oracle.
//!
//! # The rate cache
//!
//! What outlives the sector is each vacancy's last evaluation, kept in
//! the lattice's `RateCache`: its events, the `rate_evals` and
//! `site_evals` it charged, and the states of its *footprint* — every
//! site a rate of that vacancy reads, the union of the basis's 8
//! patches and their cutoff neighbours (`PatchShapes::footprint`), 169
//! sites at 3 Å. `evaluate` first compares that snapshot with the
//! current states; if they are equal it returns the cached events and
//! charges the stored counts, so the catalogue's invalidation rule,
//! `RateStats::{rate_evals, site_evals}`, virtual time, every RNG draw
//! and every trajectory bit stay what they were, and only
//! `host_site_evals` falls. Validating by snapshot instead of hooking
//! writes means ghost rewrites, full-ghost slabs and checkpoint
//! restores need to tell the cache nothing.
//!
//! * **One model.** `run_sector` binds the cache to its model for the
//!   call and releases it on return; outside a bound call the cache
//!   answers nothing. Binding compares every number the rates read
//!   from the model, bit for bit, with the entries' model, and drops
//!   every entry if one differs.
//! * **Pruning.** Each cycle's first sector drops the entries of sites
//!   that are no longer vacancies, so the cache holds about one entry
//!   per vacancy plus the sites vacancies left during one cycle.
//! * **Order.** Entries sit in a `BTreeMap` by site id; nothing
//!   iterates a hash container.
//!
//! # One vacancy's rates
//!
//! `compute_rates` computes a vacancy's rates on the lattice's precomputed
//! patch shapes (DESIGN §6.19). Every site energy is computed at most
//! once per call: "before" energies are memoised by patch-union slot,
//! an "after" energy that depends only on which species moved onto the
//! vacancy is memoised by (slot, species). A site energy itself comes
//! from the model's shell tables when at most one neighbour is not Fe
//! (0.82 of the host's energies on `kmc_dense`), else from the full
//! shell sum with its embedding energy memoised by exact density bits;
//! the tables hold that sum's own results, so the choice moves no bit,
//! and the host counts the hits apart (`kmc.rate.shell_hits`), outside
//! `RateStats`. Both sums still run over each patch in ascending
//! site id, so every rate has the bits of the `#[cfg(test)]` oracle
//! `EnergyModel::rate`, and `RateStats::{rate_evals, site_evals}` are
//! charged exactly what the oracle charges; `host_site_evals` counts
//! the energies computed.

use std::collections::BTreeMap;

use rand::Rng;

use crate::lattice::{KmcLattice, PatchSite, SiteState};
use crate::model::{EmbedMemo, EnergyModel, RateStats};

/// What one sector sweep produced.
#[derive(Debug, Clone, Default)]
pub struct SectorOutcome {
    /// Events executed.
    pub events: u64,
    /// Sites whose state changed (each swap dirties two).
    pub dirty: Vec<usize>,
}

/// Sector half-extent check: is owned site `s` inside sector
/// `sec` (each component 0 = low half, 1 = high half)?
pub fn in_sector(lat: &KmcLattice, s: usize, sec: [usize; 3]) -> bool {
    let g = lat.grid.ghost;
    let len = lat.grid.len;
    let (i, j, k, _) = lat.grid.decode(s);
    let c = [i, j, k];
    (0..3).all(|ax| {
        let half = len[ax] / 2;
        let lo = g + sec[ax] * half;
        // The high sector absorbs the odd cell when len is odd.
        let hi = if sec[ax] == 0 { lo + half } else { g + len[ax] };
        (lo..hi).contains(&c[ax])
    })
}

/// The 8 sectors in processing order.
pub fn sectors() -> [[usize; 3]; 8] {
    [
        [0, 0, 0],
        [1, 0, 0],
        [0, 1, 0],
        [1, 1, 0],
        [0, 0, 1],
        [1, 0, 1],
        [0, 1, 1],
        [1, 1, 1],
    ]
}

/// One active vacancy with its cached events.
struct Entry {
    /// The vacancy's site id.
    v: usize,
    /// Its local cell, for the invalidation distance.
    cell: [usize; 3],
    /// `(partner, rate)` per atom 1NN partner, in `nn1` order.
    events: Vec<(usize, f64)>,
}

/// The sector's events: entries in ascending `v`.
struct Catalogue {
    entries: Vec<Entry>,
    /// Cells (Chebyshev) within which a swapped site can change a
    /// vacancy's rates: three neighbour reaches, as `required_ghost`.
    reach: usize,
}

fn cell_of(lat: &KmcLattice, s: usize) -> [usize; 3] {
    let (i, j, k, _) = lat.grid.decode(s);
    [i, j, k]
}

/// Site energies memoised over one vacancy's rate evaluations, by
/// [`PatchSite::slot`]. Valid only while the occupancies stay as they
/// were when it was [`reset`](Self::reset).
#[derive(Debug, Clone, Default)]
pub(crate) struct RateMemo {
    /// Pre-swap energies.
    before: Vec<Option<f64>>,
    /// Post-swap energies of `shared_after` sites, per species that
    /// moved onto the vacancy (Fe, Cu).
    after: Vec<[Option<f64>; 2]>,
    /// Embedding energies of the sites computed.
    embed: EmbedMemo,
    /// Site energies the model's shell tables answered, ever: host
    /// telemetry, never reset.
    shell_hits: u64,
}

impl RateMemo {
    /// Forgets every energy and sizes the memo for `slots` sites.
    fn reset(&mut self, slots: usize) {
        self.before.clear();
        self.before.resize(slots, None);
        self.after.clear();
        self.after.resize(slots, [None; 2]);
        self.embed.reset();
    }

    /// Site energies the model's shell tables have answered so far.
    pub(crate) fn shell_hits(&self) -> u64 {
        self.shell_hits
    }
}

/// One vacancy's last evaluation.
#[derive(Debug, Clone, Default)]
struct CachedRates {
    /// `(partner, rate)` per atom 1NN partner, in `nn1` order.
    events: Vec<(usize, f64)>,
    /// The modelled rate evaluations it charged.
    rate_evals: u64,
    /// The modelled site evaluations it charged.
    site_evals: u64,
    /// The states of the vacancy basis's footprint, in footprint order.
    snapshot: Vec<SiteState>,
}

/// Per-vacancy rates that outlive the sector (see the module doc).
#[derive(Debug, Clone, Default)]
pub(crate) struct RateCache {
    /// Entries by vacancy site id.
    entries: BTreeMap<usize, CachedRates>,
    /// The model every entry was computed with.
    model: ModelBits,
    /// Address of the model of the `run_sector` call in progress.
    bound: Option<usize>,
    /// Tests: bind never, so every evaluation computes.
    #[cfg(test)]
    pub(crate) bypass: bool,
}

impl RateCache {
    /// Serves `model` until [`release`](Self::release); forgets every
    /// entry if `model`'s numbers differ from the entries' model's.
    pub(crate) fn bind(&mut self, model: &EnergyModel) {
        #[cfg(test)]
        if self.bypass {
            return;
        }
        if !self.model.matches(model) {
            self.entries.clear();
            self.model = ModelBits::of(model);
        }
        self.bound = Some(model as *const EnergyModel as usize);
    }

    /// Ends a binding: the model may change once the borrow ends.
    pub(crate) fn release(&mut self) {
        self.bound = None;
    }

    fn serves(&self, model: &EnergyModel) -> bool {
        self.bound == Some(model as *const EnergyModel as usize)
    }

    /// Drops the entries of sites that are no longer vacancies.
    fn prune(&mut self, state: &[SiteState]) {
        self.entries.retain(|&v, _| state[v] == SiteState::Vacancy);
    }

    /// The entry of `v` if every footprint site still has its state.
    fn lookup(
        &self,
        model: &EnergyModel,
        v: usize,
        footprint: &[isize],
        state: &[SiteState],
    ) -> Option<&CachedRates> {
        if !self.serves(model) {
            return None;
        }
        let hit = self.entries.get(&v)?;
        let unchanged = footprint
            .iter()
            .zip(&hit.snapshot)
            .all(|(&d, &was)| state[(v as isize + d) as usize] == was);
        unchanged.then_some(hit)
    }

    /// Records the evaluation of `v` that charged `charged`.
    fn store(
        &mut self,
        model: &EnergyModel,
        v: usize,
        footprint: &[isize],
        state: &[SiteState],
        events: &[(usize, f64)],
        charged: RateStats,
    ) {
        if !self.serves(model) {
            return;
        }
        let e = self.entries.entry(v).or_default();
        e.events.clear();
        e.events.extend_from_slice(events);
        e.rate_evals = charged.rate_evals;
        e.site_evals = charged.site_evals;
        e.snapshot.clear();
        e.snapshot
            .extend(footprint.iter().map(|&d| state[(v as isize + d) as usize]));
    }
}

/// Visits every number of `model` a rate reads, each part after its
/// length: the Boltzmann and barrier scalars, the shell samples, and each
/// embedding table's end, knot count and knot values (its slopes follow
/// from those). The model's shell tables are derived from these, so
/// they add no bits of their own.
fn for_each_model_part(model: &EnergyModel, mut visit: impl FnMut(&[f64])) {
    let mut part = |p: &[f64]| {
        visit(&[p.len() as f64]);
        visit(p);
    };
    part(&[model.kbt, model.nu, model.e_mig0, model.e_floor]);
    for samples in model.phi().iter().chain(model.f()).flatten() {
        part(samples);
    }
    for table in model.embed() {
        part(&[table.x_max(), table.n() as f64]);
        part(table.values());
    }
}

/// The bits of every number of a model a rate reads.
#[derive(Debug, Clone, Default)]
struct ModelBits(Vec<u64>);

impl ModelBits {
    fn of(model: &EnergyModel) -> Self {
        let mut bits = Vec::new();
        for_each_model_part(model, |p| bits.extend(p.iter().map(|x| x.to_bits())));
        Self(bits)
    }

    /// Whether `model` has exactly these numbers.
    fn matches(&self, model: &EnergyModel) -> bool {
        let mut rest = &self.0[..];
        let mut same = true;
        for_each_model_part(model, |p| {
            if !same || rest.len() < p.len() {
                same = false;
                return;
            }
            let (head, tail) = rest.split_at(p.len());
            // Branch-free, so the comparison vectorises.
            same = head
                .iter()
                .zip(p)
                .fold(0, |diff, (&a, b)| diff | (a ^ b.to_bits()))
                == 0;
            rest = tail;
        });
        same && rest.is_empty()
    }
}

/// The events of the vacancy at `v`, into `events`: from the cache if
/// nothing `v`'s rates read has changed since it last computed them,
/// else computed and cached. Charges `stats` the modelled counts either
/// way.
fn evaluate(
    lat: &mut KmcLattice,
    model: &EnergyModel,
    v: usize,
    events: &mut Vec<(usize, f64)>,
    stats: &mut RateStats,
) {
    let footprint = &lat.patches[v & 1].footprint;
    if let Some(hit) = lat.rate_cache.lookup(model, v, footprint, &lat.state) {
        events.clear();
        events.extend_from_slice(&hit.events);
        stats.rate_evals += hit.rate_evals;
        stats.site_evals += hit.site_evals;
        return;
    }
    let before = *stats;
    compute_rates(lat, model, v, events, stats);
    let charged = RateStats {
        rate_evals: stats.rate_evals - before.rate_evals,
        site_evals: stats.site_evals - before.site_evals,
        host_site_evals: 0,
    };
    let footprint = &lat.patches[v & 1].footprint;
    lat.rate_cache
        .store(model, v, footprint, &lat.state, events, charged);
}

/// Computes the events of the vacancy at `v` into `events`: the
/// uncached evaluator, which only [`evaluate`]'s miss path calls.
fn compute_rates(
    lat: &mut KmcLattice,
    model: &EnergyModel,
    v: usize,
    events: &mut Vec<(usize, f64)>,
    stats: &mut RateStats,
) {
    events.clear();
    let b = v & 1;
    let mut memo = std::mem::take(&mut lat.memo);
    memo.reset(lat.patches[b].union_len);
    for dir in 0..lat.nn1_deltas[b].len() {
        let n = (v as isize + lat.nn1_deltas[b][dir]) as usize;
        if lat.state[n].is_atom() {
            events.push((n, shaped_rate(lat, model, v, n, dir, &mut memo, stats)));
        }
    }
    lat.memo = memo;
}

/// The rate of swapping the vacancy at `v` with the atom at `n`, its
/// `dir`-th `nn1` partner, through `memo` (reset for `v`'s evaluation).
fn shaped_rate(
    lat: &mut KmcLattice,
    model: &EnergyModel,
    v: usize,
    n: usize,
    dir: usize,
    memo: &mut RateMemo,
    stats: &mut RateStats,
) -> f64 {
    let b = v & 1;
    let patch_len = lat.patches[b].dirs[dir].len() as u64;
    stats.rate_evals += 1;
    stats.site_evals += 2 * patch_len;
    let RateMemo {
        before: memo_before,
        after: memo_after,
        embed,
        shell_hits,
    } = memo;
    let mut host = 0;
    let mut energy = |lat: &KmcLattice, p: &PatchSite| {
        host += 1;
        let (e, hit) = model.site_energy_memo(lat, (v as isize + p.delta) as usize, embed);
        *shell_hits += hit as u64;
        e
    };
    let before: f64 = lat.patches[b].dirs[dir]
        .iter()
        .map(|p| *memo_before[p.slot].get_or_insert_with(|| energy(lat, p)))
        .sum();
    let atom = lat.state[n];
    lat.state[n] = SiteState::Vacancy;
    lat.state[v] = atom;
    let species = atom as usize;
    let after: f64 = lat.patches[b].dirs[dir]
        .iter()
        .map(|p| {
            if p.shared_after {
                *memo_after[p.slot][species].get_or_insert_with(|| energy(lat, p))
            } else {
                energy(lat, p)
            }
        })
        .sum();
    lat.state[v] = SiteState::Vacancy;
    lat.state[n] = atom;
    stats.host_site_evals += host;
    model.rate_of(after - before)
}

/// The vacancy evaluators: [`evaluate`], or the oracles' [`compute_rates`].
type Evaluator = fn(&mut KmcLattice, &EnergyModel, usize, &mut Vec<(usize, f64)>, &mut RateStats);

/// Active vacancies: owned, inside the sector, in ascending site id.
fn active_vacancies(lat: &KmcLattice, sec: [usize; 3]) -> Vec<usize> {
    lat.vacancies()
        .filter(|&v| in_sector(lat, v, sec))
        .collect()
}

impl Catalogue {
    /// The rates of the `active` vacancies, evaluated once on entry.
    fn build(
        lat: &mut KmcLattice,
        model: &EnergyModel,
        active: Vec<usize>,
        stats: &mut RateStats,
        eval: Evaluator,
    ) -> Self {
        let entries = active
            .into_iter()
            .map(|v| {
                let mut events = Vec::with_capacity(lat.nn1_deltas[v & 1].len());
                eval(lat, model, v, &mut events, stats);
                Entry {
                    v,
                    cell: cell_of(lat, v),
                    events,
                }
            })
            .collect();
        Self {
            entries,
            reach: 3 * lat.offsets.max_cell_reach(),
        }
    }

    fn rates(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.entries
            .iter()
            .flat_map(|e| e.events.iter().map(move |&(n, k)| (e.v, n, k)))
    }

    /// Σ rate, summed in catalogue order from zero.
    fn total(&self) -> f64 {
        let mut total = 0.0;
        for (_, _, k) in self.rates() {
            total += k;
        }
        total
    }

    /// The event at cumulative rate `pick` (the last one if round-off
    /// leaves `pick` positive after all of them). Requires an event.
    fn select(&self, mut pick: f64) -> (usize, usize) {
        let mut chosen = None;
        for (v, n, k) in self.rates() {
            chosen = Some((v, n));
            pick -= k;
            if pick <= 0.0 {
                break;
            }
        }
        chosen.expect("a positive total rate implies at least one event")
    }

    /// Brings the catalogue up to date after the vacancy at `v` swapped
    /// with the atom at `n` (`lat` already holds the new states).
    fn apply_hop(
        &mut self,
        lat: &mut KmcLattice,
        model: &EnergyModel,
        sec: [usize; 3],
        v: usize,
        n: usize,
        stats: &mut RateStats,
    ) {
        let at = self
            .entries
            .binary_search_by_key(&v, |e| e.v)
            .expect("the hopping vacancy is in the catalogue");
        let mut moved = self.entries.remove(at);
        let swapped = [moved.cell, cell_of(lat, n)];
        if in_sector(lat, n, sec) {
            let at = self
                .entries
                .binary_search_by_key(&n, |e| e.v)
                .expect_err("the arrival site held an atom");
            moved.v = n;
            moved.cell = swapped[1];
            // Its events are evaluated below: it is zero cells from `n`.
            self.entries.insert(at, moved);
        }
        let reach = self.reach;
        for e in &mut self.entries {
            let near = swapped
                .iter()
                .any(|c| (0..3).all(|ax| e.cell[ax].abs_diff(c[ax]) <= reach));
            if near {
                evaluate(lat, model, e.v, &mut e.events, stats);
            }
        }
    }
}

/// Runs BKL dynamics in one sector for a time quantum `dt` (in KMC
/// seconds). Vacancies may hop onto ghost sites (the sublattice method
/// guarantees the owner is not concurrently active there). `stats`
/// counts the evaluations performed: every rate once on entry, then per
/// hop only those the hop can have changed (see the module doc). The
/// rates come through the lattice's rate cache, bound to `model` for the
/// call; the cycle's first sector (`sectors()[0]`) prunes it.
pub fn run_sector(
    lat: &mut KmcLattice,
    model: &EnergyModel,
    sec: [usize; 3],
    dt: f64,
    rng: &mut impl Rng,
    stats: &mut RateStats,
) -> SectorOutcome {
    let _span = mmds_telemetry::span!("kmc.sector");
    let mut out = SectorOutcome::default();
    if sec == sectors()[0] {
        lat.rate_cache.prune(&lat.state);
    }
    let active = active_vacancies(lat, sec);
    if !active.is_empty() {
        lat.rate_cache.bind(model);
    }
    let mut cat = Catalogue::build(lat, model, active, stats, evaluate);
    #[cfg(test)]
    cat.assert_equals_rebuild(lat, model, sec);
    let mut t_local = 0.0;
    while !cat.entries.is_empty() {
        let total = cat.total();
        if total <= 0.0 {
            break;
        }
        // Advance the clock first; if we overshoot the quantum, the
        // event does not happen in this cycle.
        let u: f64 = rng.random::<f64>().max(1e-300);
        t_local += -u.ln() / total;
        if t_local > dt {
            break;
        }
        // Select the event proportionally to rate.
        let (v, n) = cat.select(rng.random::<f64>() * total);
        let atom = lat.state[n];
        lat.set_state(v, atom);
        lat.set_state(n, SiteState::Vacancy);
        out.dirty.push(v);
        out.dirty.push(n);
        out.events += 1;
        cat.apply_hop(lat, model, sec, v, n, stats);
        #[cfg(test)]
        cat.assert_equals_rebuild(lat, model, sec);
    }
    lat.rate_cache.release();
    out
}

#[cfg(test)]
impl Catalogue {
    /// Every unit test that runs a sector doubles as an invalidation
    /// test: the catalogue, on entry and after every hop, must equal one
    /// built from scratch without the rate cache, bit for bit (a stale
    /// rate can leave the chosen events unchanged for a while).
    fn assert_equals_rebuild(&self, lat: &mut KmcLattice, model: &EnergyModel, sec: [usize; 3]) {
        let active = active_vacancies(lat, sec);
        let fresh = Self::build(lat, model, active, &mut RateStats::default(), compute_rates);
        let bits = |c: &Self| -> Vec<(usize, Vec<(usize, u64)>)> {
            let events = |e: &Entry| e.events.iter().map(|&(n, k)| (n, k.to_bits())).collect();
            c.entries.iter().map(|e| (e.v, events(e))).collect()
        };
        assert_eq!(bits(self), bits(&fresh), "patched catalogue is stale");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KmcConfig;
    use mmds_lattice::{BccGeometry, LocalGrid};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The recompute-everything loop `run_sector` replaced, verbatim: the
    /// bitwise oracle for the catalogue.
    fn run_sector_reference(
        lat: &mut KmcLattice,
        model: &EnergyModel,
        sec: [usize; 3],
        dt: f64,
        rng: &mut impl Rng,
        stats: &mut RateStats,
    ) -> SectorOutcome {
        let mut out = SectorOutcome::default();
        let mut t_local = 0.0;
        loop {
            // Active vacancies: owned, inside the sector.
            let active: Vec<usize> = lat
                .vacancies()
                .filter(|&v| in_sector(lat, v, sec))
                .collect();
            if active.is_empty() {
                break;
            }
            // Enumerate events (vacancy, 1NN atom partner) with rates.
            let mut events: Vec<(usize, usize, f64)> = Vec::with_capacity(active.len() * 8);
            let mut total = 0.0;
            for &v in &active {
                let partners: Vec<usize> = lat.nn1(v).collect();
                for n in partners {
                    if lat.state[n].is_atom() {
                        let k = model.rate(lat, v, n, stats);
                        total += k;
                        events.push((v, n, k));
                    }
                }
            }
            if total <= 0.0 {
                break;
            }
            // Advance the clock first; if we overshoot the quantum, the
            // event does not happen in this cycle.
            let u: f64 = rng.random::<f64>().max(1e-300);
            t_local += -u.ln() / total;
            if t_local > dt {
                break;
            }
            // Select the event proportionally to rate.
            let mut pick = rng.random::<f64>() * total;
            let mut chosen = events.len() - 1;
            for (i, &(_, _, k)) in events.iter().enumerate() {
                pick -= k;
                if pick <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            let (v, n, _) = events[chosen];
            let atom = lat.state[n];
            lat.set_state(v, atom);
            lat.set_state(n, SiteState::Vacancy);
            out.dirty.push(v);
            out.dirty.push(n);
            out.events += 1;
        }
        out
    }

    fn setup() -> (KmcLattice, EnergyModel) {
        let grid = LocalGrid::whole(BccGeometry::fe_cube(8), 3);
        let lat = KmcLattice::all_fe(grid, 3.0);
        let cfg = KmcConfig {
            table_knots: 800,
            ..Default::default()
        };
        let model = EnergyModel::new(&cfg, &lat);
        (lat, model)
    }

    #[test]
    fn sector_membership_partitions_interior() {
        let (lat, _) = setup();
        for s in lat.grid.interior_ids() {
            let n = sectors()
                .iter()
                .filter(|&&sec| in_sector(&lat, s, sec))
                .count();
            assert_eq!(n, 1, "site {s} must be in exactly one sector");
        }
    }

    #[test]
    fn empty_sector_does_nothing() {
        let (mut lat, model) = setup();
        let mut rng = StdRng::seed_from_u64(1);
        let mut stats = RateStats::default();
        let out = run_sector(&mut lat, &model, [0, 0, 0], 1.0, &mut rng, &mut stats);
        assert_eq!(out.events, 0);
        assert!(out.dirty.is_empty());
        assert_eq!(stats.rate_evals, 0);
    }

    #[test]
    fn events_fire_with_generous_quantum() {
        let (mut lat, model) = setup();
        // A vacancy deep inside sector (0,0,0): cells [2,6) → pick (3,3,3).
        let v = lat.grid.site_id(3, 3, 3, 0);
        lat.set_state(v, SiteState::Vacancy);
        let mut rng = StdRng::seed_from_u64(2);
        let mut stats = RateStats::default();
        // Reference rate ≈ 3e7/s ⇒ dt of 1e-5 s guarantees many hops.
        let out = run_sector(&mut lat, &model, [0, 0, 0], 1.0e-5, &mut rng, &mut stats);
        // The vacancy random-walks until it leaves the sector, so at
        // least one hop must fire with this generous quantum.
        assert!(out.events >= 1, "events = {}", out.events);
        assert_eq!(out.dirty.len() as u64, 2 * out.events);
        // Exactly one vacancy still exists (it moved around).
        assert_eq!(
            lat.state
                .iter()
                .filter(|&&s| s == SiteState::Vacancy)
                .count(),
            1
        );
    }

    #[test]
    fn tiny_quantum_blocks_events() {
        let (mut lat, model) = setup();
        let v = lat.grid.site_id(3, 3, 3, 0);
        lat.set_state(v, SiteState::Vacancy);
        let mut rng = StdRng::seed_from_u64(3);
        let mut stats = RateStats::default();
        let out = run_sector(&mut lat, &model, [0, 0, 0], 1.0e-12, &mut rng, &mut stats);
        assert_eq!(out.events, 0, "quantum far below 1/rate");
    }

    #[test]
    fn vacancy_outside_sector_is_inactive() {
        let (mut lat, model) = setup();
        let v = lat.grid.site_id(7, 7, 7, 0); // sector (1,1,1)
        lat.set_state(v, SiteState::Vacancy);
        let mut rng = StdRng::seed_from_u64(4);
        let mut stats = RateStats::default();
        let out = run_sector(&mut lat, &model, [0, 0, 0], 1.0, &mut rng, &mut stats);
        assert_eq!(out.events, 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = || {
            let (mut lat, model) = setup();
            lat.seed_vacancies(5, 99);
            let mut rng = StdRng::seed_from_u64(5);
            let mut stats = RateStats::default();
            let out = run_sector(&mut lat, &model, [0, 0, 0], 3.0e-8, &mut rng, &mut stats);
            (out.events, out.dirty, lat.state)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    /// A periodic box with filled ghosts, built for the oracle cases.
    fn oracle_box(cells: usize, rate_cutoff: f64) -> (KmcLattice, EnergyModel, KmcConfig) {
        let cfg = KmcConfig {
            table_knots: 800,
            rate_cutoff,
            ..Default::default()
        };
        let ghost = crate::lattice::required_ghost(cfg.a0, rate_cutoff);
        let grid = LocalGrid::whole(BccGeometry::fe_cube(cells), ghost);
        let lat = KmcLattice::all_fe(grid, rate_cutoff);
        let model = EnergyModel::new(&cfg, &lat);
        (lat, model, cfg)
    }

    #[test]
    fn shaped_rates_equal_the_oracle() {
        use crate::comm::LoopbackK;
        use crate::exchange::full_exchange;

        // Vacancies with a vacancy partner, with Fe and at least two Cu
        // partners (both after-memo species keys, one of them reused),
        // and with a partner in the ghost shell.
        let mut met = [0usize; 3];
        for (case, (rate_cutoff, cu, vac)) in
            [(3.0, 0.0, 0.05), (3.0, 0.3, 0.05), (5.0, 0.25, 0.03)]
                .into_iter()
                .enumerate()
        {
            let (mut lat, model, _) = oracle_box(8, rate_cutoff);
            let owned = lat.n_owned() as f64;
            lat.seed_vacancies((vac * owned).round() as usize, 500 + case as u64);
            lat.seed_solutes_global((cu * owned).round() as usize, 600 + case as u64);
            let (g, hi) = (lat.grid.ghost, lat.grid.ghost + lat.grid.len[0] - 1);
            lat.set_vacancies(&[
                lat.grid.site_id(g, g, g, 0),
                lat.grid.site_id(hi, hi, hi, 1),
                lat.grid.site_id(g, hi, g, 1),
            ]);
            full_exchange(&mut lat, &mut LoopbackK);

            let vacancies: Vec<usize> = lat.vacancies().collect();
            let mut events = Vec::new();
            for v in vacancies {
                let mut stats = RateStats::default();
                evaluate(&mut lat, &model, v, &mut events, &mut stats);
                let got: Vec<(usize, u64)> =
                    events.iter().map(|&(n, k)| (n, k.to_bits())).collect();
                let partners: Vec<usize> = lat.nn1(v).collect();
                let mut want_stats = RateStats::default();
                let mut want = Vec::new();
                for &n in &partners {
                    if lat.state[n].is_atom() {
                        let k = model.rate(&mut lat, v, n, &mut want_stats);
                        want.push((n, k.to_bits()));
                    }
                }
                assert_eq!(got, want, "cutoff {rate_cutoff}, vacancy {v}");
                assert_eq!(
                    (stats.rate_evals, stats.site_evals),
                    (want_stats.rate_evals, want_stats.site_evals),
                    "modelled counts"
                );
                assert!(stats.host_site_evals < stats.site_evals || stats.rate_evals == 0);

                let count =
                    |st: SiteState| partners.iter().filter(|&&n| lat.state[n] == st).count();
                met[0] += (count(SiteState::Vacancy) > 0) as usize;
                met[1] += (count(SiteState::Cu) >= 2 && count(SiteState::Fe) > 0) as usize;
                met[2] += partners.iter().any(|&n| !lat.is_owned(n)) as usize;
            }
        }
        assert!(met.iter().all(|&m| m > 0), "uncovered situation: {met:?}");
    }

    /// Which of the situations the issue names a run actually met.
    #[derive(Debug, Default)]
    struct Coverage {
        events: u64,
        ghost_partner: bool,
        left_sector: bool,
        arrived_beside_active: bool,
    }

    /// Runs the catalogue path and the reference from the same lattice
    /// and RNG state, asserts they agree on everything observable, and
    /// leaves `lat`/`rng` advanced. Returns (catalogue, reference) rate
    /// evaluations.
    fn assert_paths_agree(
        lat: &mut KmcLattice,
        model: &EnergyModel,
        sec: [usize; 3],
        dt: f64,
        rng: &mut StdRng,
        cov: &mut Coverage,
    ) -> (u64, u64) {
        let before = lat.clone();
        let mut ref_lat = lat.clone();
        let mut ref_rng = rng.clone();
        let (mut stats, mut ref_stats) = (RateStats::default(), RateStats::default());
        let out = run_sector(lat, model, sec, dt, rng, &mut stats);
        let want = run_sector_reference(&mut ref_lat, model, sec, dt, &mut ref_rng, &mut ref_stats);
        assert_eq!(out.events, want.events, "events, sector {sec:?}");
        assert_eq!(out.dirty, want.dirty, "dirty, sector {sec:?}");
        assert_eq!(lat.state, ref_lat.state, "state, sector {sec:?}");
        assert_eq!(
            lat.vacancies().collect::<Vec<_>>(),
            ref_lat.vacancies().collect::<Vec<_>>()
        );
        assert_eq!(rng.random::<u64>(), ref_rng.random::<u64>(), "next draw");
        assert!(
            stats.rate_evals <= ref_stats.rate_evals && stats.site_evals <= ref_stats.site_evals,
            "catalogue evaluated more than the reference: {stats:?} vs {ref_stats:?}"
        );

        // Replay the hops on the entry state to see what they exercised.
        let mut replay = before;
        cov.events += out.events;
        cov.ghost_partner |= replay
            .vacancies()
            .filter(|&v| in_sector(&replay, v, sec))
            .any(|v| replay.nn1(v).any(|n| !replay.is_owned(n)));
        for hop in out.dirty.chunks(2) {
            let (v, n) = (hop[0], hop[1]);
            let atom = replay.state[n];
            replay.set_state(v, atom);
            replay.set_state(n, SiteState::Vacancy);
            if in_sector(&replay, n, sec) {
                cov.arrived_beside_active |= replay
                    .neighbors(n)
                    .any(|x| replay.state[x] == SiteState::Vacancy && in_sector(&replay, x, sec));
            } else {
                cov.left_sector = true;
            }
        }
        (stats.rate_evals, ref_stats.rate_evals)
    }

    #[test]
    fn catalogue_matches_full_recompute() {
        use crate::comm::LoopbackK;
        use crate::exchange::full_exchange;

        let mut params = StdRng::seed_from_u64(0xCA7A_1060);
        let mut cov = Coverage::default();
        for case in 0..12u64 {
            let (mut lat, model, cfg) = oracle_box(10, 3.0);
            // Vacancy fractions 1e-3 … 5e-2, log-uniform; the ends pinned.
            let fraction = match case {
                0 => 1e-3,
                1 => 5e-2,
                _ => 1e-3 * 50f64.powf(params.random::<f64>()),
            };
            let n_vac = ((fraction * lat.n_owned() as f64).round() as usize).max(1);
            lat.seed_vacancies(n_vac, 100 + case);
            if case % 2 == 1 {
                lat.seed_solutes_global(lat.n_owned() / 50, 200 + case);
            }
            // Bound clusters: a 1NN pair in sector 0, and a 2NN pair
            // (one cell apart, same basis) straddling the sector 0 / 1
            // boundary at the edge of the box, ghost partners included.
            let g = lat.grid.ghost;
            let a = lat.grid.site_id(g + 2, g + 2, g + 2, 0);
            let a_nn1 = lat.nn1(a).next().expect("8 first neighbours");
            let b = lat.grid.site_id(g + 4, g, g, 0);
            let b_nn2 = lat.grid.site_id(g + 5, g, g, 0);
            lat.set_vacancies(&[a, a_nn1, b, b_nn2]);
            full_exchange(&mut lat, &mut LoopbackK);

            let dt = 3.0 / cfg.reference_rate();
            let mut rng = StdRng::seed_from_u64(300 + case);
            for _sweep in 0..2 {
                for sec in sectors() {
                    assert_paths_agree(&mut lat, &model, sec, dt, &mut rng, &mut cov);
                    // Vacancies that left through a face come back as
                    // ghost (and owned-image) vacancies next sector.
                    full_exchange(&mut lat, &mut LoopbackK);
                }
            }
        }
        assert!(cov.events > 500, "{cov:?}");
        assert!(
            cov.ghost_partner && cov.left_sector && cov.arrived_beside_active,
            "the seeded cases must meet every situation: {cov:?}"
        );
    }

    #[test]
    fn separated_vacancies_are_not_recomputed() {
        // Sector 0 of a 16-cell box spans 8 cells; its two corner
        // vacancies are 7 cells apart, beyond three reaches (3 cells)
        // plus a hop, so a hop of one never touches the other's rates.
        let (mut lat, model, cfg) = oracle_box(16, 3.0);
        let g = lat.grid.ghost;
        let far = lat.grid.site_id(g + 7, g + 7, g + 7, 0);
        lat.set_vacancies(&[lat.grid.site_id(g, g, g, 0), far]);
        let mut cov = Coverage::default();
        let mut rng = StdRng::seed_from_u64(11);
        let dt = 1.0 / cfg.reference_rate();
        let (cat, reference) =
            assert_paths_agree(&mut lat, &model, [0, 0, 0], dt, &mut rng, &mut cov);
        assert!(
            cov.events >= 1,
            "a hop must fire for the comparison to bite"
        );
        assert!(cat < reference, "{cat} rate evaluations vs {reference}");
    }

    #[test]
    fn invalidation_reach_follows_the_rate_cutoff() {
        // A 5 Å cutoff reaches two cells per neighbour step, and rates
        // then read sites four cells away: a basis-1 vacancy at cell c
        // reads the basis-0 site at c + (4, 1, 1) through 1NN → 4NN →
        // 4NN. A radius fixed at the default cutoff's three cells
        // leaves that rate stale.
        let (mut lat, model, cfg) = oracle_box(16, 5.0);
        assert_eq!(lat.offsets.max_cell_reach(), 2);
        let g = lat.grid.ghost;
        let reader = lat.grid.site_id(g + 1, g + 1, g + 1, 1);
        let mover = lat.grid.site_id(g + 5, g + 2, g + 2, 0);
        lat.set_vacancies(&[reader, mover]);
        lat.seed_vacancies(12, 5);
        let mut cov = Coverage::default();
        let mut rng = StdRng::seed_from_u64(12);
        let dt = 2.0 / cfg.reference_rate();
        for sec in sectors() {
            assert_paths_agree(&mut lat, &model, sec, dt, &mut rng, &mut cov);
        }
        assert!(cov.events >= 8, "{cov:?}");
    }

    #[test]
    fn footprint_covers_every_read() {
        // Rates at the centre of a 10-cell box read no ghost, so every
        // site of the catalogue's Chebyshev cube is an owned site.
        let (mut lat, model, cfg) = oracle_box(10, 3.0);
        let rates = |lat: &mut KmcLattice, model: &EnergyModel, v: usize| {
            let (mut events, mut stats) = (Vec::new(), RateStats::default());
            compute_rates(lat, model, v, &mut events, &mut stats);
            events
                .iter()
                .map(|&(n, k)| (n, k.to_bits()))
                .collect::<Vec<_>>()
        };
        // Evaluates through the cache; returns the bits and whether the
        // host computed anything (a miss).
        let cached = |lat: &mut KmcLattice, model: &EnergyModel, v: usize| {
            let (mut events, mut stats) = (Vec::new(), RateStats::default());
            evaluate(lat, model, v, &mut events, &mut stats);
            let bits: Vec<_> = events.iter().map(|&(n, k)| (n, k.to_bits())).collect();
            (bits, stats.host_site_evals > 0)
        };
        let reach = 3 * lat.offsets.max_cell_reach();
        let c = lat.grid.ghost + 5;
        for b in 0..2 {
            let v = lat.grid.site_id(c, c, c, b);
            lat.set_state(v, SiteState::Vacancy);
            // One Cu partner and one vacancy partner, so the rates depend
            // on the species of what they read.
            let partners: Vec<usize> = lat.nn1(v).collect();
            lat.set_state(partners[2], SiteState::Cu);
            lat.set_state(partners[5], SiteState::Vacancy);
            let footprint: Vec<usize> = lat.patches[b]
                .footprint
                .iter()
                .map(|&d| (v as isize + d) as usize)
                .collect();
            let cell = cell_of(&lat, v);
            let cube: Vec<usize> = (0..lat.n_sites())
                .filter(|&s| {
                    let x = cell_of(&lat, s);
                    (0..3).all(|ax| x[ax].abs_diff(cell[ax]) <= reach)
                })
                .collect();
            assert_eq!((footprint.len(), cube.len()), (169, 686), "basis {b}");
            assert!(footprint.iter().all(|s| cube.binary_search(s).is_ok()));

            let want = rates(&mut lat, &model, v);
            for &s in cube.iter().filter(|s| footprint.binary_search(s).is_err()) {
                let was = lat.state[s];
                for flipped in [SiteState::Cu, SiteState::Vacancy] {
                    lat.set_state(s, flipped);
                    assert_eq!(rates(&mut lat, &model, v), want, "basis {b}, site {s}");
                    lat.set_state(s, was);
                }
            }

            lat.rate_cache.bind(&model);
            assert!(cached(&mut lat, &model, v).1, "a cold cache computes");
            assert_eq!(cached(&mut lat, &model, v), (want.clone(), false));
            for &s in footprint.iter().filter(|&&s| s != v) {
                let was = lat.state[s];
                for flipped in [SiteState::Fe, SiteState::Cu, SiteState::Vacancy] {
                    if flipped == was {
                        continue;
                    }
                    lat.set_state(s, flipped);
                    let now = rates(&mut lat, &model, v);
                    assert_eq!(cached(&mut lat, &model, v), (now, true), "site {s}");
                    lat.set_state(s, was);
                    assert_eq!(cached(&mut lat, &model, v), (want.clone(), true));
                }
            }
            assert_eq!(cached(&mut lat, &model, v), (want.clone(), false));
            lat.rate_cache.release();
            assert!(cached(&mut lat, &model, v).1, "a released cache computes");

            // Another model on the same lattice never reads these rates.
            let other_cfg = KmcConfig {
                table_knots: 600,
                ..cfg
            };
            let other = EnergyModel::new(&other_cfg, &lat);
            let other_want = rates(&mut lat, &other, v);
            assert_ne!(other_want, want, "the models must differ for this to bite");
            lat.rate_cache.bind(&other);
            assert_eq!(cached(&mut lat, &other, v), (other_want.clone(), true));
            assert_eq!(cached(&mut lat, &other, v), (other_want, false));
            lat.rate_cache.release();
            lat.rate_cache.bind(&model);
            assert_eq!(cached(&mut lat, &model, v), (want, true));
            lat.rate_cache.release();
        }
    }
}
