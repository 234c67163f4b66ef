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
//! between sector entries. Its storage does not: the lattice keeps the
//! entries and their event lists from sector to sector, so a sector
//! allocates nothing once the lattice has held as many active vacancies.
//! The recompute-everything loop is kept under `#[cfg(test)]` as the
//! bitwise oracle.
//!
//! # The rate cache
//!
//! A vacancy's rates read only its basis and the states of its
//! *footprint* — every site a rate of that vacancy reads, the union of
//! the basis's 8 patches and their cutoff neighbours
//! (`PatchShapes::footprint`), 169 sites at 3 Å — never where it sits:
//! patches are flat-index deltas and every sum runs in ascending delta.
//! So what outlives the sector is one table of rates by local
//! environment, the lattice's `RateCache`, and a vacancy that moves
//! into an environment any vacancy has met before computes nothing.
//! `evaluate` answers from it the rates, the `rate_evals` and the
//! `site_evals` that environment's evaluation charged, so the
//! catalogue's invalidation rule, `RateStats::{rate_evals, site_evals}`,
//! virtual time, every RNG draw and every trajectory bit stay what they
//! were, and only `host_site_evals` falls. A key is read from the
//! states, never from hooked writes, so ghost rewrites, full-ghost slabs
//! and checkpoint restores need to tell the table nothing.
//!
//! * **Key.** The footprint's states, 2 bits per site in footprint
//!   order, then the basis bit: 6 words at 3 Å; its length follows the
//!   footprint, so a wider cutoff has a longer key. The footprint is
//!   precomputed as runs of consecutive flat deltas (`FootprintRun`, 46
//!   runs of at most 8 sites at 3 Å), so a key costs one 8-byte load of
//!   the states per run, masked to the run's sites and packed at 2 bits
//!   per site, not one load per site. A state outside the footprint is
//!   masked off, so it never reaches the key.
//! * **Entry.** One rate per atom partner in `nn1` order, and the two
//!   modelled charges. The partners' states are part of the key, so the
//!   basis's `nn1` deltas, filtered to atoms, rebuild `(v + δ, rate)`.
//! * **Table.** `RATE_TABLE_CAPACITY` entries in sets of
//!   `RATE_TABLE_WAYS`; a fixed multiply-xorshift of the key names the
//!   set, so nothing iterates or seeds a hash container and the host
//!   counters (`kmc.rate.table_hits`, `kmc.rate.table_misses`) repeat
//!   from run to run. Entry storage is reserved once and written on
//!   demand.
//! * **Eviction.** A set keeps its entries most recently used first; a
//!   store into a full set replaces the least recently used one. Hits
//!   and evictions decide only what the host recomputes: a hit returns
//!   the bits a recompute would.
//! * **One model.** `run_sector` binds the table to its model for the
//!   call and releases it on return; outside a bound call the table
//!   answers nothing. Binding compares every number the rates read
//!   from the model, bit for bit, with the entries' model, and drops
//!   every entry if one differs. The table's shell memo (below) is
//!   bound and dropped with it.
//!
//! # One vacancy's rates
//!
//! `compute_rates` computes a vacancy's rates on the lattice's precomputed
//! patch shapes (DESIGN §6.19), and writes no state. Every site energy is
//! computed at most once per call, and every shell is walked at most once:
//!
//! * **Before.** A patch site's pre-swap energy is memoised by
//!   patch-union slot. Its walk records the shell: the non-Fe count, the
//!   shell table key and the full shell code (`model::Shell`). The
//!   vacancy's own shell is walked too, though its energy is 0: it holds
//!   the atom after the swap.
//! * **After.** A patch site knows the offsets in its own shell at which
//!   the vacancy and the partner sit (`PatchSite::{v_at, n_at}`). Its
//!   post-swap energy is its recorded shell with those two codes changed,
//!   not a re-walk of a swapped lattice. An energy that depends only on
//!   which species moved onto the vacancy is memoised by (slot, species).
//! * **Energy of a shell.** A shell with at most one non-Fe neighbour is
//!   an entry of the model's shell tables (0.76 of the host's energies on
//!   `kmc_dense`). Any other shell is looked up in the rate table's
//!   shell memo by (species, basis, shell code), a bounded
//!   set-associative table that computes a miss through the one shell
//!   sum. Tables and memo both hold that sum's own results, so neither
//!   moves a bit; the host counts table answers (`kmc.rate.shell_hits`)
//!   and memo hits and misses (`kmc.rate.shell_memo_hits`,
//!   `kmc.rate.shell_memo_misses`) apart, outside `RateStats`.
//!
//! Both sums still run over each patch in ascending site id, so every
//! rate has the bits of the `#[cfg(test)]` oracle `EnergyModel::rate`,
//! and `RateStats::{rate_evals, site_evals}` are charged exactly what the
//! oracle charges; `host_site_evals` counts the energies computed.

use rand::Rng;

use crate::lattice::{FootprintRun, KmcLattice, PatchShapes, PatchSite, SiteState};
use crate::model::{EnergyModel, RateStats, Shell, ShellMemo};

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
#[derive(Debug, Clone, Default)]
struct Entry {
    /// The vacancy's site id.
    v: usize,
    /// Its local cell, for the invalidation distance.
    cell: [usize; 3],
    /// `(partner, rate)` per atom 1NN partner, in `nn1` order.
    events: Vec<(usize, f64)>,
}

/// The sector's events: entries in ascending `v`. The lattice keeps it
/// from sector to sector, so entries and their event lists are reused.
#[derive(Debug, Clone, Default)]
pub(crate) struct Catalogue {
    entries: Vec<Entry>,
    /// Entries of no active vacancy, kept with their event storage.
    spare: Vec<Entry>,
    /// Cells (Chebyshev) within which a swapped site can change a
    /// vacancy's rates: three neighbour reaches, as `required_ghost`.
    reach: usize,
}

fn cell_of(lat: &KmcLattice, s: usize) -> [usize; 3] {
    let (i, j, k, _) = lat.grid.decode(s);
    [i, j, k]
}

/// Site energies and shells memoised over one vacancy's rate
/// evaluations, by [`PatchSite::slot`]. Valid only while the occupancies
/// stay as they were when it was [`reset`](Self::reset).
#[derive(Debug, Clone, Default)]
pub(crate) struct RateMemo {
    /// Pre-swap energies.
    before: Vec<Option<f64>>,
    /// The shells the pre-swap pass walked: of every atom slot whose
    /// `before` energy is known, and of the vacancy's own slot.
    shells: Vec<Shell>,
    /// Post-swap energies of `shared_after` sites, per species that
    /// moved onto the vacancy (Fe, Cu).
    after: Vec<[Option<f64>; 2]>,
    /// Site energies the model's shell tables answered, ever: host
    /// telemetry, never reset.
    shell_hits: u64,
}

impl RateMemo {
    /// Forgets every energy and sizes the memo for `slots` sites.
    fn reset(&mut self, slots: usize) {
        self.before.clear();
        self.before.resize(slots, None);
        // Every shell is written by the walk before it is read.
        self.shells.resize(slots, Shell::default());
        self.after.clear();
        self.after.resize(slots, [None; 2]);
    }

    /// Site energies the model's shell tables have answered so far.
    pub(crate) fn shell_hits(&self) -> u64 {
        self.shell_hits
    }
}

/// Most environments the rate table holds (see the module doc), 128 B
/// each at 3 Å. On `kmc_dense` (2 269 distinct environments over a
/// repetition) 512 entries compute 3 477 evaluations, 1 024 compute
/// 2 592 and 2 048 compute 2 339; beyond 1 024 the wall time no longer
/// falls, and the peak resident set rises above the per-site cache's.
pub(crate) const RATE_TABLE_CAPACITY: usize = 1024;

/// Entries per set of the rate table.
const RATE_TABLE_WAYS: usize = 4;

/// Rates by local environment that outlive the sector (see the module
/// doc): a set-associative table keyed by a vacancy's basis and the
/// states of its footprint, and the memo of the site energies of shells
/// with two or more non-Fe neighbours, bound to one model together.
#[derive(Debug, Clone)]
pub(crate) struct RateCache {
    /// `ways` slots per set, most recently used first: an entry's index
    /// plus one, 0 for an empty slot. Allocated by the first store.
    slots: Vec<u32>,
    /// Sets of the full table, a power of two.
    sets: usize,
    /// Slots per set.
    ways: usize,
    /// Key words per entry: 2 bits per footprint site, then the basis.
    words: usize,
    /// Per basis, the key bit that holds the basis: two per footprint
    /// site.
    basis_bit: [usize; 2],
    /// Rates per entry: the longest `nn1` list.
    stride: usize,
    /// Entry keys, `words` each.
    keys: Vec<u64>,
    /// Entry rates, `stride` each: one per atom partner, in `nn1` order.
    rates: Vec<f64>,
    /// Entry charges: the modelled `(rate_evals, site_evals)`.
    charged: Vec<(u64, u64)>,
    /// The key of the vacancy being evaluated.
    key: Vec<u64>,
    /// The model every entry was computed with.
    model: ModelBits,
    /// Address of the model of the `run_sector` call in progress.
    bound: Option<usize>,
    /// Evaluations answered from the table, ever: host telemetry, never
    /// reset.
    hits: u64,
    /// Evaluations computed while the table was bound, ever: likewise.
    misses: u64,
    /// Site energies of shells the model's shell tables do not hold,
    /// under the entries' model.
    pub(crate) shells: ShellMemo,
    /// Tests: bind never, so every evaluation computes.
    #[cfg(test)]
    pub(crate) bypass: bool,
}

/// The states of the 8 sites from `at`, one byte each, site `at` in the
/// lowest byte; sites past the end of the lattice read as 0.
#[inline]
fn load_states(state: &[SiteState], at: usize) -> u64 {
    match state.get(at..at + FootprintRun::MAX_LEN) {
        Some(w) => {
            let w: [SiteState; FootprintRun::MAX_LEN] = w.try_into().expect("8 sites");
            u64::from_le_bytes(w.map(|s| s as u8))
        }
        None => state[at..].iter().rev().fold(0, |w, &s| w << 8 | s as u64),
    }
}

/// The 2-bit codes of the one-byte states in `w` (each at most 2), in
/// site order: 8 bytes packed into 16 bits.
#[inline]
fn pack_codes(w: u64) -> u64 {
    let w = (w | w >> 6) & 0x000F_000F_000F_000F;
    let w = (w | w >> 12) & 0x0000_00FF_0000_00FF;
    (w | w >> 24) & 0xFFFF
}

impl RateCache {
    /// An empty table for vacancies with these patch shapes and `nn1`
    /// lists.
    pub(crate) fn new(patches: &[PatchShapes; 2], nn1: &[Vec<isize>; 2]) -> Self {
        Self::with_shape(
            patches,
            nn1,
            RATE_TABLE_CAPACITY / RATE_TABLE_WAYS,
            RATE_TABLE_WAYS,
        )
    }

    fn with_shape(
        patches: &[PatchShapes; 2],
        nn1: &[Vec<isize>; 2],
        sets: usize,
        ways: usize,
    ) -> Self {
        assert!(sets.is_power_of_two() && ways > 0);
        let footprint = patches.iter().map(|p| p.footprint.len()).max().unwrap_or(0);
        Self {
            slots: Vec::new(),
            sets,
            ways,
            words: (2 * footprint + 1).div_ceil(64),
            basis_bit: [0, 1].map(|b| 2 * patches[b].footprint.len()),
            stride: nn1.iter().map(Vec::len).max().unwrap_or(0),
            keys: Vec::new(),
            rates: Vec::new(),
            charged: Vec::new(),
            key: Vec::new(),
            model: ModelBits::default(),
            bound: None,
            hits: 0,
            misses: 0,
            shells: ShellMemo::default(),
            #[cfg(test)]
            bypass: false,
        }
    }

    /// Tests: a table of one entry, so every other environment evicts.
    #[cfg(test)]
    pub(crate) fn one_slot(patches: &[PatchShapes; 2], nn1: &[Vec<isize>; 2]) -> Self {
        Self::with_shape(patches, nn1, 1, 1)
    }

    /// Serves `model` until [`release`](Self::release); forgets every
    /// entry, and every memoised shell, if `model`'s numbers differ from
    /// the entries' model's.
    // mmds: nondeterministic_ok — the model's address is compared only
    // with itself, to tell the bound model from another during one
    // borrow; it never reaches a rate, a key or a counter.
    pub(crate) fn bind(&mut self, model: &EnergyModel) {
        #[cfg(test)]
        if self.bypass {
            return;
        }
        if !self.model.matches(model) {
            self.slots.fill(0);
            self.keys.clear();
            self.rates.clear();
            self.charged.clear();
            self.shells.clear();
            self.model = ModelBits::of(model);
        }
        self.bound = Some(model as *const EnergyModel as usize);
    }

    /// Ends a binding: the model may change once the borrow ends.
    pub(crate) fn release(&mut self) {
        self.bound = None;
    }

    // mmds: nondeterministic_ok — as in `bind`.
    fn serves(&self, model: &EnergyModel) -> bool {
        self.bound == Some(model as *const EnergyModel as usize)
    }

    /// The shell memo, while the table serves `model`.
    fn shell_memo(&mut self, model: &EnergyModel) -> Option<&mut ShellMemo> {
        self.serves(model).then_some(&mut self.shells)
    }

    /// Evaluations answered from the table so far.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Evaluations computed while the table was bound so far.
    pub(crate) fn misses(&self) -> u64 {
        self.misses
    }

    /// Packs the key of the basis-`b` vacancy at `v`, whose footprint runs
    /// are `runs`, into `self.key`: one 8-site load per run.
    fn load_key(&mut self, b: usize, v: usize, runs: &[FootprintRun], state: &[SiteState]) {
        self.key.clear();
        self.key.resize(self.words, 0);
        for run in runs {
            let at = (v as isize + run.start) as usize;
            let codes = pack_codes(load_states(state, at) & run.mask);
            self.key[run.word] |= codes << run.shift;
            if run.spill {
                self.key[run.word + 1] |= codes >> (64 - run.shift);
            }
        }
        let end = self.basis_bit[b];
        self.key[end / 64] |= (b as u64) << (end % 64);
    }

    /// The set `self.key` hashes to: a fixed multiply-xorshift, so the
    /// table's contents, and its counters, repeat from run to run.
    fn set_of_key(&self) -> usize {
        let mut h = 0u64;
        for &w in &self.key {
            h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 29;
        }
        (h ^ (h >> 32)) as usize & (self.sets - 1)
    }

    /// The events and charges of the environment of the basis-`b`
    /// vacancy at `v`, its events into `events`, if the table holds it;
    /// else `None`, with its key loaded for [`store`](Self::store).
    fn answer(
        &mut self,
        b: usize,
        v: usize,
        runs: &[FootprintRun],
        nn1: &[isize],
        state: &[SiteState],
        events: &mut Vec<(usize, f64)>,
    ) -> Option<(u64, u64)> {
        self.load_key(b, v, runs, state);
        let Some(e) = self.lookup() else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        let mut rates = self.rates[e * self.stride..(e + 1) * self.stride].iter();
        events.clear();
        for &d in nn1 {
            let n = (v as isize + d) as usize;
            if state[n].is_atom() {
                let k = rates.next().expect("the key holds the partners' states");
                events.push((n, *k));
            }
        }
        Some(self.charged[e])
    }

    /// The entry holding `self.key`, made the most recently used of its
    /// set.
    fn lookup(&mut self) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let set = self.set_of_key() * self.ways;
        let (words, key, keys) = (self.words, &self.key, &self.keys);
        let slots = &mut self.slots[set..set + self.ways];
        let way = slots.iter().position(|&slot| {
            let e = slot as usize;
            e != 0 && keys[(e - 1) * words..e * words] == key[..]
        })?;
        slots[..=way].rotate_right(1);
        Some(slots[0] as usize - 1)
    }

    /// Records `events` and `charged` under `self.key`, in place of the
    /// least recently used entry of its set if the set is full.
    fn store(&mut self, events: &[(usize, f64)], charged: (u64, u64)) {
        if self.slots.is_empty() {
            let capacity = self.sets * self.ways;
            self.slots.resize(capacity, 0);
            // Reserved once, so no entry is ever moved; the pages are
            // touched only as entries arrive.
            self.keys.reserve_exact(capacity * self.words);
            self.rates.reserve_exact(capacity * self.stride);
            self.charged.reserve_exact(capacity);
        }
        let set = self.set_of_key() * self.ways;
        let slots = &mut self.slots[set..set + self.ways];
        let e = match slots[self.ways - 1] {
            0 => {
                self.keys.resize(self.keys.len() + self.words, 0);
                self.rates.resize(self.rates.len() + self.stride, 0.0);
                self.charged.push((0, 0));
                self.charged.len() - 1
            }
            victim => victim as usize - 1,
        };
        slots.rotate_right(1);
        slots[0] = e as u32 + 1;
        self.keys[e * self.words..(e + 1) * self.words].copy_from_slice(&self.key);
        let rates = &mut self.rates[e * self.stride..(e + 1) * self.stride];
        debug_assert!(events.len() <= rates.len());
        for (slot, &(_, k)) in rates.iter_mut().zip(events) {
            *slot = k;
        }
        self.charged[e] = charged;
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

/// The events of the vacancy at `v`, into `events`: from the rate table
/// if it holds `v`'s environment, else computed and stored there.
/// Charges `stats` the modelled counts either way.
fn evaluate(
    lat: &mut KmcLattice,
    model: &EnergyModel,
    v: usize,
    events: &mut Vec<(usize, f64)>,
    stats: &mut RateStats,
) {
    let b = v & 1;
    let table = &mut lat.rate_cache;
    let bound = table.serves(model);
    if bound {
        if let Some((rate_evals, site_evals)) = table.answer(
            b,
            v,
            &lat.patches[b].runs,
            &lat.nn1_deltas[b],
            &lat.state,
            events,
        ) {
            stats.rate_evals += rate_evals;
            stats.site_evals += site_evals;
            return;
        }
    }
    let before = *stats;
    compute_rates(lat, model, v, events, stats);
    if bound {
        let charged = (
            stats.rate_evals - before.rate_evals,
            stats.site_evals - before.site_evals,
        );
        lat.rate_cache.store(events, charged);
    }
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
    let KmcLattice {
        state,
        deltas,
        nn1_deltas,
        patches,
        memo,
        rate_cache,
        ..
    } = lat;
    let state: &[SiteState] = state;
    memo.reset(patches[b].union_len);
    let mut vacancy = Vacancy {
        model,
        state,
        deltas,
        v,
        memo,
        shells: rate_cache.shell_memo(model),
        host: 0,
    };
    for (dir, &dn) in nn1_deltas[b].iter().enumerate() {
        let n = (v as isize + dn) as usize;
        if state[n].is_atom() {
            events.push((n, vacancy.rate(&patches[b].dirs[dir], n, stats)));
        }
    }
    stats.host_site_evals += vacancy.host;
}

/// One vacancy's rate evaluation: what its site energies read, and the
/// memos they fill.
struct Vacancy<'a> {
    model: &'a EnergyModel,
    state: &'a [SiteState],
    deltas: &'a [Vec<isize>; 2],
    /// The vacancy's site id.
    v: usize,
    /// Reset for this vacancy.
    memo: &'a mut RateMemo,
    /// The rate table's shell memo, while the table serves `model`.
    shells: Option<&'a mut ShellMemo>,
    /// Site energies computed.
    host: u64,
}

impl Vacancy<'_> {
    /// The rate of swapping the vacancy with the atom at `n`, whose
    /// patch is `patch`.
    fn rate(&mut self, patch: &[PatchSite], n: usize, stats: &mut RateStats) -> f64 {
        stats.rate_evals += 1;
        stats.site_evals += 2 * patch.len() as u64;
        let before: f64 = patch.iter().map(|p| self.before(p)).sum();
        let atom = self.state[n];
        let after: f64 = patch.iter().map(|p| self.after(p, n, atom)).sum();
        self.model.rate_of(after - before)
    }

    /// The pre-swap energy of patch site `p`. The first call per slot
    /// walks the site's shell and records it for the after energies; a
    /// vacancy other than `v` has energy 0 before and after, and is not
    /// walked.
    fn before(&mut self, p: &PatchSite) -> f64 {
        if let Some(e) = self.memo.before[p.slot] {
            return e;
        }
        self.host += 1;
        let s = (self.v as isize + p.delta) as usize;
        let me = self.state[s];
        let mut e = 0.0;
        if me.is_atom() || p.delta == 0 {
            let shell = Shell::walk(self.state, &self.deltas[s & 1], s);
            self.memo.shells[p.slot] = shell;
            if me.is_atom() {
                e = self.energy(me, s & 1, &shell);
            }
        }
        self.memo.before[p.slot] = Some(e);
        e
    }

    /// The energy of patch site `p` once the vacancy and the `atom` at `n`
    /// have swapped: its recorded shell with the codes at the vacancy's
    /// and the partner's offsets changed (`v` itself holds `atom`, `n` a
    /// vacancy).
    fn after(&mut self, p: &PatchSite, n: usize, atom: SiteState) -> f64 {
        let species = atom as usize;
        if p.shared_after {
            if let Some(e) = self.memo.after[p.slot][species] {
                return e;
            }
        }
        self.host += 1;
        let s = (self.v as isize + p.delta) as usize;
        let me = if p.delta == 0 { atom } else { self.state[s] };
        let mut e = 0.0;
        if s != n && me.is_atom() {
            let shell = self.memo.shells[p.slot]
                .replace(p.v_at, SiteState::Vacancy, atom)
                .replace(p.n_at, atom, SiteState::Vacancy);
            e = self.energy(me, s & 1, &shell);
        }
        if p.shared_after {
            self.memo.after[p.slot][species] = Some(e);
        }
        e
    }

    /// The energy of a `me` atom on basis `b` with shell `shell`.
    fn energy(&mut self, me: SiteState, b: usize, shell: &Shell) -> f64 {
        let (e, hit) = self
            .model
            .site_energy_with(me, b, shell, self.shells.as_deref_mut());
        self.memo.shell_hits += hit as u64;
        e
    }
}

/// The vacancy evaluators: [`evaluate`], or the oracles' [`compute_rates`].
type Evaluator = fn(&mut KmcLattice, &EnergyModel, usize, &mut Vec<(usize, f64)>, &mut RateStats);

impl Catalogue {
    /// Enters sector `sec`: one entry per active vacancy (owned, inside
    /// the sector) in ascending site id, its events not yet evaluated.
    fn enter(&mut self, lat: &KmcLattice, sec: [usize; 3]) {
        self.spare.append(&mut self.entries);
        self.reach = 3 * lat.offsets.max_cell_reach();
        for v in lat.vacancies().filter(|&v| in_sector(lat, v, sec)) {
            let mut entry = self.spare.pop().unwrap_or_default();
            entry.v = v;
            entry.cell = cell_of(lat, v);
            self.entries.push(entry);
        }
    }

    /// Evaluates the rates of every entry, in catalogue order.
    fn evaluate_all(
        &mut self,
        lat: &mut KmcLattice,
        model: &EnergyModel,
        stats: &mut RateStats,
        eval: Evaluator,
    ) {
        for e in &mut self.entries {
            eval(lat, model, e.v, &mut e.events, stats);
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
        } else {
            self.spare.push(moved);
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
/// rates come through the lattice's rate table, bound to `model` for the
/// call.
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
    let mut cat = std::mem::take(&mut lat.catalogue);
    cat.enter(lat, sec);
    if !cat.entries.is_empty() {
        lat.rate_cache.bind(model);
    }
    cat.evaluate_all(lat, model, stats, evaluate);
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
    lat.catalogue = cat;
    out
}

#[cfg(test)]
impl Catalogue {
    /// Every unit test that runs a sector doubles as an invalidation
    /// test: the catalogue, on entry and after every hop, must equal one
    /// built from scratch without the rate table or its shell memo, bit
    /// for bit (a stale rate can leave the chosen events unchanged for a
    /// while).
    fn assert_equals_rebuild(&self, lat: &mut KmcLattice, model: &EnergyModel, sec: [usize; 3]) {
        let bound = lat.rate_cache.serves(model);
        lat.rate_cache.release();
        let mut fresh = Self::default();
        fresh.enter(lat, sec);
        fresh.evaluate_all(lat, model, &mut RateStats::default(), compute_rates);
        if bound {
            lat.rate_cache.bind(model);
        }
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
        // Evaluates through the table; returns the bits and whether the
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

            // A flip outside the footprint changes no rate, and the table
            // still answers.
            let want = rates(&mut lat, &model, v);
            lat.rate_cache.bind(&model);
            assert!(cached(&mut lat, &model, v).1, "a cold table computes");
            for &s in cube.iter().filter(|s| footprint.binary_search(s).is_err()) {
                let was = lat.state[s];
                for flipped in [SiteState::Cu, SiteState::Vacancy] {
                    lat.set_state(s, flipped);
                    assert_eq!(rates(&mut lat, &model, v), want, "basis {b}, site {s}");
                    assert_eq!(cached(&mut lat, &model, v), (want.clone(), false));
                    lat.set_state(s, was);
                }
            }

            // A flip inside it is another environment: it misses, and
            // flipping back finds the original again.
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
                    assert_eq!(
                        cached(&mut lat, &model, v),
                        (want.clone(), false),
                        "site {s}"
                    );
                }
            }
            lat.rate_cache.release();
            assert!(cached(&mut lat, &model, v).1, "a released table computes");

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

    #[test]
    fn one_environment_gives_one_answer_at_every_site() {
        use crate::comm::LoopbackK;
        use crate::exchange::full_exchange;

        // One seeded footprint configuration written around a vacancy in
        // the middle of a 16-cell box and around one at its low corner,
        // whose footprint reaches the ghost shell; the two footprints
        // (three cells each way) do not overlap.
        let (mut lat, model, _) = oracle_box(16, 3.0);
        full_exchange(&mut lat, &mut LoopbackK);
        let g = lat.grid.ghost;
        let mut draw = StdRng::seed_from_u64(0xE17);
        // The events relative to the vacancy, and the charges.
        let relative = |lat: &mut KmcLattice, v: usize, eval: Evaluator| {
            let (mut events, mut stats) = (Vec::new(), RateStats::default());
            eval(lat, &model, v, &mut events, &mut stats);
            let events: Vec<(isize, u64)> = events
                .iter()
                .map(|&(n, k)| (n as isize - v as isize, k.to_bits()))
                .collect();
            (events, stats.rate_evals, stats.site_evals)
        };
        for b in 0..2 {
            let sites = [
                lat.grid.site_id(g + 8, g + 8, g + 8, b),
                lat.grid.site_id(g, g, g, b),
            ];
            let footprint = lat.patches[b].footprint.clone();
            assert!(footprint
                .iter()
                .any(|&d| !lat.is_owned((sites[1] as isize + d) as usize)));
            for (cu, vac) in [(0.0, 0.0), (0.2, 0.0), (0.1, 0.05), (0.3, 0.1)] {
                let config: Vec<SiteState> = footprint
                    .iter()
                    .map(|&d| {
                        let u: f64 = draw.random();
                        match () {
                            _ if d == 0 || u < vac => SiteState::Vacancy,
                            _ if u < vac + cu => SiteState::Cu,
                            _ => SiteState::Fe,
                        }
                    })
                    .collect();
                for &v in &sites {
                    for (&d, &st) in footprint.iter().zip(&config) {
                        lat.set_state((v as isize + d) as usize, st);
                    }
                }
                let uncached = sites.map(|v| relative(&mut lat, v, compute_rates));
                assert_eq!(
                    uncached[0], uncached[1],
                    "basis {b}, Cu {cu}, vacancies {vac}"
                );
                lat.rate_cache.bind(&model);
                let hits = lat.rate_cache.hits();
                assert_eq!(relative(&mut lat, sites[0], evaluate), uncached[0]);
                assert_eq!(relative(&mut lat, sites[1], evaluate), uncached[1]);
                assert_eq!(lat.rate_cache.hits(), hits + 1, "the second site hits");
                lat.rate_cache.release();
            }
        }

        // The same states, footprint site by footprint site, around a
        // vacancy of the other basis are another environment: the basis
        // is part of the key.
        let footprints = [0, 1].map(|b| lat.patches[b].footprint.clone());
        let centres = footprints
            .clone()
            .map(|f| f.binary_search(&0).expect("the vacancy"));
        let config: Vec<SiteState> = (0..footprints[0].len())
            .map(|i| match draw.random::<f64>() {
                _ if centres.contains(&i) => SiteState::Vacancy,
                u if u < 0.3 => SiteState::Cu,
                _ => SiteState::Fe,
            })
            .collect();
        let sites = [
            lat.grid.site_id(g + 8, g + 8, g + 8, 0),
            lat.grid.site_id(g, g, g, 1),
        ];
        for (v, footprint) in sites.iter().zip(&footprints) {
            assert_eq!(footprint.len(), config.len());
            for (&d, &st) in footprint.iter().zip(&config) {
                lat.set_state((*v as isize + d) as usize, st);
            }
        }
        let uncached = relative(&mut lat, sites[1], compute_rates);
        lat.rate_cache.bind(&model);
        relative(&mut lat, sites[0], evaluate);
        let misses = lat.rate_cache.misses();
        assert_eq!(relative(&mut lat, sites[1], evaluate), uncached);
        assert_eq!(
            lat.rate_cache.misses(),
            misses + 1,
            "the other basis misses"
        );
        lat.rate_cache.release();
    }

    /// A box at `rate_cutoff` with Cu and vacancies seeded on every site,
    /// ghosts included, and a vacancy at its centre on each basis.
    fn seeded_box(rate_cutoff: f64, seed: u64) -> (KmcLattice, EnergyModel, [usize; 2]) {
        let (mut lat, model, _) = oracle_box(8, rate_cutoff);
        let mut draw = StdRng::seed_from_u64(seed);
        for s in 0..lat.n_sites() {
            let st = match draw.random::<f64>() {
                u if u < 0.08 => SiteState::Vacancy,
                u if u < 0.3 => SiteState::Cu,
                _ => SiteState::Fe,
            };
            lat.set_state(s, st);
        }
        let c = lat.grid.ghost + 4;
        let centres = [0, 1].map(|b| lat.grid.site_id(c, c, c, b));
        for &v in &centres {
            lat.set_state(v, SiteState::Vacancy);
        }
        (lat, model, centres)
    }

    /// The key the run-packed loads replaced: every footprint site's state
    /// at 2 bits in footprint order, then the basis bit.
    fn per_site_key(lat: &KmcLattice, v: usize) -> Vec<u64> {
        let footprint = &lat.patches[v & 1].footprint;
        let mut key = vec![0u64; lat.rate_cache.words];
        for (i, &d) in footprint.iter().enumerate() {
            key[i / 32] |= (lat.state[(v as isize + d) as usize] as u64) << (2 * (i % 32));
        }
        let end = 2 * footprint.len();
        key[end / 64] |= ((v & 1) as u64) << (end % 64);
        key
    }

    #[test]
    fn a_key_changes_with_every_footprint_site_and_no_other() {
        let others = |st: SiteState| {
            [SiteState::Fe, SiteState::Cu, SiteState::Vacancy]
                .into_iter()
                .filter(move |&o| o != st)
        };
        for rate_cutoff in [3.0, 5.0] {
            let (mut lat, model, centres) = seeded_box(rate_cutoff, 0xF007);
            let mut outside = 0;
            for v in centres {
                let b = v & 1;
                let runs = lat.patches[b].runs.clone();
                let footprint = lat.patches[b].footprint.clone();
                let covered: usize = runs.iter().map(|r| r.mask.count_ones() as usize / 8).sum();
                assert_eq!(covered, footprint.len(), "the runs tile the footprint");
                if rate_cutoff == 3.0 {
                    assert_eq!(runs.len(), 46, "basis {b}");
                }
                let key = |lat: &mut KmcLattice| {
                    let (runs, state) = (&lat.patches[b].runs, &lat.state);
                    lat.rate_cache.load_key(b, v, runs, state);
                    lat.rate_cache.key.clone()
                };
                let want = key(&mut lat);
                assert_eq!(
                    want,
                    per_site_key(&lat, v),
                    "cutoff {rate_cutoff}, basis {b}"
                );

                // Every footprint site, flipped to either other state,
                // is another key: the one the per-site packing gives.
                for &d in &footprint {
                    let s = (v as isize + d) as usize;
                    let was = lat.state[s];
                    for flipped in others(was) {
                        lat.state[s] = flipped;
                        let got = key(&mut lat);
                        assert_ne!(got, want, "cutoff {rate_cutoff}, delta {d}");
                        assert_eq!(got, per_site_key(&lat, v));
                    }
                    lat.state[s] = was;
                }

                // A site a run's load reads but the footprint does not
                // leaves the key, and the table's answer, as they are.
                let mut events = Vec::new();
                lat.rate_cache.bind(&model);
                evaluate(&mut lat, &model, v, &mut events, &mut RateStats::default());
                let answer = events.clone();
                for run in &runs {
                    for d in run.start..run.start + FootprintRun::MAX_LEN as isize {
                        if footprint.binary_search(&d).is_ok() {
                            continue;
                        }
                        outside += 1;
                        let s = (v as isize + d) as usize;
                        let was = lat.state[s];
                        for flipped in others(was) {
                            lat.set_state(s, flipped);
                            assert_eq!(key(&mut lat), want, "cutoff {rate_cutoff}, delta {d}");
                            let (hits, mut stats) = (lat.rate_cache.hits(), RateStats::default());
                            evaluate(&mut lat, &model, v, &mut events, &mut stats);
                            assert_eq!(lat.rate_cache.hits(), hits + 1, "delta {d} hits");
                            assert_eq!((stats.host_site_evals, &events), (0, &answer));
                        }
                        lat.set_state(s, was);
                    }
                }
                lat.rate_cache.release();
            }
            assert!(
                outside > 0,
                "cutoff {rate_cutoff}: some load reads past its run"
            );

            // A footprint that ends within a load of the last stored site
            // (a ghost vacancy: an owned one's ends further in) packs the
            // same key from the shortened load.
            for b in 0..2 {
                let reach = *lat.patches[b].footprint.last().expect("a footprint");
                let last = lat.n_sites() as isize - 1 - reach;
                let v = (last - ((last & 1) ^ b as isize)) as usize;
                let runs = &lat.patches[b].runs;
                let at = |r: &FootprintRun| (v as isize + r.start) as usize;
                assert!(runs
                    .iter()
                    .any(|r| at(r) + FootprintRun::MAX_LEN > lat.n_sites()));
                lat.state[v] = SiteState::Vacancy;
                let want = per_site_key(&lat, v);
                lat.rate_cache.load_key(b, v, runs, &lat.state);
                assert_eq!(lat.rate_cache.key, want, "cutoff {rate_cutoff}, basis {b}");
            }
        }
    }

    #[test]
    fn every_after_energy_equals_the_full_loop_on_the_swapped_lattice() {
        use crate::comm::LoopbackK;
        use crate::exchange::full_exchange;

        // Cu fractions that leave both the table and the memo work to do.
        for (case, (rate_cutoff, cu)) in [(3.0, 0.25), (3.0, 0.05), (5.0, 0.02)]
            .into_iter()
            .enumerate()
        {
            let (mut lat, model, _) = oracle_box(8, rate_cutoff);
            let owned = lat.n_owned();
            lat.seed_solutes_global((cu * owned as f64) as usize, 700 + case as u64);
            lat.seed_vacancies(owned / 25, 800 + case as u64);
            full_exchange(&mut lat, &mut LoopbackK);
            // After energies answered by the shell tables and by the memo.
            let mut paths = [0usize; 2];
            let mut shells = ShellMemo::default();
            let vacancies: Vec<usize> = lat.vacancies().collect();
            for v in vacancies {
                let b = v & 1;
                for (dir, &dn) in lat.nn1_deltas[b].clone().iter().enumerate() {
                    let n = (v as isize + dn) as usize;
                    let atom = lat.state[n];
                    if !atom.is_atom() {
                        continue;
                    }
                    let patch = lat.patches[b].dirs[dir].clone();
                    let mut memo = RateMemo::default();
                    memo.reset(lat.patches[b].union_len);
                    let mut vacancy = Vacancy {
                        model: &model,
                        state: &lat.state,
                        deltas: &lat.deltas,
                        v,
                        memo: &mut memo,
                        shells: Some(&mut shells),
                        host: 0,
                    };
                    for p in &patch {
                        vacancy.before(p);
                    }
                    let got: Vec<(f64, u64)> = patch
                        .iter()
                        .map(|p| {
                            let hits = vacancy.memo.shell_hits;
                            (vacancy.after(p, n, atom), vacancy.memo.shell_hits - hits)
                        })
                        .collect();
                    lat.state[v] = atom;
                    lat.state[n] = SiteState::Vacancy;
                    for (p, &(e, table)) in patch.iter().zip(&got) {
                        let s = (v as isize + p.delta) as usize;
                        let want = model.site_energy_full_loop(&lat, s);
                        assert_eq!(
                            e.to_bits(),
                            want.to_bits(),
                            "cutoff {rate_cutoff}, vacancy {v}, direction {dir}, delta {}",
                            p.delta
                        );
                        if lat.state[s].is_atom() {
                            paths[table as usize] += 1;
                        }
                    }
                    lat.state[n] = atom;
                    lat.state[v] = SiteState::Vacancy;
                }
            }
            assert!(
                paths.iter().all(|&n| n > 0),
                "cutoff {rate_cutoff}: memo, table answers: {paths:?}"
            );
        }
    }

    #[test]
    fn a_full_set_evicts_its_least_recently_used_entry() {
        let (lat, ..) = setup();
        let mut table = RateCache::with_shape(&lat.patches, &lat.nn1_deltas, 1, 2);
        let key = |table: &mut RateCache, word: u64| {
            table.key.clear();
            table.key.resize(table.words, word);
        };
        for (word, rate) in [(1, 1.0), (2, 2.0)] {
            key(&mut table, word);
            assert_eq!(table.lookup(), None);
            table.store(&[(0, rate)], (1, word));
        }
        key(&mut table, 1);
        assert!(table.lookup().is_some(), "1 is now the most recently used");
        key(&mut table, 3);
        table.store(&[(0, 3.0)], (1, 3));
        let mut held = Vec::new();
        for word in [1, 2, 3] {
            key(&mut table, word);
            held.push(
                table
                    .lookup()
                    .map(|e| (table.rates[e * table.stride], table.charged[e])),
            );
        }
        assert_eq!(held, [Some((1.0, (1, 1))), None, Some((3.0, (1, 3)))]);
        assert_eq!(table.charged.len(), 2, "storage never outgrows the table");
    }
}
