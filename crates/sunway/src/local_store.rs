//! The 64 KB CPE local store, modelled as capacity-enforced accounting.
//!
//! The store tracks how many bytes are live so that over-allocation
//! fails exactly where the real hardware would: the paper's traditional
//! 273 KB interpolation table cannot be made resident, while the 39 KB
//! compacted table can (§2.1.2). Every holding goes through one
//! accounting path, [`LocalStore::reserve`], and comes in one of two
//! shapes, chosen by what the host kernel does with the bytes:
//!
//! * [`LsReservation`] — capacity only. For the buffers a modelled
//!   kernel owns but the host kernel never reads (block staging and
//!   its double-buffer shadows, the ghost-reuse margin, batch lanes):
//!   the capacity check and the high-water mark are the real ones,
//!   there is no host storage to fill.
//! * [`LsView`] — a reservation plus the main-memory slice it stands
//!   for. A resident table is DMA'd in once and never written, so the
//!   host reads the original in place instead of a copy with the same
//!   bytes.

use std::cell::Cell;
use std::rc::Rc;

/// Error returned when an allocation would exceed local-store capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdmOverflow {
    /// Bytes requested by the failing allocation.
    pub requested: usize,
    /// Bytes already live in the store.
    pub in_use: usize,
    /// Store capacity in bytes.
    pub capacity: usize,
}

impl std::fmt::Display for LdmOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "local store overflow: requested {} B with {} B of {} B in use",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for LdmOverflow {}

/// One CPE's local store.
///
/// `LocalStore` is single-threaded by construction (each CPE context owns
/// one), hence the `Rc<Cell<..>>` bookkeeping.
pub struct LocalStore {
    capacity: usize,
    used: Rc<Cell<usize>>,
    high_water: Rc<Cell<usize>>,
}

impl LocalStore {
    /// Creates a store with `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            used: Rc::new(Cell::new(0)),
            high_water: Rc::new(Cell::new(0)),
        }
    }

    /// Store capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently live.
    pub fn used(&self) -> usize {
        self.used.get()
    }

    /// Bytes still available.
    pub fn available(&self) -> usize {
        self.capacity - self.used.get()
    }

    /// Maximum bytes ever simultaneously live (for reporting LDM
    /// pressure of a kernel configuration).
    pub fn high_water(&self) -> usize {
        self.high_water.get()
    }

    /// Holds `bytes` of capacity without host storage, until the
    /// reservation drops. The one place capacity is checked and the
    /// high-water mark moves.
    pub fn reserve(&self, bytes: usize) -> Result<LsReservation, LdmOverflow> {
        let in_use = self.used.get();
        if in_use + bytes > self.capacity {
            return Err(LdmOverflow {
                requested: bytes,
                in_use,
                capacity: self.capacity,
            });
        }
        self.used.set(in_use + bytes);
        self.high_water
            .set(self.high_water.get().max(in_use + bytes));
        Ok(LsReservation {
            bytes,
            used: Rc::clone(&self.used),
        })
    }

    /// Reserves room for `data` and reads it in place: the view of a
    /// buffer whose contents would be a DMA'd copy of `data` (the DMA
    /// charge is the caller's job).
    pub(crate) fn map<'a, T>(&self, data: &'a [T]) -> Result<LsView<'a, T>, LdmOverflow> {
        Ok(LsView {
            data,
            slot: self.reserve(std::mem::size_of_val(data))?,
        })
    }
}

/// Local-store capacity held without host storage; returned to the
/// store on drop.
pub struct LsReservation {
    bytes: usize,
    used: Rc<Cell<usize>>,
}

impl LsReservation {
    /// Bytes held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

impl std::fmt::Debug for LsReservation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LsReservation({} B)", self.bytes)
    }
}

impl Drop for LsReservation {
    fn drop(&mut self) {
        self.used.set(self.used.get() - self.bytes);
    }
}

/// A main-memory slice standing in for its local-store copy: the
/// capacity is reserved, the bytes are read where they are.
pub struct LsView<'a, T> {
    data: &'a [T],
    slot: LsReservation,
}

impl<T> std::ops::Deref for LsView<'_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.data
    }
}

impl<T> std::fmt::Debug for LsView<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LsView({} elems, {} B)",
            self.data.len(),
            self.slot.bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_within_capacity() {
        let ls = LocalStore::new(1024);
        let a = ls.reserve(512).unwrap();
        assert_eq!(ls.used(), 512);
        let b = ls.reserve(512).unwrap(); // exactly full
        assert_eq!(ls.available(), 0);
        drop(a);
        assert_eq!(ls.used(), 512);
        drop(b);
        assert_eq!(ls.used(), 0);
        assert_eq!(ls.high_water(), 1024);
    }

    #[test]
    fn overflow_is_rejected() {
        let ls = LocalStore::new(crate::SwModel::sw26010().ldm_bytes);
        // The paper's traditional interpolation table: 5000*7 f64 = 280 kB.
        let traditional = vec![0.0f64; 5000 * 7];
        let err = ls.map(&traditional).unwrap_err();
        assert_eq!(err.requested, 5000 * 7 * 8);
        assert_eq!(err.in_use, 0);
        // The compacted table fits.
        assert!(ls.map(&traditional[..5000]).is_ok());
    }

    #[test]
    fn freed_space_is_reusable() {
        let ls = LocalStore::new(100);
        let a = ls.reserve(80).unwrap();
        assert!(ls.reserve(40).is_err());
        drop(a);
        assert!(ls.reserve(40).is_ok());
    }

    #[test]
    fn reservations_share_the_one_accounting_path() {
        let ls = LocalStore::new(crate::SwModel::sw26010().ldm_bytes);
        // The paper's traditional table (5000 rows × 7 f64 = 280 kB)
        // cannot be reserved; the 40 kB compacted one can.
        let err = ls.reserve(5000 * 7 * 8).unwrap_err();
        assert_eq!((err.requested, err.in_use), (280_000, 0));
        let table = ls.reserve(5000 * 8).unwrap();
        assert_eq!(table.bytes(), 40_000);
        // Reservations and views stack exactly.
        let knots = vec![1.5f64; 100];
        let view = ls.map(&knots).unwrap();
        let lanes = ls.reserve(80).unwrap();
        assert_eq!(ls.used(), 40_000 + 800 + 80);
        assert_eq!(ls.high_water(), 40_880);
        // Dropping each returns exactly its bytes; the mark stays.
        drop(view);
        assert_eq!(ls.used(), 40_080);
        drop(table);
        assert_eq!(ls.used(), 80);
        drop(lanes);
        assert_eq!(ls.used(), 0);
        assert_eq!(ls.high_water(), 40_880);
        // A freed reservation's room is reusable up to the last byte.
        let full = ls.reserve(ls.capacity()).unwrap();
        assert!(ls.reserve(1).is_err());
        drop(full);
        assert_eq!(ls.available(), ls.capacity());
    }

    #[test]
    fn buffers_hold_data() {
        // A view reads the mapped slice in place and holds its bytes.
        let ls = LocalStore::new(1024);
        let knots = [1.5f64, 1.5, 9.0, 1.5];
        let v = ls.map(&knots).unwrap();
        assert_eq!(&v[..], &[1.5, 1.5, 9.0, 1.5]);
        let ids = [1u32, 2, 3];
        let c = ls.map(&ids).unwrap();
        assert_eq!(&c[..], &[1, 2, 3]);
        assert_eq!(ls.used(), 32 + 12);
    }
}
