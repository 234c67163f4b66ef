//! Byte-level message packing.
//!
//! The paper packs ghost atoms/sites into contiguous send buffers before
//! each exchange (§2.1.1, §2.2.1). We mirror that with a small, explicit
//! little-endian packer rather than pulling in a serialization framework:
//! HPC codes control their wire layout, and byte counts feed directly into
//! the communication-volume experiment (Fig. 12).

/// Serialises primitive values into a growable little-endian byte buffer.
#[derive(Default, Debug)]
pub struct Packer {
    buf: Vec<u8>,
}

impl Packer {
    /// Creates an empty packer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a packer with preallocated capacity (bytes).
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Packs into `buf`, a recycled buffer whose contents are dropped
    /// and whose capacity is kept.
    pub fn reusing(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Self { buf }
    }

    /// Number of bytes packed so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been packed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the packer, returning the wire bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Packs a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Packs a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Packs an `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Packs a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Packs an `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Packs a `usize` as a `u64` (portable width).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Packs a slice of `f64`s (length-prefixed).
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Packs any [`Wire`] value.
    pub fn put<W: Wire>(&mut self, v: &W) {
        v.pack(self);
    }
}

/// Deserialises values from a byte buffer written by [`Packer`].
#[derive(Debug)]
pub struct Unpacker<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Unpacker<'a> {
    /// Wraps a received byte buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes remaining to be consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(
            self.pos + n <= self.buf.len(),
            "wire underflow: need {n} bytes, have {}",
            self.remaining()
        );
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        s
    }

    /// Takes the next `n` bytes as they are.
    pub fn get_bytes(&mut self, n: usize) -> &'a [u8] {
        self.take(n)
    }

    /// Unpacks a `u8`.
    pub fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    /// Unpacks a `u32`.
    pub fn get_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    /// Unpacks an `i32`.
    pub fn get_i32(&mut self) -> i32 {
        i32::from_le_bytes(self.take(4).try_into().unwrap())
    }

    /// Unpacks a `u64`.
    pub fn get_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Unpacks an `f64`.
    pub fn get_f64(&mut self) -> f64 {
        f64::from_le_bytes(self.take(8).try_into().unwrap())
    }

    /// Unpacks a `usize` (stored as `u64`).
    pub fn get_usize(&mut self) -> usize {
        self.get_u64() as usize
    }

    /// Unpacks a length-prefixed `f64` slice.
    pub fn get_f64_vec(&mut self) -> Vec<f64> {
        let n = self.get_usize();
        (0..n).map(|_| self.get_f64()).collect()
    }

    /// Unpacks any [`Wire`] value.
    pub fn get<W: Wire>(&mut self) -> W {
        W::unpack(self)
    }
}

/// Types with a fixed, explicit wire representation.
pub trait Wire: Sized {
    /// Appends this value's wire bytes to `p`.
    fn pack(&self, p: &mut Packer);
    /// Reads one value back from `u`.
    fn unpack(u: &mut Unpacker<'_>) -> Self;
}

impl Wire for f64 {
    fn pack(&self, p: &mut Packer) {
        p.put_f64(*self);
    }
    fn unpack(u: &mut Unpacker<'_>) -> Self {
        u.get_f64()
    }
}

impl Wire for u32 {
    fn pack(&self, p: &mut Packer) {
        p.put_u32(*self);
    }
    fn unpack(u: &mut Unpacker<'_>) -> Self {
        u.get_u32()
    }
}

impl Wire for i32 {
    fn pack(&self, p: &mut Packer) {
        p.put_i32(*self);
    }
    fn unpack(u: &mut Unpacker<'_>) -> Self {
        u.get_i32()
    }
}

impl Wire for u64 {
    fn pack(&self, p: &mut Packer) {
        p.put_u64(*self);
    }
    fn unpack(u: &mut Unpacker<'_>) -> Self {
        u.get_u64()
    }
}

impl Wire for usize {
    fn pack(&self, p: &mut Packer) {
        p.put_usize(*self);
    }
    fn unpack(u: &mut Unpacker<'_>) -> Self {
        u.get_usize()
    }
}

impl<W: Wire> Wire for [W; 3] {
    fn pack(&self, p: &mut Packer) {
        for v in self {
            v.pack(p);
        }
    }
    fn unpack(u: &mut Unpacker<'_>) -> Self {
        [W::unpack(u), W::unpack(u), W::unpack(u)]
    }
}

impl<W: Wire> Wire for Vec<W> {
    fn pack(&self, p: &mut Packer) {
        p.put_usize(self.len());
        for v in self {
            v.pack(p);
        }
    }
    fn unpack(u: &mut Unpacker<'_>) -> Self {
        let n = u.get_usize();
        (0..n).map(|_| W::unpack(u)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut p = Packer::new();
        p.put_u8(7);
        p.put_u32(0xDEAD_BEEF);
        p.put_i32(-42);
        p.put_u64(u64::MAX - 1);
        p.put_f64(-1.5e300);
        p.put_usize(123_456);
        let bytes = p.finish();
        let mut u = Unpacker::new(&bytes);
        assert_eq!(u.get_u8(), 7);
        assert_eq!(u.get_u32(), 0xDEAD_BEEF);
        assert_eq!(u.get_i32(), -42);
        assert_eq!(u.get_u64(), u64::MAX - 1);
        assert_eq!(u.get_f64(), -1.5e300);
        assert_eq!(u.get_usize(), 123_456);
        assert!(u.is_exhausted());
    }

    #[test]
    fn round_trip_slices_and_arrays() {
        let mut p = Packer::new();
        p.put_f64_slice(&[1.0, 2.5, -3.0]);
        p.put(&[9u32, 8, 7]);
        p.put(&vec![1.0f64, 2.0]);
        let bytes = p.finish();
        let mut u = Unpacker::new(&bytes);
        assert_eq!(u.get_f64_vec(), vec![1.0, 2.5, -3.0]);
        assert_eq!(u.get::<[u32; 3]>(), [9, 8, 7]);
        assert_eq!(u.get::<Vec<f64>>(), vec![1.0, 2.0]);
        assert!(u.is_exhausted());
    }

    #[test]
    fn empty_f64_slice() {
        let mut p = Packer::new();
        p.put_f64_slice(&[]);
        let bytes = p.finish();
        let mut u = Unpacker::new(&bytes);
        assert!(u.get_f64_vec().is_empty());
        assert!(u.is_exhausted());
    }

    #[test]
    #[should_panic(expected = "wire underflow")]
    fn underflow_panics() {
        let bytes = [1u8, 2];
        let mut u = Unpacker::new(&bytes);
        let _ = u.get_u64();
    }

    #[test]
    fn nan_payload_survives() {
        let mut p = Packer::new();
        p.put_f64(f64::NAN);
        let bytes = p.finish();
        let mut u = Unpacker::new(&bytes);
        assert!(u.get_f64().is_nan());
    }
}
