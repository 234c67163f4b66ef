//! A stable 64-bit digest for checked-in fingerprints.
//!
//! Engine tests pin a run's exact output (vacancy sets, evaluation
//! tallies) as one FNV-1a constant, and the repository benchmark takes
//! the same digest over everything a run returned, so a change that
//! moves a single bit shows up as a changed hex string.

/// 64-bit FNV-1a over a byte string. Small, dependency-free, and
/// stable across platforms — exactly what a checked-in golden hash
/// needs. Not cryptographic.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }
}
