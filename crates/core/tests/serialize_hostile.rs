//! Hostile-input coverage for the MNCS wire format. Serialized sketches are
//! attacker-reachable through `mnc-served`'s `PUT /v1/matrices/{name}`
//! endpoint, so `from_bytes` must reject — never panic on — truncated
//! buffers, bad magic/version words, undefined flag bits, length lies in
//! the declared dimensions, and well-framed counts no matrix can have.

use proptest::prelude::*;

use mnc_core::serialize::{from_bytes, to_bytes, DecodeError};
use mnc_core::MncSketch;
use mnc_matrix::gen;
use rand::SeedableRng;

fn make_bytes(rows: usize, cols: usize, s: f64, seed: u64) -> (MncSketch, Vec<u8>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let sketch = MncSketch::build(&gen::rand_uniform(&mut rng, rows, cols, s));
    let bytes = to_bytes(&sketch);
    (sketch, bytes)
}

/// Overwrites the little-endian count at byte `offset`.
fn put_count(bytes: &mut [u8], offset: usize, count: u32) {
    bytes[offset..offset + 4].copy_from_slice(&count.to_le_bytes());
}

fn sketch_params() -> impl Strategy<Value = (usize, usize, f64, u64)> {
    (1usize..40, 1usize..40, 0.0f64..0.6, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Well-formed bytes round-trip bit-exactly (extended vectors, diagonal
    /// flag, and all) — the baseline sanity for everything below.
    #[test]
    fn roundtrip_is_exact((m, n, s, seed) in sketch_params()) {
        let (sketch, bytes) = make_bytes(m, n, s, seed);
        prop_assert_eq!(from_bytes(&bytes).unwrap(), sketch);
    }

    /// Every strict prefix of a valid buffer is rejected: short of the
    /// header it is `Truncated`, past the header the exact-length check
    /// reports `LengthMismatch`. No cut point may panic.
    #[test]
    fn truncated_buffers_rejected((m, n, s, seed) in sketch_params(), frac in 0.0f64..1.0) {
        let (_, bytes) = make_bytes(m, n, s, seed);
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assert!(cut < bytes.len());
        let err = from_bytes(&bytes[..cut]).unwrap_err();
        if cut < 24 {
            prop_assert_eq!(err, DecodeError::Truncated);
        } else {
            prop_assert_eq!(err, DecodeError::LengthMismatch);
        }
    }

    /// Appending trailing bytes breaks the exact-length contract.
    #[test]
    fn extended_buffers_rejected((m, n, s, seed) in sketch_params(), extra in 1usize..64) {
        let (_, mut bytes) = make_bytes(m, n, s, seed);
        bytes.extend(std::iter::repeat_n(0u8, extra));
        prop_assert_eq!(from_bytes(&bytes), Err(DecodeError::LengthMismatch));
    }

    /// Any corruption of the magic word is identified as `BadMagic`.
    #[test]
    fn magic_corruption_rejected((m, n, s, seed) in sketch_params(), byte in 0usize..4, flip in 1u8..=255) {
        let (_, mut bytes) = make_bytes(m, n, s, seed);
        bytes[byte] ^= flip;
        prop_assert!(matches!(from_bytes(&bytes), Err(DecodeError::BadMagic(_))));
    }

    /// Any version other than 1 is `BadVersion`.
    #[test]
    fn version_corruption_rejected((m, n, s, seed) in sketch_params(), v in any::<u16>()) {
        let (_, mut bytes) = make_bytes(m, n, s, seed);
        if v != mnc_core::serialize::VERSION {
            bytes[4..6].copy_from_slice(&v.to_le_bytes());
            prop_assert!(matches!(from_bytes(&bytes), Err(DecodeError::BadVersion(_))));
        }
    }

    /// Flag bits this version does not define are rejected outright, and
    /// toggling a defined extension flag without supplying the extension
    /// vectors is a length mismatch — the flag/length contract is enforced
    /// both ways.
    #[test]
    fn flag_corruption_rejected((m, n, s, seed) in sketch_params(), bit in 0u32..16) {
        let (sketch, mut bytes) = make_bytes(m, n, s, seed);
        let flags = u16::from_le_bytes([bytes[6], bytes[7]]);
        let flipped = flags ^ (1u16 << bit);
        bytes[6..8].copy_from_slice(&flipped.to_le_bytes());
        match bit {
            // h^er / h^ec presence: the payload no longer matches.
            0 | 1 => prop_assert_eq!(from_bytes(&bytes), Err(DecodeError::LengthMismatch)),
            // The diagonal flag needs no payload: clearing it always
            // decodes, setting it decodes only on a square sketch whose
            // counts are all 1.
            2 => {
                let permutation = m == n
                    && sketch.hr.iter().chain(&sketch.hc).all(|&c| c == 1);
                if flipped & (1 << 2) == 0 || permutation {
                    prop_assert!(from_bytes(&bytes).is_ok());
                } else {
                    prop_assert!(matches!(
                        from_bytes(&bytes),
                        Err(DecodeError::InvalidCounts(_))
                    ));
                }
            }
            _ => prop_assert!(matches!(
                from_bytes(&bytes),
                Err(DecodeError::UnknownFlags(_))
            )),
        }
    }

    /// Lying about the dimensions (including values near `u64::MAX`, which
    /// would overflow a naive `24 + 4 * n` length computation) must fail
    /// cleanly with `LengthMismatch`.
    #[test]
    fn dimension_lies_rejected((m, n, s, seed) in sketch_params(), lie in any::<u64>()) {
        let (sketch, mut bytes) = make_bytes(m, n, s, seed);
        if lie != sketch.nrows as u64 {
            bytes[8..16].copy_from_slice(&lie.to_le_bytes());
            prop_assert_eq!(from_bytes(&bytes), Err(DecodeError::LengthMismatch));
        }
    }

    /// Raising one row count above `ncols`, or one column count above
    /// `nrows`, leaves the framing intact but is `InvalidCounts`.
    #[test]
    fn count_above_the_opposite_dimension_rejected(
        (m, n, s, seed) in sketch_params(),
        column in any::<bool>(),
        at in any::<usize>(),
        excess in 1u32..1_000_000,
    ) {
        let (_, mut bytes) = make_bytes(m, n, s, seed);
        let (offset, len, cap) = if column { (24 + 4 * m, n, m) } else { (24, m, n) };
        put_count(&mut bytes, offset + 4 * (at % len), cap as u32 + excess);
        prop_assert!(matches!(from_bytes(&bytes), Err(DecodeError::InvalidCounts(_))));
    }

    /// An extended count above its base count (`h^er > h^r` or
    /// `h^ec > h^c`) is `InvalidCounts`.
    #[test]
    fn extended_count_above_its_base_rejected(
        (m, n, s, seed) in sketch_params(),
        column in any::<bool>(),
        at in any::<usize>(),
        excess in 1u32..1_000,
    ) {
        let (sketch, mut bytes) = make_bytes(m, n, s, seed);
        if let (Some(_), Some(_)) = (&sketch.her, &sketch.hec) {
            let (offset, base) = if column {
                (24 + 4 * (2 * m + n), &sketch.hc)
            } else {
                (24 + 4 * (m + n), &sketch.hr)
            };
            let i = at % base.len();
            put_count(&mut bytes, offset + 4 * i, base[i] + excess);
            prop_assert!(matches!(from_bytes(&bytes), Err(DecodeError::InvalidCounts(_))));
        }
    }

    /// Arbitrary garbage never panics (and in practice never decodes: a
    /// valid buffer must lead with the 4-byte magic).
    #[test]
    fn garbage_never_panics(len in 0usize..256, seed in any::<u64>()) {
        let mut x = seed | 1;
        let garbage: Vec<u8> = (0..len)
            .map(|_| {
                // xorshift64 — cheap deterministic noise.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        prop_assert!(from_bytes(&garbage).is_err());
    }
}

#[test]
fn dimension_overflow_is_rejected_not_panicking() {
    // Header-only buffer declaring u64::MAX rows: the expected-size
    // computation must not overflow (debug builds would abort).
    let mut buf = Vec::new();
    buf.extend_from_slice(&mnc_core::serialize::MAGIC.to_le_bytes());
    buf.extend_from_slice(&mnc_core::serialize::VERSION.to_le_bytes());
    buf.extend_from_slice(&0u16.to_le_bytes());
    buf.extend_from_slice(&u64::MAX.to_le_bytes());
    buf.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(from_bytes(&buf), Err(DecodeError::LengthMismatch));
}

/// A well-framed MNCS buffer with hand-written counts.
fn mncs(flags: u16, nrows: u64, ncols: u64, counts: &[u32]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&mnc_core::serialize::MAGIC.to_le_bytes());
    buf.extend_from_slice(&mnc_core::serialize::VERSION.to_le_bytes());
    buf.extend_from_slice(&flags.to_le_bytes());
    buf.extend_from_slice(&nrows.to_le_bytes());
    buf.extend_from_slice(&ncols.to_le_bytes());
    for c in counts {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    buf
}

#[test]
fn count_level_lies_are_rejected() {
    // A 56-byte 4x4 sketch claiming four billion non-zeros in row 0: its
    // sparsity would read 250000001.6875.
    let huge_row = mncs(0, 4, 4, &[4_000_000_000, 9, 9, 9, 4, 4, 4, 4]);
    assert_eq!(huge_row.len(), 56);
    let lies = [
        huge_row,
        // A column count above nrows.
        mncs(0, 2, 3, &[1, 1, 3, 0, 0]),
        // h^er above h^r (flag bit 0 carries h^er).
        mncs(1, 2, 2, &[1, 1, 1, 1, 2, 0]),
        // h^ec above h^c (flag bit 1 carries h^ec).
        mncs(2, 2, 2, &[2, 2, 2, 2, 0, 3]),
        // The diagonal flag on a full matrix.
        mncs(4, 2, 2, &[2, 2, 2, 2]),
        // The diagonal flag on a non-square sketch.
        mncs(4, 1, 2, &[1, 1, 0]),
    ];
    for bytes in &lies {
        assert!(
            matches!(from_bytes(bytes), Err(DecodeError::InvalidCounts(_))),
            "{:?}",
            from_bytes(bytes)
        );
    }
    // Unequal row and column sums stay legal: rounded roots may have them.
    let sketch = from_bytes(&mncs(0, 2, 2, &[2, 1, 1, 0])).unwrap();
    assert_eq!(sketch.meta.nnz, 3);
    // A permutation may carry the diagonal flag; the counts cannot tell.
    assert!(from_bytes(&mncs(4, 2, 2, &[1, 1, 1, 1])).is_ok());
}
