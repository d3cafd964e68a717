//! Compact binary serialization of MNC sketches.
//!
//! The paper's deployment story (Section 3.1) has sketches "computed via
//! distributed operations and subsequently, collected and used in the
//! driver for compilation" — which requires shipping sketches over the
//! wire. The format below is a little-endian, versioned, self-describing
//! layout matching the paper's size accounting: 4 B per count entry plus a
//! fixed header.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   u32  = 0x4D4E4353 ("MNCS")
//! version u16  = 1
//! flags   u16  : bit 0 = h^er present, bit 1 = h^ec present,
//!                bit 2 = fully diagonal
//! nrows   u64
//! ncols   u64
//! h^r     nrows x u32
//! h^c     ncols x u32
//! [h^er   nrows x u32]          (if flag bit 0)
//! [h^ec   ncols x u32]          (if flag bit 1)
//! ```
//!
//! The summary metadata is *recomputed* on load (it is derived state), so
//! a sketch round-trips bit-exactly through `to_bytes`/`from_bytes`. Load
//! also runs [`MncSketch::validate`], so well-framed but impossible counts
//! (a row count above `ncols`, `h^er > h^r`, a diagonal flag on a full
//! matrix) never enter the system.

use crate::sketch::MncSketch;

/// Magic number identifying serialized sketches ("MNCS").
pub const MAGIC: u32 = 0x4D4E_4353;
/// Current format version.
pub const VERSION: u16 = 1;

/// Errors from sketch deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// Magic number mismatch (not a sketch).
    BadMagic(u32),
    /// Unsupported format version.
    BadVersion(u16),
    /// Flag bits this version does not define — a corrupt or
    /// newer-than-supported sketch.
    UnknownFlags(u16),
    /// Declared sizes exceed the buffer.
    LengthMismatch,
    /// Well-framed counts that no matrix can have — the invariant of
    /// [`MncSketch::validate`] that failed.
    InvalidCounts(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported version {v}"),
            DecodeError::UnknownFlags(x) => write!(f, "unknown flag bits 0x{x:04x}"),
            DecodeError::LengthMismatch => write!(f, "declared lengths exceed the buffer"),
            DecodeError::InvalidCounts(why) => write!(f, "invalid counts: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const FLAG_HER: u16 = 1 << 0;
const FLAG_HEC: u16 = 1 << 1;
const FLAG_DIAG: u16 = 1 << 2;

/// Serializes a sketch to its compact binary form.
pub fn to_bytes(sketch: &MncSketch) -> Vec<u8> {
    let mut flags = 0u16;
    if sketch.her.is_some() {
        flags |= FLAG_HER;
    }
    if sketch.hec.is_some() {
        flags |= FLAG_HEC;
    }
    if sketch.meta.fully_diagonal {
        flags |= FLAG_DIAG;
    }
    let count_entries = sketch.hr.len()
        + sketch.hc.len()
        + sketch.her.as_ref().map_or(0, Vec::len)
        + sketch.hec.as_ref().map_or(0, Vec::len);
    let mut buf = Vec::with_capacity(24 + 4 * count_entries);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&flags.to_le_bytes());
    buf.extend_from_slice(&(sketch.nrows as u64).to_le_bytes());
    buf.extend_from_slice(&(sketch.ncols as u64).to_le_bytes());
    let mut write_counts = |counts: &[u32]| {
        for &c in counts {
            buf.extend_from_slice(&c.to_le_bytes());
        }
    };
    write_counts(&sketch.hr);
    write_counts(&sketch.hc);
    if let Some(her) = &sketch.her {
        write_counts(her);
    }
    if let Some(hec) = &sketch.hec {
        write_counts(hec);
    }
    buf
}

/// Deserializes a sketch; the summary metadata is recomputed, and counts
/// that fail [`MncSketch::validate`] are rejected.
pub fn from_bytes(buf: &[u8]) -> Result<MncSketch, DecodeError> {
    if buf.len() < 24 {
        return Err(DecodeError::Truncated);
    }
    let magic = u32::from_le_bytes(buf[0..4].try_into().expect("sliced"));
    if magic != MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().expect("sliced"));
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let flags = u16::from_le_bytes(buf[6..8].try_into().expect("sliced"));
    if flags & !(FLAG_HER | FLAG_HEC | FLAG_DIAG) != 0 {
        return Err(DecodeError::UnknownFlags(
            flags & !(FLAG_HER | FLAG_HEC | FLAG_DIAG),
        ));
    }
    let nrows64 = u64::from_le_bytes(buf[8..16].try_into().expect("sliced"));
    let ncols64 = u64::from_le_bytes(buf[16..24].try_into().expect("sliced"));

    // Hostile buffers can declare dimensions near u64::MAX; sizing in u128
    // keeps the length check exact instead of overflowing.
    let mut expected: u128 = nrows64 as u128 + ncols64 as u128;
    if flags & FLAG_HER != 0 {
        expected += nrows64 as u128;
    }
    if flags & FLAG_HEC != 0 {
        expected += ncols64 as u128;
    }
    if buf.len() as u128 != 24 + 4 * expected {
        return Err(DecodeError::LengthMismatch);
    }
    let nrows = nrows64 as usize;
    let ncols = ncols64 as usize;

    let mut offset = 24usize;
    let mut read_counts = |n: usize| -> Vec<u32> {
        let out = buf[offset..offset + 4 * n]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunked")))
            .collect();
        offset += 4 * n;
        out
    };
    let hr = read_counts(nrows);
    let hc = read_counts(ncols);
    let her = (flags & FLAG_HER != 0).then(|| read_counts(nrows));
    let hec = (flags & FLAG_HEC != 0).then(|| read_counts(ncols));
    let sketch = MncSketch::from_vectors(nrows, ncols, hr, hc, her, hec, flags & FLAG_DIAG != 0);
    sketch.validate().map_err(DecodeError::InvalidCounts)?;
    Ok(sketch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_matrix::gen;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn roundtrip_with_extended_vectors() {
        let mut r = rng(1);
        let m = gen::rand_uniform(&mut r, 40, 30, 0.2);
        let sketch = MncSketch::build(&m);
        assert!(sketch.her.is_some(), "test needs extended vectors");
        let bytes = to_bytes(&sketch);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, sketch);
    }

    #[test]
    fn roundtrip_without_extended_vectors() {
        let mut r = rng(2);
        let p = gen::permutation(&mut r, 25);
        let sketch = MncSketch::build(&p);
        assert!(sketch.her.is_none());
        let back = from_bytes(&to_bytes(&sketch)).unwrap();
        assert_eq!(back, sketch);
    }

    #[test]
    fn roundtrip_preserves_diagonal_flag() {
        let d = gen::scalar_diag(12, 3.0);
        let sketch = MncSketch::build(&d);
        assert!(sketch.meta.fully_diagonal);
        let back = from_bytes(&to_bytes(&sketch)).unwrap();
        assert!(back.meta.fully_diagonal);
    }

    #[test]
    fn size_matches_paper_accounting() {
        let sketch = MncSketch::empty(1000, 500);
        // Header (24 B) + 4 B per dimension entry, no extended vectors.
        assert_eq!(to_bytes(&sketch).len(), 24 + 4 * 1500);
    }

    #[test]
    fn rejects_corrupt_buffers() {
        let mut r = rng(3);
        let sketch = MncSketch::build(&gen::rand_uniform(&mut r, 10, 10, 0.3));
        let bytes = to_bytes(&sketch);
        assert_eq!(from_bytes(&bytes[..10]), Err(DecodeError::Truncated));

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            from_bytes(&bad_magic),
            Err(DecodeError::BadMagic(_))
        ));

        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(matches!(
            from_bytes(&bad_version),
            Err(DecodeError::BadVersion(99))
        ));

        let mut short = bytes.clone();
        short.pop();
        assert_eq!(from_bytes(&short), Err(DecodeError::LengthMismatch));
    }

    #[test]
    fn driver_collect_scenario() {
        // Distributed construction on "executors", serialization, and
        // reassembly "in the driver" — end to end.
        let mut r = rng(4);
        let m = gen::rand_uniform(&mut r, 60, 45, 0.1);
        let pm = mnc_matrix::partition::RowPartitionedMatrix::from_matrix(&m, 4);
        let sketch = crate::distributed::build_distributed(&pm);
        let wire = to_bytes(&sketch);
        let driver_copy = from_bytes(&wire).unwrap();
        assert_eq!(driver_copy, MncSketch::build(&m));
    }
}
