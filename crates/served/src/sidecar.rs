//! Wire format for shadow-estimation sidecars — the alternate synopses the
//! shadow plane compares against the primary MNC sketch, persisted next to
//! each `.mncs` catalog entry so a daemon bounce never rebuilds them.
//!
//! One sidecar (`<name>.mncx`) holds the DMap density grid and the bitset
//! pattern built at CSR-ingest time, plus — only when the daemon runs with
//! `--retain-csr` — the raw CSR triples, which let the shadow plane compute
//! *exact* ground truth for single-op requests and turn cross-estimator
//! divergence into true relative error.
//!
//! A sidecar costs several sketch builds and O(mn/64) words, so an ingest
//! builds one only when something can read it: when the daemon shadows
//! (`--shadow-rate` above 0) or runs with `--retain-csr`. A catalog
//! ingested at rate 0 without `--retain-csr` has no sidecars; reopened with
//! shadowing on, it shadows those entries with MetaAC alone and never
//! rebuilds them. Ingesting with `--retain-csr` prepares a catalog for
//! later shadowing.
//!
//! The format follows the MNCS discipline ([`mnc_core::serialize`]): a
//! magic + version header, little-endian fixed-width integers, explicit
//! lengths validated before allocation, and a hard "no trailing bytes"
//! rule so truncation and extension are both detected.

use std::sync::Arc;

use mnc_estimators::bitset::BitsetSynopsis;
use mnc_estimators::density_map::DmSynopsis;
use mnc_matrix::CsrMatrix;

/// Magic prefix of the sidecar wire format.
const MAGIC: &[u8; 4] = b"MNCX";
/// Current wire-format version.
const VERSION: u16 = 1;
/// Flag bit: the sidecar embeds retained CSR triples.
const FLAG_CSR: u16 = 1;

/// The alternate synopses (and optional raw data) for one catalog entry.
#[derive(Debug, Clone)]
pub struct ShadowSidecar {
    /// Density map built from the ingested CSR (paper default block size).
    pub dm: DmSynopsis,
    /// Exact bit pattern of the ingested CSR.
    pub bitset: BitsetSynopsis,
    /// The ingested matrix itself, retained only under `--retain-csr` —
    /// the shadow plane's source of exact ground truth.
    pub csr: Option<Arc<CsrMatrix>>,
}

impl ShadowSidecar {
    /// Builds a sidecar from freshly ingested CSR data. `retain_csr`
    /// controls whether the raw triples ride along for ground truth.
    pub fn build(m: &Arc<CsrMatrix>, retain_csr: bool) -> Self {
        ShadowSidecar {
            dm: DmSynopsis::from_matrix(m, mnc_estimators::density_map::DEFAULT_BLOCK),
            bitset: BitsetSynopsis::from_matrix(m),
            csr: retain_csr.then(|| Arc::clone(m)),
        }
    }

    /// Serialized size of this sidecar in bytes.
    pub fn encoded_len(&self) -> usize {
        encode(self).len()
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a sidecar into its versioned wire format.
pub fn encode(s: &ShadowSidecar) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    let flags = if s.csr.is_some() { FLAG_CSR } else { 0 };
    out.extend_from_slice(&flags.to_le_bytes());
    put_u64(&mut out, s.dm.nrows as u64);
    put_u64(&mut out, s.dm.ncols as u64);
    put_u64(&mut out, s.dm.block as u64);
    let dens = s.dm.densities();
    put_u64(&mut out, dens.len() as u64);
    for &d in dens {
        put_f64(&mut out, d);
    }
    let words = s.bitset.words();
    put_u64(&mut out, words.len() as u64);
    for &w in words {
        put_u64(&mut out, w);
    }
    if let Some(csr) = &s.csr {
        put_u64(&mut out, csr.nnz() as u64);
        for (i, j, v) in csr.iter_triples() {
            put_u64(&mut out, i as u64);
            put_u64(&mut out, j as u64);
            put_f64(&mut out, v);
        }
    }
    out
}

/// A cursor that refuses to read past the end.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|b| u16::from_le_bytes([b[0], b[1]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A length prefix, rejected when the remaining buffer cannot possibly
    /// hold `len * elem_bytes` more bytes (stops hostile-length allocation).
    fn len_prefix(&mut self, elem_bytes: usize) -> Option<usize> {
        let len = usize::try_from(self.u64()?).ok()?;
        let need = len.checked_mul(elem_bytes)?;
        if self.buf.len() - self.pos < need {
            return None;
        }
        Some(len)
    }
}

/// Decodes a sidecar, or `None` for anything malformed: wrong magic or
/// version, shape/length mismatches, hostile length prefixes, truncation,
/// or trailing bytes.
pub fn decode(bytes: &[u8]) -> Option<ShadowSidecar> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return None;
    }
    if r.u16()? != VERSION {
        return None;
    }
    let flags = r.u16()?;
    if flags & !FLAG_CSR != 0 {
        return None;
    }
    let nrows = usize::try_from(r.u64()?).ok()?;
    let ncols = usize::try_from(r.u64()?).ok()?;
    let block = usize::try_from(r.u64()?).ok()?;
    let dens_len = r.len_prefix(8)?;
    let mut dens = Vec::with_capacity(dens_len);
    for _ in 0..dens_len {
        let d = r.f64()?;
        if !(0.0..=1.0).contains(&d) {
            return None;
        }
        dens.push(d);
    }
    let dm = DmSynopsis::from_densities(nrows, ncols, block, dens)?;
    let words_len = r.len_prefix(8)?;
    let mut words = Vec::with_capacity(words_len);
    for _ in 0..words_len {
        words.push(r.u64()?);
    }
    let bitset = BitsetSynopsis::from_words(nrows, ncols, words)?;
    let csr = if flags & FLAG_CSR != 0 {
        let nnz = r.len_prefix(24)?;
        let mut triples = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            let i = usize::try_from(r.u64()?).ok()?;
            let j = usize::try_from(r.u64()?).ok()?;
            let v = r.f64()?;
            triples.push((i, j, v));
        }
        Some(Arc::new(
            CsrMatrix::from_triples(nrows, ncols, triples).ok()?,
        ))
    } else {
        None
    };
    if r.pos != bytes.len() {
        return None; // trailing bytes
    }
    Some(ShadowSidecar { dm, bitset, csr })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_matrix::gen;
    use rand::SeedableRng;

    fn matrix(seed: u64) -> Arc<CsrMatrix> {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        Arc::new(gen::rand_uniform(&mut r, 70, 50, 0.08))
    }

    #[test]
    fn roundtrip_without_csr() {
        let m = matrix(1);
        let s = ShadowSidecar::build(&m, false);
        let back = decode(&encode(&s)).expect("decode");
        assert!(back.csr.is_none());
        assert_eq!(back.dm.nrows, s.dm.nrows);
        assert_eq!(back.dm.densities(), s.dm.densities());
        assert_eq!(back.bitset.words(), s.bitset.words());
        assert_eq!(back.bitset.count_ones(), m.nnz() as u64);
    }

    #[test]
    fn roundtrip_with_csr_preserves_triples() {
        let m = matrix(2);
        let s = ShadowSidecar::build(&m, true);
        let back = decode(&encode(&s)).expect("decode");
        let csr = back.csr.expect("csr retained");
        assert_eq!(csr.nnz(), m.nnz());
        assert!(csr.iter_triples().eq(m.iter_triples()));
    }

    #[test]
    fn truncation_extension_and_garbage_never_decode() {
        let bytes = encode(&ShadowSidecar::build(&matrix(3), true));
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_none(), "truncated at {cut}");
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode(&extended).is_none(), "trailing byte accepted");
        assert!(decode(b"not a sidecar").is_none());
        let mut wrong_magic = bytes;
        wrong_magic[0] = b'X';
        assert!(decode(&wrong_magic).is_none());
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut bytes = encode(&ShadowSidecar::build(&matrix(4), false));
        // The dens length prefix sits right after magic+version+flags+3 u64s.
        let off = 4 + 2 + 2 + 24;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode(&bytes).is_none());
    }
}
