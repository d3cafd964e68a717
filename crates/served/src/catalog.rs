//! The persistent synopsis catalog: named MNC sketches on disk.
//!
//! The paper's deployment story builds sketches once ("computed via
//! distributed operations and subsequently collected and used in the driver
//! for compilation") — so a serving daemon must never pay sketch
//! construction twice for the same matrix. The catalog makes that durable:
//! every named sketch is written to `<dir>/<name>.mncs` in the versioned
//! MNCS wire format ([`mnc_core::serialize`]) and decoded back on
//! [`SynopsisCatalog::open`], so a daemon bounce restores the full working
//! set without touching any base matrix.
//!
//! Durability discipline:
//!
//! * writes go to `<name>.mncs.tmp` and are renamed into place — a crash
//!   mid-write leaves a `.tmp` that the next `open` deletes, never a
//!   half-written `.mncs`;
//! * files that fail to decode on `open` are quarantined (renamed to
//!   `<name>.mncs.corrupt`) and reported, not silently dropped and never a
//!   panic — a damaged catalog serves what survives;
//! * [`SynopsisCatalog::rebuilds`] counts how many sketches were built from
//!   raw matrix data since `open` (ingest of pre-built sketch bytes does
//!   not count). A restart test asserting `rebuilds == 0` proves the bounce
//!   never re-built anything.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mnc_core::serialize::{from_bytes, to_bytes};
use mnc_core::MncSketch;
use mnc_estimators::mnc::MncSynopsis;
use mnc_estimators::Synopsis;

use crate::error::ServiceError;
use crate::sidecar::{self, ShadowSidecar};

/// File extension for catalog entries.
const EXT: &str = "mncs";
/// File extension for shadow sidecars (alternate synopses + optional CSR).
const SIDECAR_EXT: &str = "mncx";
/// Extension suffix for in-flight writes.
const TMP_SUFFIX: &str = ".tmp";
/// Extension suffix for quarantined (undecodable) entries.
const CORRUPT_SUFFIX: &str = ".corrupt";

/// Maximum accepted matrix-name length.
pub const MAX_NAME_LEN: usize = 128;

/// Validates a catalog name: 1–128 characters from `[A-Za-z0-9._-]`, not
/// `.` or `..`, not starting with a dot (keeps names safe as file stems and
/// URL segments).
pub fn validate_name(name: &str) -> Result<(), ServiceError> {
    let ok_len = !name.is_empty() && name.len() <= MAX_NAME_LEN;
    let ok_chars = name
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
    if !ok_len || !ok_chars || name.starts_with('.') {
        return Err(ServiceError::BadRequest(format!(
            "invalid matrix name `{name}`: 1-{MAX_NAME_LEN} chars of [A-Za-z0-9._-], \
             not starting with `.`"
        )));
    }
    Ok(())
}

/// One resident catalog entry.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The entry's one resident copy of its sketch, wrapped as the
    /// [`Synopsis::Mnc`] every estimate's walk reads. Sketches are never
    /// mutated after build, so requests share it by `Arc`, never by copy.
    synopsis: Arc<Synopsis>,
    /// Serialized size on disk in bytes.
    pub file_bytes: u64,
    /// Shadow sidecar (alternate synopses + optional retained CSR), present
    /// only for entries ingested from raw CSR data. Octet-stream ingests
    /// have no raw data, so they carry none.
    pub shadow: Option<Arc<ShadowSidecar>>,
}

impl CatalogEntry {
    fn new(sketch: MncSketch, file_bytes: u64) -> Self {
        CatalogEntry {
            synopsis: Arc::new(Synopsis::Mnc(MncSynopsis { sketch })),
            file_bytes,
            shadow: None,
        }
    }

    /// The resident sketch (metadata, export).
    pub fn sketch(&self) -> &MncSketch {
        match &*self.synopsis {
            Synopsis::Mnc(s) => &s.sketch,
            _ => unreachable!("catalog entries hold MNC synopses only"),
        }
    }
}

/// A directory of named, persistent MNC sketches with an in-memory index.
#[derive(Debug)]
pub struct SynopsisCatalog {
    dir: PathBuf,
    entries: BTreeMap<String, CatalogEntry>,
    /// Sketches built from raw matrix data since `open` (not loads, not
    /// pre-serialized ingests).
    rebuilds: u64,
    /// Files quarantined by the last `open` (name stems).
    quarantined: Vec<String>,
}

impl SynopsisCatalog {
    /// Opens (creating if needed) the catalog at `dir` and loads every
    /// decodable `.mncs` file. Leftover `.tmp` files are removed; files
    /// that fail to decode are renamed to `.mncs.corrupt` and listed in
    /// [`Self::quarantined`].
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ServiceError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| ServiceError::Degraded(format!("create {}: {e}", dir.display())))?;
        let mut entries = BTreeMap::new();
        let mut quarantined = Vec::new();
        let mut sidecars: Vec<(String, PathBuf)> = Vec::new();
        let listing = fs::read_dir(&dir)
            .map_err(|e| ServiceError::Degraded(format!("read {}: {e}", dir.display())))?;
        for item in listing.flatten() {
            let path = item.path();
            let Some(fname) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            if fname.ends_with(TMP_SUFFIX) {
                // A crash mid-write; the rename never happened, so the
                // durable state is simply "entry absent".
                let _ = fs::remove_file(&path);
                continue;
            }
            if let Some(stem) = fname.strip_suffix(&format!(".{SIDECAR_EXT}")) {
                if validate_name(stem).is_ok() {
                    // Decoded in a second pass, once the primary entries are
                    // known: a sidecar only makes sense next to its sketch.
                    sidecars.push((stem.to_string(), path));
                }
                continue;
            }
            let Some(stem) = fname.strip_suffix(&format!(".{EXT}")) else {
                continue; // foreign file (including `.corrupt` quarantines)
            };
            if validate_name(stem).is_err() {
                continue;
            }
            match fs::read(&path)
                .map_err(|e| e.to_string())
                .and_then(|bytes| {
                    from_bytes(&bytes)
                        .map(|s| (s, bytes.len() as u64))
                        .map_err(|e| e.to_string())
                }) {
                Ok((sketch, file_bytes)) => {
                    entries.insert(stem.to_string(), CatalogEntry::new(sketch, file_bytes));
                }
                Err(_) => {
                    let mut quarantine = path.clone();
                    quarantine.set_file_name(format!("{fname}{CORRUPT_SUFFIX}"));
                    let _ = fs::rename(&path, &quarantine);
                    quarantined.push(stem.to_string());
                }
            }
        }
        // Second pass: attach shadow sidecars to their entries. Orphans
        // (sidecar without a sketch) are removed — their entry is gone, so
        // the alternate synopses describe nothing. Undecodable sidecars are
        // quarantined like sketches, listed under their full file name so
        // they never shadow a `.mncs` quarantine of the same stem.
        for (stem, path) in sidecars {
            let Some(entry) = entries.get_mut(&stem) else {
                let _ = fs::remove_file(&path);
                continue;
            };
            match fs::read(&path).ok().and_then(|b| sidecar::decode(&b)) {
                Some(shadow) => entry.shadow = Some(Arc::new(shadow)),
                None => {
                    let mut quarantine = path.clone();
                    let fname = format!("{stem}.{SIDECAR_EXT}");
                    quarantine.set_file_name(format!("{fname}{CORRUPT_SUFFIX}"));
                    let _ = fs::rename(&path, &quarantine);
                    quarantined.push(fname);
                }
            }
        }
        Ok(SynopsisCatalog {
            dir,
            entries,
            rebuilds: 0,
            quarantined,
        })
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stores `sketch` under `name`, persisting it atomically
    /// (tmp + rename). `built` says whether the sketch was constructed from
    /// raw matrix data just now (true increments the rebuild counter) or
    /// arrived pre-serialized. Replaces any existing entry. The sketch is
    /// taken over without a copy unless the caller still shares it.
    pub fn put(
        &mut self,
        name: &str,
        sketch: Arc<MncSketch>,
        built: bool,
    ) -> Result<&CatalogEntry, ServiceError> {
        validate_name(name)?;
        let bytes = to_bytes(&sketch);
        let final_path = self.entry_path(name);
        let tmp_path = self.dir.join(format!("{name}.{EXT}{TMP_SUFFIX}"));
        fs::write(&tmp_path, &bytes)
            .and_then(|()| fs::rename(&tmp_path, &final_path))
            .map_err(|e| ServiceError::Degraded(format!("persist {name}: {e}")))?;
        if built {
            self.rebuilds += 1;
        }
        // The new sketch replaces whatever was there; a sidecar built from
        // the *old* raw data would silently describe the wrong matrix.
        let _ = fs::remove_file(self.sidecar_path(name));
        let sketch = Arc::try_unwrap(sketch).unwrap_or_else(|s| (*s).clone());
        let entry = CatalogEntry::new(sketch, bytes.len() as u64);
        self.entries.insert(name.to_string(), entry);
        Ok(&self.entries[name])
    }

    /// Stores `name` like [`Self::put`] (raw-data build, so `built == true`)
    /// and persists the shadow sidecar next to it with the same tmp + rename
    /// discipline, so a restart restores both without rebuilding either.
    pub fn put_with_shadow(
        &mut self,
        name: &str,
        sketch: Arc<MncSketch>,
        shadow: ShadowSidecar,
    ) -> Result<&CatalogEntry, ServiceError> {
        self.put(name, sketch, true)?;
        let bytes = sidecar::encode(&shadow);
        let final_path = self.sidecar_path(name);
        let tmp_path = self.dir.join(format!("{name}.{SIDECAR_EXT}{TMP_SUFFIX}"));
        fs::write(&tmp_path, &bytes)
            .and_then(|()| fs::rename(&tmp_path, &final_path))
            .map_err(|e| ServiceError::Degraded(format!("persist {name} sidecar: {e}")))?;
        let entry = self.entries.get_mut(name).expect("just inserted");
        entry.shadow = Some(Arc::new(shadow));
        Ok(&self.entries[name])
    }

    /// The shadow sidecar under `name`, if one was ingested or restored.
    pub fn shadow(&self, name: &str) -> Option<Arc<ShadowSidecar>> {
        self.entries.get(name).and_then(|e| e.shadow.clone())
    }

    /// Number of entries carrying a shadow sidecar.
    pub fn shadow_count(&self) -> usize {
        self.entries.values().filter(|e| e.shadow.is_some()).count()
    }

    /// The entry under `name`, if present.
    pub fn get(&self, name: &str) -> Option<&CatalogEntry> {
        self.entries.get(name)
    }

    /// A **copy** of the sketch under `name`, for callers outside the
    /// daemon that want an owned sketch. The daemon never calls it: its
    /// estimates share the resident [`Self::synopsis`].
    pub fn sketch(&self, name: &str) -> Option<Arc<MncSketch>> {
        self.entries.get(name).map(|e| Arc::new(e.sketch().clone()))
    }

    /// The resident synopsis under `name`, shared — what the daemon's
    /// estimates hand to the walk.
    pub fn synopsis(&self, name: &str) -> Option<Arc<Synopsis>> {
        self.entries.get(name).map(|e| Arc::clone(&e.synopsis))
    }

    /// Serialized bytes for `name` (re-encoded from the resident sketch —
    /// bit-identical to the file contents by the round-trip guarantee).
    pub fn bytes(&self, name: &str) -> Option<Vec<u8>> {
        self.entries.get(name).map(|e| to_bytes(e.sketch()))
    }

    /// Removes `name` from the index and disk. Returns whether it existed.
    pub fn remove(&mut self, name: &str) -> Result<bool, ServiceError> {
        if self.entries.remove(name).is_none() {
            return Ok(false);
        }
        let _ = fs::remove_file(self.sidecar_path(name));
        match fs::remove_file(self.entry_path(name)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(true),
            Err(e) => Err(ServiceError::Degraded(format!("remove {name}: {e}"))),
        }
    }

    /// Entry names in sorted order with their entries.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &CatalogEntry)> {
        self.entries.iter().map(|(n, e)| (n.as_str(), e))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sketches built from raw matrix data since `open`.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Name stems quarantined by `open` (undecodable files).
    pub fn quarantined(&self) -> &[String] {
        &self.quarantined
    }

    fn entry_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.{EXT}"))
    }

    fn sidecar_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.{SIDECAR_EXT}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_matrix::gen;
    use rand::SeedableRng;

    fn sketch(seed: u64) -> Arc<MncSketch> {
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        Arc::new(MncSketch::build(&gen::rand_uniform(&mut r, 20, 16, 0.2)))
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mnc-catalog-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn name_validation() {
        assert!(validate_name("A").is_ok());
        assert!(validate_name("weights_v2.block-3").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name(".hidden").is_err());
        assert!(validate_name("..").is_err());
        assert!(validate_name("a/b").is_err());
        assert!(validate_name("a b").is_err());
        assert!(validate_name(&"x".repeat(MAX_NAME_LEN + 1)).is_err());
    }

    #[test]
    fn put_get_remove_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut cat = SynopsisCatalog::open(&dir).unwrap();
        let s = sketch(1);
        cat.put("A", Arc::clone(&s), true).unwrap();
        assert_eq!(cat.rebuilds(), 1);
        assert_eq!(&*cat.sketch("A").unwrap(), &*s);
        assert!(cat.remove("A").unwrap());
        assert!(!cat.remove("A").unwrap());
        assert!(cat.sketch("A").is_none());
        assert!(!dir.join("A.mncs").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_restores_without_rebuilds() {
        let dir = tmpdir("reopen");
        {
            let mut cat = SynopsisCatalog::open(&dir).unwrap();
            cat.put("A", sketch(2), true).unwrap();
            cat.put("B", sketch(3), false).unwrap();
            assert_eq!(cat.rebuilds(), 1);
        }
        let cat = SynopsisCatalog::open(&dir).unwrap();
        assert_eq!(cat.len(), 2);
        assert_eq!(cat.rebuilds(), 0, "reload must not count as rebuild");
        assert_eq!(&*cat.sketch("A").unwrap(), &*sketch(2));
        assert_eq!(&*cat.sketch("B").unwrap(), &*sketch(3));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_tmp_files_are_swept_on_open() {
        let dir = tmpdir("tmpsweep");
        {
            let mut cat = SynopsisCatalog::open(&dir).unwrap();
            cat.put("A", sketch(4), false).unwrap();
        }
        // Simulate a crash mid-write: a half-written tmp next to a good file.
        fs::write(dir.join("B.mncs.tmp"), b"partial").unwrap();
        let cat = SynopsisCatalog::open(&dir).unwrap();
        assert_eq!(cat.len(), 1);
        assert!(cat.get("A").is_some());
        assert!(!dir.join("B.mncs.tmp").exists(), "tmp must be swept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_files_are_quarantined_not_fatal() {
        let dir = tmpdir("quarantine");
        {
            let mut cat = SynopsisCatalog::open(&dir).unwrap();
            cat.put("good", sketch(5), false).unwrap();
        }
        // Truncate one valid file and plant one garbage file.
        let good_bytes = fs::read(dir.join("good.mncs")).unwrap();
        fs::write(dir.join("cut.mncs"), &good_bytes[..good_bytes.len() / 2]).unwrap();
        fs::write(dir.join("junk.mncs"), b"not a sketch at all").unwrap();
        // A well-framed sketch whose first row count exceeds its columns.
        let mut lie = good_bytes.clone();
        lie[24..28].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(dir.join("lie.mncs"), &lie).unwrap();
        let cat = SynopsisCatalog::open(&dir).unwrap();
        assert_eq!(cat.len(), 1);
        assert!(cat.get("good").is_some());
        let mut q = cat.quarantined().to_vec();
        q.sort();
        assert_eq!(q, ["cut", "junk", "lie"]);
        assert!(dir.join("cut.mncs.corrupt").exists());
        assert!(dir.join("junk.mncs.corrupt").exists());
        assert!(dir.join("lie.mncs.corrupt").exists());
        // Quarantined files do not resurrect on the next open.
        let again = SynopsisCatalog::open(&dir).unwrap();
        assert_eq!(again.len(), 1);
        assert!(again.quarantined().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shadow_sidecar_persists_and_reopens() {
        let dir = tmpdir("sidecar");
        let mut r = rand::rngs::StdRng::seed_from_u64(40);
        let m = Arc::new(gen::rand_uniform(&mut r, 30, 24, 0.1));
        {
            let mut cat = SynopsisCatalog::open(&dir).unwrap();
            let sk = Arc::new(MncSketch::build(&m));
            cat.put_with_shadow("A", sk, ShadowSidecar::build(&m, true))
                .unwrap();
            assert_eq!(cat.shadow_count(), 1);
        }
        assert!(dir.join("A.mncx").exists());
        let cat = SynopsisCatalog::open(&dir).unwrap();
        assert_eq!(cat.rebuilds(), 0, "sidecar reload must not rebuild");
        let shadow = cat.shadow("A").expect("sidecar restored");
        assert_eq!(shadow.bitset.count_ones(), m.nnz() as u64);
        assert_eq!(shadow.csr.as_ref().unwrap().nnz(), m.nnz());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_put_clears_stale_sidecar() {
        let dir = tmpdir("sidecar-stale");
        let mut r = rand::rngs::StdRng::seed_from_u64(41);
        let m = Arc::new(gen::rand_uniform(&mut r, 30, 24, 0.1));
        let mut cat = SynopsisCatalog::open(&dir).unwrap();
        cat.put_with_shadow(
            "A",
            Arc::new(MncSketch::build(&m)),
            ShadowSidecar::build(&m, false),
        )
        .unwrap();
        assert!(dir.join("A.mncx").exists());
        // A pre-serialized re-ingest has no raw data: the old sidecar would
        // describe the wrong matrix and must go.
        cat.put("A", sketch(42), false).unwrap();
        assert!(cat.shadow("A").is_none());
        assert!(!dir.join("A.mncx").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_deletes_sidecar_and_orphans_are_swept() {
        let dir = tmpdir("sidecar-orphan");
        let mut r = rand::rngs::StdRng::seed_from_u64(43);
        let m = Arc::new(gen::rand_uniform(&mut r, 20, 20, 0.2));
        let mut cat = SynopsisCatalog::open(&dir).unwrap();
        cat.put_with_shadow(
            "A",
            Arc::new(MncSketch::build(&m)),
            ShadowSidecar::build(&m, false),
        )
        .unwrap();
        assert!(cat.remove("A").unwrap());
        assert!(!dir.join("A.mncx").exists());
        // Plant an orphan sidecar with no matching sketch: open sweeps it.
        fs::write(
            dir.join("ghost.mncx"),
            crate::sidecar::encode(&ShadowSidecar::build(&m, false)),
        )
        .unwrap();
        let cat = SynopsisCatalog::open(&dir).unwrap();
        assert_eq!(cat.shadow_count(), 0);
        assert!(!dir.join("ghost.mncx").exists(), "orphan must be swept");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sidecar_is_quarantined_entry_survives() {
        let dir = tmpdir("sidecar-corrupt");
        {
            let mut cat = SynopsisCatalog::open(&dir).unwrap();
            cat.put("A", sketch(44), false).unwrap();
        }
        fs::write(dir.join("A.mncx"), b"definitely not a sidecar").unwrap();
        let cat = SynopsisCatalog::open(&dir).unwrap();
        assert!(cat.get("A").is_some(), "primary entry must survive");
        assert!(cat.shadow("A").is_none());
        assert_eq!(cat.quarantined(), ["A.mncx"]);
        assert!(dir.join("A.mncx.corrupt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_replaces_existing_entry() {
        let dir = tmpdir("replace");
        let mut cat = SynopsisCatalog::open(&dir).unwrap();
        cat.put("A", sketch(6), true).unwrap();
        cat.put("A", sketch(7), true).unwrap();
        assert_eq!(cat.len(), 1);
        assert_eq!(&*cat.sketch("A").unwrap(), &*sketch(7));
        assert_eq!(cat.rebuilds(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
