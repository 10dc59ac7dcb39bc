//! The content-addressed result cache: one JSON file per sweep cell,
//! named after the cell's [`cell_key`](mobic_scenario::cell_key), with
//! an in-memory `BTreeMap` index loaded at startup.
//!
//! The cache stores the **exact bytes** of
//! [`SweepOutcome::to_json_pretty`] — the same serialization
//! `mobic-cli sweep --out` writes — so a cached cell is
//! indistinguishable from a freshly computed one. Files that fail to
//! parse (truncated, corrupted, or foreign) are ignored at load and
//! lookup time: a damaged cell is recomputed, never served.
//!
//! A PR-4 `--out` directory doubles as a warm cache: its
//! `cell_<algorithm>_tx<x>.json` files are matched by name on lookup,
//! verified against the requesting cell's shape, and adopted under
//! the keyed file name (same bytes, so byte-identity is preserved).
//! Like `--resume`, this trusts the operator's assertion that the
//! directory was produced from the same base scenario.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::PathBuf;

use mobic_scenario::{SweepCell, SweepOutcome};
use mobic_trace::write_atomic;

/// The on-disk + in-memory cell cache. All writes go through
/// [`write_atomic`], so a crash mid-write never leaves a truncated
/// cell (it leaves no cell, which the parse gate treats as absent).
#[derive(Debug)]
pub struct CellCache {
    dir: PathBuf,
    /// Cell key (`fnv1a64:…`) → canonical outcome JSON.
    index: BTreeMap<String, String>,
}

/// The file name a key is stored under (`:` is not portable in file
/// names, so it becomes `-`): `fnv1a64-<16 hex digits>.json`.
fn file_name_for_key(key: &str) -> String {
    format!("{}.json", key.replace(':', "-"))
}

/// Inverse of [`file_name_for_key`] on the file stem; `None` for
/// legacy (`cell_*`) and foreign names.
fn key_from_file_stem(stem: &str) -> Option<String> {
    let hex = stem.strip_prefix("fnv1a64-")?;
    (hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()))
        .then(|| format!("fnv1a64:{hex}"))
}

impl CellCache {
    /// Opens (creating if needed) a cache directory and indexes every
    /// parseable keyed cell file in it.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] if the directory cannot be created or
    /// listed; unreadable or unparseable individual files are skipped,
    /// not fatal.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<CellCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut index = BTreeMap::new();
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let Some(key) = key_from_file_stem(stem) else {
                continue; // legacy cells are matched lazily in lookup()
            };
            let Ok(text) = fs::read_to_string(&path) else {
                continue;
            };
            if SweepOutcome::from_json(&text).is_some() {
                index.insert(key, text);
            }
        }
        Ok(CellCache { dir, index })
    }

    /// Number of indexed (keyed, parseable) cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if no cell is indexed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The canonical JSON of a cached cell, by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.index.get(key).map(String::as_str)
    }

    /// Looks a cell up by content address, falling back to the cell's
    /// legacy `--out` file name. A legacy hit is verified against the
    /// cell's shape (algorithm, x, seed count), re-indexed under the
    /// keyed name with its exact bytes, and served.
    #[must_use]
    pub fn lookup(&mut self, cell: &SweepCell) -> Option<String> {
        let key = cell.key();
        if let Some(text) = self.index.get(&key) {
            return Some(text.clone());
        }
        let legacy = self.dir.join(cell.legacy_file_name());
        let text = fs::read_to_string(legacy).ok()?;
        if !cell.has_shape_of(&SweepOutcome::from_json(&text)?) {
            return None;
        }
        // Adoption is an optimization; if the keyed copy cannot be
        // written the legacy file still serves this lookup.
        let _ = self.put(&key, &text);
        Some(text)
    }

    /// Stores a cell: atomic write to disk, then index. The JSON must
    /// be the canonical [`SweepOutcome::to_json_pretty`] bytes.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] if the atomic write fails; the index
    /// is only updated after the file landed.
    pub fn put(&mut self, key: &str, json: &str) -> io::Result<()> {
        write_atomic(self.dir.join(file_name_for_key(key)), json)?;
        self.index.insert(key.to_string(), json.to_string());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_and_file_name_round_trip() {
        let key = "fnv1a64:0123456789abcdef";
        let name = file_name_for_key(key);
        assert_eq!(name, "fnv1a64-0123456789abcdef.json");
        assert_eq!(
            key_from_file_stem("fnv1a64-0123456789abcdef").as_deref(),
            Some(key)
        );
    }

    #[test]
    fn foreign_and_legacy_stems_are_not_keys() {
        assert_eq!(key_from_file_stem("cell_mobic_tx150"), None);
        assert_eq!(key_from_file_stem("fnv1a64-short"), None);
        assert_eq!(key_from_file_stem("fnv1a64-zzzzzzzzzzzzzzzz"), None);
        assert_eq!(key_from_file_stem("notes"), None);
    }
}
