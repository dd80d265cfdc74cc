//! Corpus export/import as a real directory tree.
//!
//! Experiments normally generate the corpus in memory, but a corpus can be
//! materialised to disk (to inspect it, feed it to an external tool, or
//! pin down a dataset for cross-machine comparison) and read back — or a
//! tree of *real* backup images laid out the same way (`m<i>/d<day>/...`)
//! can be imported and driven through the engines.

use std::io;
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::{Corpus, FileEntry, Snapshot};

/// Writes every stream of `corpus` under `root` as
/// `root/m<machine>/d<day>/f<index>`.
pub fn export_to_dir(corpus: &Corpus, root: &Path) -> io::Result<()> {
    for snapshot in &corpus.snapshots {
        for file in &snapshot.files {
            let path = root.join(&file.path);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(path, &file.data)?;
        }
    }
    Ok(())
}

/// Reads a `m<machine>/d<day>/...` tree back into backup streams, in the
/// same day-major order the generator produces.
pub fn import_from_dir(root: &Path) -> io::Result<Vec<Snapshot>> {
    let mut cells: Vec<(usize, usize, Vec<FileEntry>)> = Vec::new();

    let mut machines: Vec<_> =
        std::fs::read_dir(root)?.filter_map(|e| e.ok()).filter(|e| e.path().is_dir()).collect();
    machines.sort_by_key(|e| e.file_name());
    for m_entry in machines {
        let m_name = m_entry.file_name().to_string_lossy().into_owned();
        let Some(machine) = m_name.strip_prefix('m').and_then(|s| s.parse().ok()) else {
            continue; // not part of a trace layout
        };
        let mut days: Vec<_> = std::fs::read_dir(m_entry.path())?
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_dir())
            .collect();
        days.sort_by_key(|e| e.file_name());
        for d_entry in days {
            let d_name = d_entry.file_name().to_string_lossy().into_owned();
            let Some(day) = d_name.strip_prefix('d').and_then(|s| s.parse().ok()) else {
                continue;
            };
            let mut files: Vec<_> = std::fs::read_dir(d_entry.path())?
                .filter_map(|e| e.ok())
                .filter(|e| e.path().is_file())
                .collect();
            // f0, f1, ... f10 must sort numerically, not lexically.
            files.sort_by_key(|e| {
                e.file_name()
                    .to_string_lossy()
                    .strip_prefix('f')
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or(u64::MAX)
            });
            let entries = files
                .into_iter()
                .map(|f| {
                    Ok(FileEntry {
                        path: format!("m{machine}/d{day}/{}", f.file_name().to_string_lossy()),
                        data: Bytes::from(std::fs::read(f.path())?),
                    })
                })
                .collect::<io::Result<Vec<_>>>()?;
            cells.push((machine, day, entries));
        }
    }
    // Day-major, then machine order — the backup schedule.
    cells.sort_by_key(|(m, d, _)| (*d, *m));
    Ok(cells.into_iter().map(|(machine, day, files)| Snapshot { machine, day, files }).collect())
}

/// Every regular file under `dir`, recursively (symlinks and specials
/// are skipped), sorted by path: each with its name relative to `dir`,
/// `/`-separated on every platform. How `mhd backup` and
/// `mhd client backup` read a directory.
pub fn walk_dir(dir: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    let mut files = Vec::new();
    let mut dirs = vec![dir.to_path_buf()];
    while let Some(next) = dirs.pop() {
        for entry in std::fs::read_dir(&next)? {
            let entry = entry?;
            let (ty, path) = (entry.file_type()?, entry.path());
            if ty.is_dir() {
                dirs.push(path);
            } else if ty.is_file() {
                let rel = path.strip_prefix(dir).unwrap_or(&path).to_string_lossy();
                let rel = rel.replace('\\', "/");
                files.push((path, rel));
            }
        }
    }
    files.sort();
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusSpec;

    #[test]
    fn export_import_round_trip() {
        let corpus = Corpus::generate(CorpusSpec::tiny(61));
        let root = std::env::temp_dir().join(format!("mhd-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        export_to_dir(&corpus, &root).unwrap();

        let imported = import_from_dir(&root).unwrap();
        assert_eq!(imported.len(), corpus.snapshots.len());
        for (a, b) in imported.iter().zip(&corpus.snapshots) {
            assert_eq!(a.machine, b.machine);
            assert_eq!(a.day, b.day);
            assert_eq!(a.files, b.files);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn walk_dir_is_sorted_recursive_and_relative() {
        let root = std::env::temp_dir().join(format!("mhd-trace-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("b/deep")).unwrap();
        for name in ["z", "b/deep/x", "b/a"] {
            std::fs::write(root.join(name), name).unwrap();
        }
        let walked = walk_dir(&root).unwrap();
        let names: Vec<&str> = walked.iter().map(|(_, rel)| rel.as_str()).collect();
        assert_eq!(names, ["b/a", "b/deep/x", "z"]);
        assert!(walked.iter().all(|(path, rel)| std::fs::read(path).unwrap() == rel.as_bytes()));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn import_ignores_foreign_directories() {
        let root = std::env::temp_dir().join(format!("mhd-trace-foreign-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("not-a-machine")).unwrap();
        std::fs::create_dir_all(root.join("m0/d0")).unwrap();
        std::fs::write(root.join("m0/d0/f0"), b"data").unwrap();
        let imported = import_from_dir(&root).unwrap();
        assert_eq!(imported.len(), 1);
        assert_eq!(&imported[0].files[0].data[..], b"data");
        std::fs::remove_dir_all(&root).unwrap();
    }
}
