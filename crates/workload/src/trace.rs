//! Corpus export as a real directory tree, and the directory walk that
//! reads one back.
//!
//! Experiments normally generate the corpus in memory, but a corpus can be
//! materialised to disk (to inspect it, feed it to an external tool, or
//! back it up through the CLI or the daemon) and walked the way
//! `mhd backup` reads a directory.

use std::io;
use std::path::{Path, PathBuf};

use crate::Corpus;

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

        let mut files: Vec<_> = corpus.snapshots.iter().flat_map(|s| &s.files).collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        let walked = walk_dir(&root).unwrap();
        assert_eq!(walked.len(), files.len());
        for ((path, rel), file) in walked.iter().zip(files) {
            assert_eq!(rel, &file.path);
            assert_eq!(std::fs::read(path).unwrap(), file.data);
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
}
