//! Substrate error type.

use std::fmt;

use crate::FileKind;

/// Result alias for substrate operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// Errors raised by the storage substrate.
#[derive(Debug)]
pub enum StoreError {
    /// The named object does not exist.
    NotFound {
        /// Object category.
        kind: FileKind,
        /// Object name.
        name: String,
    },
    /// An object with this name already exists (puts never overwrite;
    /// DiskChunks and Hooks are immutable by design).
    AlreadyExists {
        /// Object category.
        kind: FileKind,
        /// Object name.
        name: String,
    },
    /// A byte range fell outside the object.
    OutOfRange {
        /// Object name.
        name: String,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual object size.
        size: u64,
    },
    /// Stored bytes failed to decode.
    Corrupt(String),
    /// Another writer holds the store: its lock file is locked.
    Locked {
        /// The store root.
        store: String,
        /// The pid the holder wrote into the lock file (empty when it
        /// could not be read).
        holder: String,
    },
    /// Underlying I/O failure (directory backend) or injected fault.
    Io(std::io::Error),
    /// An I/O failure with the operation and path that hit it, so a full
    /// disk reports *where* it ran out, not just "No space left on device".
    IoAt {
        /// What the backend was doing (`"write"`, `"rename"`, `"fsync"`, …).
        op: &'static str,
        /// The file or directory involved.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotFound { kind, name } => write!(f, "{kind:?} {name:?} not found"),
            StoreError::AlreadyExists { kind, name } => {
                write!(f, "{kind:?} {name:?} already exists")
            }
            StoreError::OutOfRange { name, offset, len, size } => {
                write!(f, "range {offset}+{len} outside object {name:?} of size {size}")
            }
            StoreError::Corrupt(msg) => write!(f, "corrupt object: {msg}"),
            StoreError::Locked { store, holder } if holder.is_empty() => {
                write!(f, "store {store} is open for writes by another process")
            }
            StoreError::Locked { store, holder } => {
                write!(f, "store {store} is open for writes by pid {holder}")
            }
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::IoAt { op, path, source } => {
                write!(f, "I/O error: {op} {path}: {source}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::IoAt { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
