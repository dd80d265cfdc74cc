//! Runnable examples for the `mhd-dedup` workspace.
//!
//! * `quickstart` — deduplicate a two-day synthetic backup with BF-MHD and
//!   restore it byte-exactly.
//! * `backup_rotation` — a backup service processing daily streams,
//!   reporting per-day savings.
//! * `image_farm` — a VM-image farm (clone-heavy) comparing MHD's
//!   metadata bill against flat CDC.
//! * `algorithm_shootout` — all engines over one corpus, side by
//!   side.
//! * `on_disk_store` — the same engine running against a real directory
//!   backend instead of the in-memory substrate.
//! * `retention` — the full lifecycle: backup, retirement (GC),
//!   compaction, restore.
//!
//! Run with e.g. `cargo run --release -p mhd-examples --bin quickstart`.

#![forbid(unsafe_code)]

/// Formats a byte count in a friendly unit.
pub fn human_bytes(n: u64) -> String {
    match n {
        n if n >= 1 << 30 => format!("{:.2} GiB", n as f64 / (1u64 << 30) as f64),
        n if n >= 1 << 20 => format!("{:.2} MiB", n as f64 / (1u64 << 20) as f64),
        n if n >= 1 << 10 => format!("{:.2} KiB", n as f64 / (1u64 << 10) as f64),
        n => format!("{n} B"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert_eq!(human_bytes(3 << 20), "3.00 MiB");
        assert_eq!(human_bytes(5 << 30), "5.00 GiB");
    }
}
