//! Operational observability for the mhd-dedup workspace.
//!
//! The paper's evaluation reasons from end-of-run aggregates (DER,
//! MetaDataRatio, ThroughputRatio); this crate makes the *inside* of a run
//! visible: where time goes per pipeline stage, how chunk sizes and probe
//! latencies distribute, and how often the MHD-specific events (Hook hits,
//! BME extensions, HHR splits) fire. Three aggregate primitives cover the
//! "how much" side:
//!
//! * [`Counter`] — a monotonically increasing atomic event count;
//! * [`Histogram`] — log₂-bucketed value distribution (sizes, latencies)
//!   with count/sum/min/max;
//! * [`Span`] — an RAII timer recording elapsed nanoseconds into a
//!   histogram, used for per-stage occupancy.
//!
//! All three live in a global, name-interned registry so instrumentation
//! points need no plumbing: `obs::counter!("mhd.hook_hit").inc()` anywhere
//! in the workspace contributes to the same metric, and
//! [`snapshot`] serializes the whole registry as one [`Snapshot`].
//!
//! # Scopes — run attribution without process restarts
//!
//! The registry is cumulative per process, which is useless for multi-run
//! exhibits (table1 runs four engines back to back). [`crate::scope!`]
//! pushes a label (`"engine=mhd"`, `"shard=3"`) onto a thread-aware stack;
//! every counter increment and histogram record made while the scope guard
//! lives is attributed to that scope *as well as* the global registry.
//! [`Snapshot::scopes`] then carries one sub-snapshot per label, and
//! [`Snapshot::diff`] isolates deltas between two snapshots. Scopes are
//! per-thread; [`scope_labels`]/[`enter_scopes`] re-establish the current
//! attribution on helper threads (front-end workers, shard workers).
//!
//! # Traces — the "when and where" side
//!
//! [`trace`] records typed [`TraceEvent`]s (chunk emissions, Hook hits,
//! BME extensions, HHR splits, cache evictions, stage begin/end pairs)
//! with monotonic timestamps into bounded per-thread ring buffers.
//! Tracing is off until [`trace_start`] flips it on; [`trace_drain`]
//! collects the merged, time-sorted event list, exportable as JSONL
//! ([`trace_to_jsonl`]) or Chrome `trace_event` JSON ([`trace_to_chrome`],
//! loadable in `about:tracing` / [Perfetto](https://ui.perfetto.dev)).
//!
//! # The `obs` feature — no-op-when-disabled guarantee
//!
//! Everything here is compiled behind the `obs` cargo feature. With the
//! feature **off** (the default), the macros expand to zero-sized no-ops:
//! no atomics, no clock reads, no registry, and the optimizer removes the
//! calls entirely — library crates can therefore instrument
//! unconditionally. With the feature **on** (enabled by the CLI, the bench
//! harness and the integration tests), recording costs one relaxed atomic
//! RMW per event plus one `Instant::now()` pair per span; scope
//! attribution adds one relaxed load when no scope is active anywhere.
//!
//! ```
//! let chunks = mhd_obs::counter!("example.chunks");
//! chunks.inc();
//! let sizes = mhd_obs::histogram!("example.chunk_bytes");
//! sizes.record(4096);
//! {
//!     let _timer = mhd_obs::span!("example.stage_ns");
//!     // ... timed work ...
//! }
//! {
//!     let _scope = mhd_obs::scope!("engine=example");
//!     chunks.inc(); // counted globally AND under "engine=example"
//! }
//! let snap = mhd_obs::snapshot();
//! # #[cfg(feature = "obs")]
//! assert_eq!(snap.counter("example.chunks"), 2);
//! # #[cfg(feature = "obs")]
//! assert_eq!(snap.scope("engine=example").unwrap().counter("example.chunks"), 1);
//! ```

#![forbid(unsafe_code)]

use serde::{Deserialize, Serialize};

#[cfg(feature = "obs")]
mod enabled;
#[cfg(feature = "obs")]
pub use enabled::{counter, histogram, reset, snapshot, Counter, Histogram, Span};

#[cfg(not(feature = "obs"))]
mod disabled;
#[cfg(not(feature = "obs"))]
pub use disabled::{counter, histogram, reset, snapshot, Counter, Histogram, Span};

mod scope;
pub use scope::{enter_scopes, scope_labels, Scope};

mod trace;
pub use trace::{
    stage, trace, trace_buffer_count, trace_drain, trace_from_jsonl, trace_start, trace_stop,
    trace_to_chrome, trace_to_jsonl, tracing, ExtendDir, TraceEvent, TraceRecord, TraceStage,
    DEFAULT_TRACE_CAPACITY,
};

/// Returns the [`Counter`] registered under a `&'static str` name, cached
/// per call site (one `OnceLock` lookup ever; afterwards a plain static
/// read). Expands to a no-op handle with the `obs` feature off.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::counter($name))
    }};
}

/// Returns the [`Counter`] registered under a `&'static str` name, cached
/// per call site (one `OnceLock` lookup ever; afterwards a plain static
/// read). Expands to a no-op handle with the `obs` feature off.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        let _ = $name;
        $crate::Counter::noop()
    }};
}

/// Returns the [`Histogram`] registered under a `&'static str` name,
/// cached per call site. Expands to a no-op handle with the `obs` feature
/// off.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::histogram($name))
    }};
}

/// Returns the [`Histogram`] registered under a `&'static str` name,
/// cached per call site. Expands to a no-op handle with the `obs` feature
/// off.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        let _ = $name;
        $crate::Histogram::noop()
    }};
}

/// Opens an RAII [`Span`] timing the enclosing scope into the named
/// histogram (recorded in nanoseconds on drop). With the `obs` feature off
/// this is a zero-sized value and no clock is read.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter($crate::histogram!($name))
    };
}

/// Enters a labelled attribution [`Scope`] on the current thread; the
/// label is built `format!`-style (`scope!("shard={idx}")`). Metrics
/// recorded while the returned guard lives are additionally attributed to
/// the label's sub-registry (see [`Snapshot::scopes`]). Guards must drop
/// in LIFO order (bind to a named `_scope`, not `_`). With the `obs`
/// feature off the format arguments are not evaluated and the guard is
/// zero-sized.
#[cfg(feature = "obs")]
#[macro_export]
macro_rules! scope {
    ($($arg:tt)*) => {
        $crate::Scope::enter(::std::format!($($arg)*))
    };
}

/// Enters a labelled attribution [`Scope`] on the current thread; the
/// label is built `format!`-style (`scope!("shard={idx}")`). Metrics
/// recorded while the returned guard lives are additionally attributed to
/// the label's sub-registry (see [`Snapshot::scopes`]). Guards must drop
/// in LIFO order (bind to a named `_scope`, not `_`). With the `obs`
/// feature off the format arguments are not evaluated and the guard is
/// zero-sized.
#[cfg(not(feature = "obs"))]
#[macro_export]
macro_rules! scope {
    ($($arg:tt)*) => {{
        if false {
            let _ = ::std::format_args!($($arg)*);
        }
        $crate::Scope::noop()
    }};
}

/// Number of histogram buckets: bucket `b` counts values whose bit length
/// is `b` (i.e. `v == 0` → bucket 0, `v ∈ [2^(b-1), 2^b)` → bucket `b`).
pub const BUCKETS: usize = 65;

/// Maps a value to its log₂ bucket index (its bit length).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// A point-in-time, serializable copy of every registered metric.
///
/// Metrics are sorted by name — the invariant behind the
/// `binary_search_by` lookups in [`Snapshot::counter`] /
/// [`Snapshot::histogram`] — so two snapshots of identical state compare
/// equal and serialize identically. [`Snapshot::scopes`] carries one
/// sub-snapshot per attribution label, sorted by label.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Snapshot {
    /// Every registered counter, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Every registered histogram, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Per-scope sub-snapshots, sorted by scope label. A scope's metrics
    /// accumulate for the process lifetime (re-entering `engine=mhd`
    /// resumes its tallies); sub-snapshots never nest further.
    pub scopes: Vec<(String, Snapshot)>,
}

/// One counter's state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnapshot {
    /// Registered metric name (dotted, e.g. `"mhd.hook_hit"`).
    pub name: String,
    /// Total count at snapshot time.
    pub value: u64,
}

/// One histogram's state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Registered metric name (dotted, e.g. `"frontend.wait_ns"`).
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (saturating).
    pub sum: u64,
    /// Smallest recorded value (0 when `count == 0`).
    pub min: u64,
    /// Largest recorded value (0 when `count == 0`).
    pub max: u64,
    /// Non-empty log₂ buckets as `(bit_length, count)` pairs — see
    /// [`bucket_index`].
    pub buckets: Vec<(u32, u64)>,
}

impl Snapshot {
    /// Whether the snapshot contains no metrics at all (always true with
    /// the `obs` feature disabled).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.scopes.is_empty()
    }

    /// Looks up a counter value by name (0 when absent). Binary search on
    /// the sorted-by-name invariant.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|c| c.name.as_str().cmp(name))
            .map_or(0, |i| self.counters[i].value)
    }

    /// Looks up a histogram by name. Binary search on the sorted-by-name
    /// invariant.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|h| h.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i])
    }

    /// Looks up a scope's sub-snapshot by label. Binary search on the
    /// sorted-by-label invariant.
    pub fn scope(&self, label: &str) -> Option<&Snapshot> {
        self.scopes.binary_search_by(|(l, _)| l.as_str().cmp(label)).ok().map(|i| &self.scopes[i].1)
    }

    /// The delta of `self` over an earlier `baseline` snapshot: counters
    /// and histogram counts/sums/buckets are subtracted pairwise
    /// (saturating), letting exhibits isolate one run's contribution
    /// without resetting the registry. `min`/`max` are not recoverable
    /// from two cumulative states and are carried over from `self`;
    /// scopes are diffed per matching label.
    pub fn diff(&self, baseline: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|c| CounterSnapshot {
                name: c.name.clone(),
                value: c.value.saturating_sub(baseline.counter(&c.name)),
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                let Some(b) = baseline.histogram(&h.name) else { return h.clone() };
                HistogramSnapshot {
                    name: h.name.clone(),
                    count: h.count.saturating_sub(b.count),
                    sum: h.sum.saturating_sub(b.sum),
                    min: h.min,
                    max: h.max,
                    buckets: h
                        .buckets
                        .iter()
                        .map(|&(bit, n)| {
                            let base =
                                b.buckets.iter().find(|(bb, _)| *bb == bit).map_or(0, |(_, n)| *n);
                            (bit, n.saturating_sub(base))
                        })
                        .filter(|&(_, n)| n > 0)
                        .collect(),
                }
            })
            .collect();
        let scopes = self
            .scopes
            .iter()
            .map(|(label, snap)| {
                let diffed = match baseline.scope(label) {
                    Some(base) => snap.diff(base),
                    None => snap.clone(),
                };
                (label.clone(), diffed)
            })
            .collect();
        Snapshot { counters, histograms, scopes }
    }
}

impl HistogramSnapshot {
    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q ∈ [0, 1]`) from the log₂ buckets by
    /// linear interpolation inside the covering bucket, clamped to the
    /// recorded `[min, max]`. Bucket `b` spans `[2^(b-1), 2^b)`, so the
    /// estimate's relative error is bounded by the bucket width (at worst
    /// a factor of 2); exact for `count == 0` (returns 0) and tightened by
    /// the min/max clamp at the distribution edges.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for &(bit, n) in &self.buckets {
            cum += n;
            if cum as f64 >= target {
                if bit == 0 {
                    return 0.0; // bucket 0 holds only the value 0
                }
                let lo = ((bit - 1) as f64).exp2();
                let hi = (bit as f64).exp2();
                let frac = (target - (cum - n) as f64) / n as f64;
                let est = lo + frac.clamp(0.0, 1.0) * (hi - lo);
                return est.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Estimated median — `quantile(0.5)`.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Estimated 90th percentile — `quantile(0.9)`.
    pub fn p90(&self) -> f64 {
        self.quantile(0.9)
    }

    /// Estimated 99th percentile — `quantile(0.99)`.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_round_trip() {
        let snap = Snapshot {
            counters: vec![CounterSnapshot { name: "a.events".into(), value: u64::MAX }],
            histograms: vec![HistogramSnapshot {
                name: "a.bytes".into(),
                count: 3,
                sum: 4097,
                min: 0,
                max: 4096,
                buckets: vec![(0, 1), (1, 1), (13, 1)],
            }],
            scopes: vec![(
                "engine=mhd".to_string(),
                Snapshot {
                    counters: vec![CounterSnapshot { name: "a.events".into(), value: 7 }],
                    histograms: vec![],
                    scopes: vec![],
                },
            )],
        };
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert!(!back.is_empty());
        assert_eq!(back.counter("a.events"), u64::MAX);
        assert_eq!(back.histogram("a.bytes").unwrap().mean(), 4097.0 / 3.0);
        assert_eq!(back.scope("engine=mhd").unwrap().counter("a.events"), 7);
        assert!(back.scope("engine=absent").is_none());
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Snapshot::default();
        assert!(snap.is_empty());
        let back: Snapshot = serde_json::from_str(&serde_json::to_string(&snap).unwrap()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn lookups_honour_the_sorted_invariant() {
        // Many names, inserted sorted (the registry invariant): every one
        // must be found by the binary-search lookups, and absent names
        // (before, between, after) must miss.
        let names: Vec<String> = (0..50).map(|i| format!("m.{i:03}")).collect();
        let snap = Snapshot {
            counters: names
                .iter()
                .enumerate()
                .map(|(i, n)| CounterSnapshot { name: n.clone(), value: i as u64 + 1 })
                .collect(),
            histograms: names
                .iter()
                .enumerate()
                .map(|(i, n)| HistogramSnapshot {
                    name: n.clone(),
                    count: i as u64 + 1,
                    sum: 0,
                    min: 0,
                    max: 0,
                    buckets: vec![],
                })
                .collect(),
            scopes: names.iter().map(|n| (format!("scope={n}"), Snapshot::default())).collect(),
        };
        assert!(snap.counters.windows(2).all(|w| w[0].name < w[1].name), "fixture sorted");
        for (i, n) in names.iter().enumerate() {
            assert_eq!(snap.counter(n), i as u64 + 1, "{n}");
            assert_eq!(snap.histogram(n).unwrap().count, i as u64 + 1, "{n}");
            assert!(snap.scope(&format!("scope={n}")).is_some(), "{n}");
        }
        assert_eq!(snap.counter("a.before"), 0);
        assert_eq!(snap.counter("m.0005x"), 0);
        assert_eq!(snap.counter("z.after"), 0);
        assert!(snap.histogram("z.after").is_none());
        assert!(snap.scope("z.after").is_none());
    }

    #[test]
    fn diff_isolates_a_run() {
        let baseline = Snapshot {
            counters: vec![CounterSnapshot { name: "c".into(), value: 10 }],
            histograms: vec![HistogramSnapshot {
                name: "h".into(),
                count: 2,
                sum: 6,
                min: 2,
                max: 4,
                buckets: vec![(2, 1), (3, 1)],
            }],
            scopes: vec![],
        };
        let later = Snapshot {
            counters: vec![
                CounterSnapshot { name: "c".into(), value: 15 },
                CounterSnapshot { name: "new".into(), value: 3 },
            ],
            histograms: vec![HistogramSnapshot {
                name: "h".into(),
                count: 5,
                sum: 30,
                min: 2,
                max: 16,
                buckets: vec![(2, 1), (3, 2), (5, 2)],
            }],
            scopes: vec![("s".to_string(), baseline.clone())],
        };
        let d = later.diff(&baseline);
        assert_eq!(d.counter("c"), 5);
        assert_eq!(d.counter("new"), 3);
        let h = d.histogram("h").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 24);
        // Zeroed buckets are dropped; changed ones keep the delta.
        assert_eq!(h.buckets, vec![(3, 1), (5, 2)]);
        // A scope absent from the baseline passes through unchanged.
        assert_eq!(d.scope("s").unwrap().counter("c"), 10);
    }

    #[test]
    fn quantile_estimates_from_buckets() {
        // 100 values of 100 (bucket 7), 10 of 1000 (bucket 10), 1 of
        // 10_000 (bucket 14).
        let h = HistogramSnapshot {
            name: "q".into(),
            count: 111,
            sum: 100 * 100 + 10 * 1000 + 10_000,
            min: 100,
            max: 10_000,
            buckets: vec![(7, 100), (10, 10), (14, 1)],
        };
        // p50 lands inside bucket 7 = [64, 128): within a factor of 2.
        let p50 = h.p50();
        assert!((64.0..128.0).contains(&p50), "p50 {p50}");
        // p99 lands in bucket 10 = [512, 1024), clamped ≤ max.
        let p99 = h.p99();
        assert!((512.0..=1024.0).contains(&p99), "p99 {p99}");
        // The extreme quantile is clamped to max.
        assert_eq!(h.quantile(1.0), 10_000.0);
        assert_eq!(h.quantile(0.0).max(100.0), 100.0, "clamped to min");
        // Empty histogram: 0.
        let empty = HistogramSnapshot {
            name: "e".into(),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![],
        };
        assert_eq!(empty.quantile(0.5), 0.0);
        // Bucket 0 (value 0) quantiles to exactly 0.
        let zeros = HistogramSnapshot {
            name: "z".into(),
            count: 4,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![(0, 4)],
        };
        assert_eq!(zeros.quantile(0.9), 0.0);
    }
}
