//! Cross-run snapshot comparison: two `--internals` JSON files in, one
//! regression report out.
//!
//! [`Snapshot::diff`] isolates one run's contribution inside a single
//! process; this module compares *separate* runs — two snapshots written
//! by different invocations (a baseline `table1_internals.json` against a
//! candidate, or two CI runs of the same seeded exhibit). Metrics are
//! aligned by scope label and metric name; every aligned pair yields a
//! [`MetricDelta`] with absolute and relative change, and deltas past the
//! configured threshold are flagged so `mhd compare` can gate CI with a
//! nonzero exit.
//!
//! Alignment semantics:
//!
//! * counters compare their value; histograms compare their `count`
//!   (deterministic event populations) and — unless the name marks a
//!   timing (`…_ns`) — their `sum`. Timing sums are wall-clock noise
//!   across machines and runs, so they are compared only with
//!   [`CompareOptions::include_timings`].
//! * metrics present on one side only are listed as added/removed, not
//!   flagged — new instrumentation must not fail CI retroactively;
//! * scopes recurse: `engine=BF-MHD` in the baseline aligns with
//!   `engine=BF-MHD` in the candidate, and its inner metrics are reported
//!   with the scope label as a prefix.
//!
//! The threshold is symmetric (a 30% drop flags like a 30% rise): the
//! comparator gates *drift*, not goodness — whether fewer cache evictions
//! are an improvement is the reviewer's call, the tool's job is to make
//! the change impossible to miss.

use serde::Serialize;

use crate::Snapshot;

/// Tuning for [`compare_snapshots`].
#[derive(Debug, Clone)]
pub struct CompareOptions {
    /// Relative-change threshold, in percent, past which an aligned
    /// metric is flagged as a regression.
    pub fail_pct: f64,
    /// Also compare the sums of `…_ns` timing histograms (off by default:
    /// wall-clock noise).
    pub include_timings: bool,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions { fail_pct: 5.0, include_timings: false }
    }
}

/// One aligned metric's change between baseline and candidate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricDelta {
    /// Scope label (empty for the global registry).
    pub scope: String,
    /// Metric name.
    pub name: String,
    /// Which facet changed: `"value"` for counters, `"count"`/`"sum"` for
    /// histograms.
    pub facet: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub new: f64,
    /// `new - base`.
    pub delta: f64,
    /// Relative change in percent (against the baseline; an appearance
    /// from zero counts as 100%).
    pub rel_pct: f64,
    /// Whether `|rel_pct|` crossed the threshold.
    pub regressed: bool,
}

/// The cross-run report produced by [`compare_snapshots`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CompareReport {
    /// Threshold used, percent.
    pub threshold_pct: f64,
    /// Aligned metric facets compared.
    pub compared: u64,
    /// Facets flagged past the threshold.
    pub regressions: u64,
    /// Every aligned facet that changed at all, largest `|rel_pct|`
    /// first.
    pub deltas: Vec<MetricDelta>,
    /// Metric names present only in the candidate (scope-prefixed).
    pub added: Vec<String>,
    /// Metric names present only in the baseline (scope-prefixed).
    pub removed: Vec<String>,
}

impl CompareReport {
    /// True when no aligned facet crossed the threshold.
    pub fn is_clean(&self) -> bool {
        self.regressions == 0
    }

    /// Renders the report as human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "compared {} metric facet(s) at threshold {}%: {} regression(s)",
            self.compared, self.threshold_pct, self.regressions
        );
        let changed: Vec<&MetricDelta> = self.deltas.iter().collect();
        if !changed.is_empty() {
            let name_w = changed
                .iter()
                .map(|d| full_name(&d.scope, &d.name).len() + d.facet.len() + 1)
                .max()
                .unwrap_or(0);
            for d in &changed {
                let _ = writeln!(
                    out,
                    "  {:<name_w$}  {:>14} -> {:>14}  {:>+9.2}%{}",
                    format!("{}.{}", full_name(&d.scope, &d.name), d.facet),
                    d.base,
                    d.new,
                    d.rel_pct,
                    if d.regressed { "  REGRESSED" } else { "" },
                );
            }
        }
        for name in &self.added {
            let _ = writeln!(out, "  added:   {name}");
        }
        for name in &self.removed {
            let _ = writeln!(out, "  removed: {name}");
        }
        if self.deltas.is_empty() && self.added.is_empty() && self.removed.is_empty() {
            let _ = writeln!(out, "  snapshots are identical on every aligned facet");
        }
        out
    }
}

fn full_name(scope: &str, name: &str) -> String {
    if scope.is_empty() {
        name.to_string()
    } else {
        format!("[{scope}] {name}")
    }
}

/// Whether a histogram name denotes a timing (nanosecond) distribution.
fn is_timing(name: &str) -> bool {
    name.ends_with("_ns")
}

fn push_delta(
    report: &mut CompareReport,
    opts: &CompareOptions,
    scope: &str,
    name: &str,
    facet: &str,
    base: f64,
    new: f64,
) {
    report.compared += 1;
    if base == new {
        return;
    }
    let rel_pct = if base == 0.0 { 100.0 } else { (new - base) / base * 100.0 };
    let regressed = rel_pct.abs() > opts.fail_pct;
    if regressed {
        report.regressions += 1;
    }
    report.deltas.push(MetricDelta {
        scope: scope.to_string(),
        name: name.to_string(),
        facet: facet.to_string(),
        base,
        new,
        delta: new - base,
        rel_pct,
        regressed,
    });
}

fn compare_section(
    report: &mut CompareReport,
    opts: &CompareOptions,
    scope: &str,
    base: &Snapshot,
    new: &Snapshot,
) {
    for counter in &base.counters {
        match new.counters.binary_search_by(|c| c.name.as_str().cmp(&counter.name)) {
            Ok(i) => push_delta(
                report,
                opts,
                scope,
                &counter.name,
                "value",
                counter.value as f64,
                new.counters[i].value as f64,
            ),
            Err(_) => report.removed.push(full_name(scope, &counter.name)),
        }
    }
    for counter in &new.counters {
        if base.counters.binary_search_by(|c| c.name.as_str().cmp(&counter.name)).is_err() {
            report.added.push(full_name(scope, &counter.name));
        }
    }
    for hist in &base.histograms {
        let Some(other) = new.histogram(&hist.name) else {
            report.removed.push(full_name(scope, &hist.name));
            continue;
        };
        push_delta(report, opts, scope, &hist.name, "count", hist.count as f64, other.count as f64);
        if !is_timing(&hist.name) || opts.include_timings {
            push_delta(report, opts, scope, &hist.name, "sum", hist.sum as f64, other.sum as f64);
        }
    }
    for hist in &new.histograms {
        if base.histogram(&hist.name).is_none() {
            report.added.push(full_name(scope, &hist.name));
        }
    }
}

/// Compares two snapshots (typically two `--internals` JSON files) and
/// reports every aligned metric facet that drifted, flagging those past
/// `opts.fail_pct`. Scopes align by label; unmatched scopes are listed as
/// added/removed wholesale.
pub fn compare_snapshots(base: &Snapshot, new: &Snapshot, opts: &CompareOptions) -> CompareReport {
    let mut report = CompareReport { threshold_pct: opts.fail_pct, ..Default::default() };
    compare_section(&mut report, opts, "", base, new);
    for (label, sub) in &base.scopes {
        match new.scope(label) {
            Some(other) => compare_section(&mut report, opts, label, sub, other),
            None => report.removed.push(format!("[{label}] (entire scope)")),
        }
    }
    for (label, _) in &new.scopes {
        if base.scope(label).is_none() {
            report.added.push(format!("[{label}] (entire scope)"));
        }
    }
    report.deltas.sort_by(|a, b| {
        b.rel_pct
            .abs()
            .partial_cmp(&a.rel_pct.abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.scope.clone(), a.name.clone()).cmp(&(b.scope.clone(), b.name.clone())))
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterSnapshot, HistogramSnapshot};

    fn hist(name: &str, count: u64, sum: u64) -> HistogramSnapshot {
        HistogramSnapshot { name: name.into(), count, sum, min: 0, max: 0, buckets: vec![] }
    }

    fn snap(counters: Vec<(&str, u64)>, histograms: Vec<HistogramSnapshot>) -> Snapshot {
        Snapshot {
            counters: counters
                .into_iter()
                .map(|(n, v)| CounterSnapshot { name: n.into(), value: v })
                .collect(),
            histograms,
            scopes: vec![],
        }
    }

    #[test]
    fn identical_snapshots_are_clean() {
        let a = snap(vec![("c.x", 10)], vec![hist("h.bytes", 5, 500)]);
        let report = compare_snapshots(&a, &a.clone(), &CompareOptions::default());
        assert!(report.is_clean());
        assert!(report.deltas.is_empty());
        assert_eq!(report.compared, 3, "counter value + hist count + hist sum");
        assert!(report.render().contains("identical"));
    }

    #[test]
    fn regression_flags_past_threshold() {
        let base = snap(vec![("c.x", 100)], vec![]);
        let new = snap(vec![("c.x", 110)], vec![]);
        let strict =
            compare_snapshots(&base, &new, &CompareOptions { fail_pct: 5.0, ..Default::default() });
        assert_eq!(strict.regressions, 1);
        assert!(!strict.is_clean());
        assert!((strict.deltas[0].rel_pct - 10.0).abs() < 1e-9);
        let lenient = compare_snapshots(
            &base,
            &new,
            &CompareOptions { fail_pct: 15.0, ..Default::default() },
        );
        assert!(lenient.is_clean(), "10% change under a 15% threshold");
        assert_eq!(lenient.deltas.len(), 1, "still reported, just not flagged");
    }

    #[test]
    fn histogram_count_regresses_but_timing_sum_is_ignored() {
        let base = snap(vec![], vec![hist("stage.dedup_ns", 10, 1_000_000)]);
        let new = snap(vec![], vec![hist("stage.dedup_ns", 20, 9_000_000)]);
        let default = compare_snapshots(&base, &new, &CompareOptions::default());
        // The count doubled: flagged. The noisy ns sum: not even compared.
        assert_eq!(default.regressions, 1);
        assert_eq!(default.compared, 1);
        let with_timings = compare_snapshots(
            &base,
            &new,
            &CompareOptions { include_timings: true, ..Default::default() },
        );
        assert_eq!(with_timings.compared, 2);
        assert_eq!(with_timings.regressions, 2);
    }

    #[test]
    fn added_and_removed_are_informational() {
        let base = snap(vec![("old.only", 1)], vec![hist("gone_hist", 1, 1)]);
        let new = snap(vec![("new.only", 1)], vec![hist("new_hist", 1, 1)]);
        let report = compare_snapshots(&base, &new, &CompareOptions::default());
        assert!(report.is_clean(), "disjoint metrics: nothing aligned, nothing flagged");
        assert_eq!(report.removed, vec!["old.only".to_string(), "gone_hist".to_string()]);
        assert_eq!(report.added, vec!["new.only".to_string(), "new_hist".to_string()]);
    }

    #[test]
    fn scopes_align_by_label() {
        let mut base = snap(vec![("c", 1)], vec![]);
        base.scopes.push(("engine=a".into(), snap(vec![("c", 50)], vec![])));
        base.scopes.push(("engine=gone".into(), snap(vec![("c", 1)], vec![])));
        let mut new = snap(vec![("c", 1)], vec![]);
        new.scopes.push(("engine=a".into(), snap(vec![("c", 100)], vec![])));
        let report = compare_snapshots(&base, &new, &CompareOptions::default());
        let scoped = report.deltas.iter().find(|d| d.scope == "engine=a").expect("scoped delta");
        assert_eq!(scoped.base, 50.0);
        assert_eq!(scoped.new, 100.0);
        assert!(scoped.regressed);
        assert!(report.removed.iter().any(|n| n.contains("engine=gone")));
    }

    #[test]
    fn appearance_from_zero_counts_as_full_change() {
        let base = snap(vec![("c", 0)], vec![]);
        let new = snap(vec![("c", 3)], vec![]);
        let report = compare_snapshots(&base, &new, &CompareOptions::default());
        assert_eq!(report.deltas[0].rel_pct, 100.0);
        assert!(!report.is_clean());
    }

    #[test]
    fn report_serializes() {
        let base = snap(vec![("c", 1)], vec![]);
        let new = snap(vec![("c", 2)], vec![]);
        let report = compare_snapshots(&base, &new, &CompareOptions::default());
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"regressions\""));
        assert!(json.contains("\"rel_pct\""));
    }
}
