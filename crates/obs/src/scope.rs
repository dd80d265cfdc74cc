//! Labelled attribution scopes: per-run / per-shard metric isolation.
//!
//! The global registry is cumulative per process; a [`Scope`] guard
//! (entered via [`crate::scope!`]) attributes every counter increment and
//! histogram record made on the current thread, while the guard lives, to
//! a named sub-registry *in addition to* the global one. Snapshots then
//! expose one flat sub-snapshot per label
//! ([`crate::Snapshot::scopes`]), so multi-engine exhibits can separate
//! `engine=mhd` from `engine=cdc` and fleet runs can compare `shard=0`
//! against `shard=7` without process restarts or reset-and-rerun.
//!
//! Scopes nest (`engine=mhd` → `shard=3` attributes to both) and are
//! thread-local; [`scope_labels`] / [`enter_scopes`] carry the current
//! attribution onto helper threads. The cost when *no* scope is active
//! anywhere in the process is a single relaxed atomic load per metric
//! event; with the `obs` feature off the whole module compiles to
//! nothing.

#[cfg(feature = "obs")]
mod imp {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, HashMap};
    use std::marker::PhantomData;

    use crate::sync::{AtomicUsize, Mutex, OnceLock, Ordering};

    use crate::enabled::{lock_ignore_poison, Counter, Histogram, Registry};
    use crate::Snapshot;

    /// Number of live [`Scope`] guards across all threads. The fast path
    /// for unscoped processes: one relaxed load, no thread-local access.
    static ACTIVE: AtomicUsize = AtomicUsize::new(0);

    /// label → leaked per-scope registry. A label's registry (and its
    /// tallies) persists for the process lifetime; re-entering the label
    /// resumes it.
    fn scopes() -> &'static Mutex<BTreeMap<String, &'static Registry>> {
        static SCOPES: OnceLock<Mutex<BTreeMap<String, &'static Registry>>> = OnceLock::new();
        SCOPES.get_or_init(|| Mutex::new(BTreeMap::new()))
    }

    /// One entry of the thread's scope stack: the scope's registry plus
    /// per-thread caches of its metric handles (so steady-state
    /// propagation is a `HashMap` hit, not a registry lock).
    struct Frame {
        reg: &'static Registry,
        counters: HashMap<&'static str, &'static Counter>,
        histograms: HashMap<&'static str, &'static Histogram>,
    }

    thread_local! {
        static STACK: RefCell<Vec<(String, Frame)>> = const { RefCell::new(Vec::new()) };
    }

    /// RAII guard for one attribution scope on the current thread (see the
    /// module docs). Not `Send`: a scope belongs to the thread that
    /// entered it. Guards must drop in LIFO order — bind to a named
    /// variable, not `_`.
    #[must_use = "a Scope attributes metrics only while it lives; binding it to `_` drops immediately"]
    #[derive(Debug)]
    pub struct Scope {
        _not_send: PhantomData<*const ()>,
    }

    impl Scope {
        /// Enters the scope labelled `label` on the current thread.
        /// Prefer the [`crate::scope!`] macro, which keeps the label
        /// expression unevaluated when the `obs` feature is off.
        pub fn enter(label: impl Into<String>) -> Scope {
            let label = label.into();
            let reg = *lock_ignore_poison(scopes())
                .entry(label.clone())
                .or_insert_with(|| Box::leak(Box::new(Registry::new())));
            STACK.with(|s| {
                s.borrow_mut().push((
                    label,
                    Frame { reg, counters: HashMap::new(), histograms: HashMap::new() },
                ));
            });
            ACTIVE.fetch_add(1, Ordering::Relaxed);
            Scope { _not_send: PhantomData }
        }
    }

    impl Drop for Scope {
        fn drop(&mut self) {
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
            // try_with: never panic during TLS teardown at thread exit.
            let _ = STACK.try_with(|s| {
                s.borrow_mut().pop();
            });
        }
    }

    /// Whether any scope is live anywhere in the process (the guard on
    /// the metric hot paths).
    #[inline]
    pub(crate) fn any_active() -> bool {
        ACTIVE.load(Ordering::Relaxed) != 0
    }

    /// Attributes a counter delta to every distinct scope on this
    /// thread's stack.
    pub(crate) fn propagate_counter(name: &'static str, delta: u64) {
        let _ = STACK.try_with(|s| {
            let mut stack = s.borrow_mut();
            for i in 0..stack.len() {
                let reg = stack[i].1.reg;
                // A re-entered label appears twice on the stack but must
                // count once, or per-scope sums drift from the global.
                if stack[..i].iter().any(|(_, f)| std::ptr::eq(f.reg, reg)) {
                    continue;
                }
                let frame = &mut stack[i].1;
                frame.counters.entry(name).or_insert_with(|| reg.counter(name)).add_unscoped(delta);
            }
        });
    }

    /// Attributes a histogram sample to every distinct scope on this
    /// thread's stack.
    pub(crate) fn propagate_histogram(name: &'static str, value: u64) {
        let _ = STACK.try_with(|s| {
            let mut stack = s.borrow_mut();
            for i in 0..stack.len() {
                let reg = stack[i].1.reg;
                if stack[..i].iter().any(|(_, f)| std::ptr::eq(f.reg, reg)) {
                    continue;
                }
                let frame = &mut stack[i].1;
                frame
                    .histograms
                    .entry(name)
                    .or_insert_with(|| reg.histogram(name))
                    .record_unscoped(value);
            }
        });
    }

    /// One flat sub-snapshot per known scope label, sorted by label.
    pub(crate) fn scope_snapshots() -> Vec<(String, Snapshot)> {
        lock_ignore_poison(scopes())
            .iter()
            .map(|(label, reg)| (label.clone(), reg.snapshot_flat()))
            .collect()
    }

    /// Zeroes every scoped metric (labels and names stay registered).
    pub(crate) fn reset_scopes() {
        for reg in lock_ignore_poison(scopes()).values() {
            reg.reset();
        }
    }

    /// The labels of the scopes live on the current thread, outermost
    /// first — the input [`enter_scopes`] expects on a helper thread.
    pub fn scope_labels() -> Vec<String> {
        STACK
            .try_with(|s| s.borrow().iter().map(|(label, _)| label.clone()).collect())
            .unwrap_or_default()
    }

    /// Re-enters a list of scope labels (outermost first) on the current
    /// thread, so work handed to a spawned thread keeps its parent's
    /// attribution:
    ///
    /// ```
    /// let labels = mhd_obs::scope_labels();
    /// std::thread::spawn(move || {
    ///     let _scopes = mhd_obs::enter_scopes(&labels);
    ///     // metrics recorded here attribute like the parent's
    /// })
    /// .join()
    /// .unwrap();
    /// ```
    pub fn enter_scopes(labels: &[String]) -> Vec<Scope> {
        labels.iter().map(|label| Scope::enter(label.clone())).collect()
    }
}

#[cfg(not(feature = "obs"))]
mod imp {
    /// No-op stand-in for the enabled `Scope`: zero-sized, touches no
    /// thread-local state.
    #[must_use = "a Scope attributes metrics only while it lives; binding it to `_` drops immediately"]
    #[derive(Debug)]
    pub struct Scope;

    impl Scope {
        /// The zero-sized no-op guard (what [`crate::scope!`] expands to).
        #[inline]
        pub fn noop() -> Scope {
            Scope
        }

        /// Returns the zero-sized guard; `label` is dropped unused.
        #[inline]
        pub fn enter(label: impl Into<String>) -> Scope {
            let _ = label;
            Scope
        }
    }

    /// Always empty with the `obs` feature off.
    #[inline]
    pub fn scope_labels() -> Vec<String> {
        Vec::new()
    }

    /// Always empty with the `obs` feature off.
    #[inline]
    pub fn enter_scopes(labels: &[String]) -> Vec<Scope> {
        let _ = labels;
        Vec::new()
    }
}

pub use imp::*;

#[cfg(all(test, feature = "obs"))]
mod tests {
    use crate::{counter, histogram, snapshot};

    // The registry and scope table are process-global, so tests use
    // unique metric names and unique scope labels.

    #[test]
    fn scoped_counts_partition_and_sum_to_global() {
        let c = counter("scope_test.events");
        {
            let _a = crate::scope!("t=a");
            c.add(3);
            {
                let _b = crate::scope!("t=b");
                c.add(4); // lands in t=a AND t=b AND global
            }
        }
        c.add(5); // global only
        let snap = snapshot();
        assert_eq!(snap.counter("scope_test.events"), 12);
        assert_eq!(snap.scope("t=a").unwrap().counter("scope_test.events"), 7);
        assert_eq!(snap.scope("t=b").unwrap().counter("scope_test.events"), 4);
        // Sub-snapshots are flat — no nesting under t=a.
        assert!(snap.scope("t=a").unwrap().scopes.is_empty());
    }

    #[test]
    fn reentered_label_counts_once() {
        let c = counter("scope_test.reenter");
        let _outer = crate::scope!("t=reenter");
        let _inner = crate::scope!("t=reenter");
        c.inc();
        let snap = snapshot();
        assert_eq!(snap.scope("t=reenter").unwrap().counter("scope_test.reenter"), 1);
    }

    #[test]
    fn scoped_histograms_and_spans_attribute() {
        let h = histogram("scope_test.bytes");
        {
            let _s = crate::scope!("t=hist");
            h.record(100);
            let _span = crate::span!("scope_test.span_ns");
        }
        h.record(200);
        let snap = snapshot();
        let scoped = snap.scope("t=hist").unwrap();
        assert_eq!(scoped.histogram("scope_test.bytes").unwrap().count, 1);
        assert_eq!(scoped.histogram("scope_test.bytes").unwrap().sum, 100);
        assert_eq!(snap.histogram("scope_test.bytes").unwrap().count, 2);
        assert_eq!(scoped.histogram("scope_test.span_ns").unwrap().count, 1);
    }

    #[test]
    fn labels_propagate_to_spawned_threads() {
        let c = counter("scope_test.threaded");
        let _outer = crate::scope!("t=threaded");
        let labels = crate::scope_labels();
        assert!(labels.contains(&"t=threaded".to_string()));
        std::thread::spawn(move || {
            let _scopes = crate::enter_scopes(&labels);
            c.add(2);
        })
        .join()
        .unwrap();
        c.inc();
        let snap = snapshot();
        assert_eq!(snap.scope("t=threaded").unwrap().counter("scope_test.threaded"), 3);
    }

    #[test]
    fn scope_is_thread_local() {
        let c = counter("scope_test.isolated");
        let _outer = crate::scope!("t=isolated");
        // A thread that does NOT re-enter the labels stays unattributed.
        std::thread::spawn(move || c.add(10)).join().unwrap();
        let snap = snapshot();
        assert_eq!(snap.scope("t=isolated").unwrap().counter("scope_test.isolated"), 0);
        assert!(snap.counter("scope_test.isolated") >= 10);
    }
}
