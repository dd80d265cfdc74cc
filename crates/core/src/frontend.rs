//! The chunk+hash front end: one process-wide worker pool that runs ahead
//! of every engine's serial dedup loop.
//!
//! Deduplication is sequential — each chunk's fate depends on everything
//! stored before it — but content-defined chunking and SHA-1, the
//! CPU-heavy front half of the paper's pipeline, are a pure function of
//! one file's bytes. [`ingest`] turns the files of a snapshot into
//! per-file jobs (scan, then hash the same bytes while they are
//! cache-hot), ships the ones behind the dedup cursor to the pool, and
//! yields each file's chunks **in file order**; the engine loop that
//! consumes them is unchanged. Dedup output is therefore bit-identical to
//! chunking inline: the chunks of a file do not depend on where or when
//! they were computed, and the consumer still sees files in order.
//!
//! * **Pool.** `available_parallelism() − 1` threads, shared by every
//!   engine in the process (N daemon sessions, one pool), created on the
//!   first shipped job and parked on a condvar for the rest of the
//!   process's life.
//! * **Lookahead.** At most [`LOOKAHEAD_FILES`] files and
//!   [`LOOKAHEAD_BYTES`] input bytes are in flight per snapshot. What is
//!   held per file in flight is a refcount on its bytes and, once done,
//!   32 bytes per chunk.
//! * **Helping consumer.** A consumer whose next file is not ready runs
//!   that job itself if no worker has claimed it, else the next unclaimed
//!   job behind it, and only sleeps when every job in its window is
//!   running elsewhere. Progress never depends on a worker: with no
//!   workers (one core), one file, or files under [`MIN_SHIPPED_BYTES`],
//!   the consumer runs everything inline and no thread is touched. The
//!   unit of work is a whole file: a snapshot that is one big image is
//!   chunked and hashed by the consumer, as it was before there was a
//!   pool.
//!
//! A job that panics is caught where it ran and surfaces from [`Ingest`]
//! as [`EngineError::Frontend`]. Dropping an [`Ingest`] early (the engine
//! hit a store error) cancels the jobs no thread has started and waits
//! for the ones running, so nothing outlives the `process_snapshot` call
//! that asked for it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Once, OnceLock};
use std::thread::{self, ThreadId};

use mhd_chunking::AnyChunker;
use mhd_workload::FileEntry;

use crate::engine::{chunk_and_hash, EngineError, EngineResult, HashedChunk};
use crate::sync::{Mutex, MutexGuard, Rank};

/// Files one snapshot may have in flight, the one being consumed included.
const LOOKAHEAD_FILES: usize = 8;
/// Input bytes one snapshot may have in flight (one file is always let in).
const LOOKAHEAD_BYTES: usize = 32 << 20;
/// Files smaller than this are not worth a cross-thread hand-off.
const MIN_SHIPPED_BYTES: usize = 16 << 10;

type Work = Box<dyn FnOnce() -> Vec<HashedChunk> + Send>;
type Outcome = thread::Result<Vec<HashedChunk>>;

enum JobState {
    /// Not started; whoever takes the work out runs it.
    Pending(Work),
    Running,
    Done(Outcome),
    /// The outcome was handed over, or the job was cancelled unstarted.
    Taken,
}

/// One unit of front-end work, run by whichever thread claims it first: a
/// pool worker that dequeued it or the consumer that needs its result.
struct Job {
    state: Mutex<JobState>,
    done: Condvar,
    /// Whether the job went to the pool (for the `frontend.helped` count).
    shipped: bool,
}

impl Job {
    fn new(shipped: bool, work: Work) -> Arc<Job> {
        Arc::new(Job {
            state: Mutex::new(Rank::Leaf, JobState::Pending(work)),
            done: Condvar::new(),
            shipped,
        })
    }

    /// Runs the job on this thread if nobody has claimed it yet.
    fn run(&self) -> bool {
        let work = {
            let mut state = self.state.lock();
            match std::mem::replace(&mut *state, JobState::Running) {
                JobState::Pending(work) => work,
                other => {
                    *state = other;
                    return false;
                }
            }
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(work));
        *self.state.lock() = JobState::Done(outcome);
        self.done.notify_all();
        true
    }

    /// Takes the outcome if the job has finished.
    fn poll(&self) -> Option<Outcome> {
        let mut state = self.state.lock();
        match std::mem::replace(&mut *state, JobState::Taken) {
            JobState::Done(outcome) => Some(outcome),
            other => {
                *state = other;
                None
            }
        }
    }

    /// The job's state once no thread is running it.
    fn settled(&self) -> MutexGuard<'_, JobState> {
        let mut state = self.state.lock();
        while matches!(*state, JobState::Running) {
            state = state.wait(&self.done);
        }
        state
    }

    /// Drops the work if it has not started, else waits for it to finish,
    /// and discards the outcome.
    fn cancel(&self) {
        *self.settled() = JobState::Taken;
    }
}

/// Jobs whose outcomes are wanted in order. Dropping the window cancels
/// what is left, so no job outlives the call that created it.
#[derive(Default)]
struct Window {
    jobs: VecDeque<Arc<Job>>,
}

impl Window {
    /// The outcome of the oldest job. While that job runs on another
    /// thread, the caller works through the unclaimed jobs behind it and
    /// sleeps only when there are none.
    fn take_next(&mut self) -> Option<Outcome> {
        let job = self.jobs.pop_front()?;
        let helped = mhd_obs::counter!("frontend.helped");
        if job.run() && job.shipped {
            helped.inc();
        }
        loop {
            if let Some(outcome) = job.poll() {
                return Some(outcome);
            }
            match self.jobs.iter().find(|later| later.run()) {
                Some(later) if later.shipped => helped.inc(),
                Some(_) => {}
                None => {
                    let _starved = mhd_obs::span!("frontend.wait_ns");
                    drop(job.settled());
                }
            }
        }
    }
}

impl Drop for Window {
    fn drop(&mut self) {
        for job in &self.jobs {
            job.cancel();
        }
    }
}

/// The worker pool: parked threads and the queue that feeds them. A
/// started pool lives as long as the process; its workers never exit.
struct Pool {
    /// Threads wanted and, once [`Pool::has_workers`] has started them,
    /// threads there are.
    workers: AtomicUsize,
    queue: Mutex<VecDeque<Arc<Job>>>,
    wake: Condvar,
    start: Once,
}

impl Pool {
    fn new(workers: usize) -> Arc<Pool> {
        Arc::new(Pool {
            workers: AtomicUsize::new(workers),
            queue: Mutex::new(Rank::Leaf, VecDeque::new()),
            wake: Condvar::new(),
            start: Once::new(),
        })
    }

    fn global() -> Arc<Pool> {
        static GLOBAL: OnceLock<Arc<Pool>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| {
            Pool::new(thread::available_parallelism().map_or(0, |cores| cores.get() - 1))
        }))
    }

    /// Whether a shipped job would find a worker, starting the workers on
    /// first use. A worker that fails to spawn is done without: if none
    /// spawns, nothing is shipped and the consumer runs every job.
    fn has_workers(self: &Arc<Self>) -> bool {
        self.start.call_once(|| {
            let spawned = (0..self.workers.load(Ordering::Relaxed))
                .take_while(|i| {
                    let pool = Arc::clone(self);
                    let worker = thread::Builder::new().name(format!("mhd-frontend-{i}"));
                    worker.spawn(move || pool.work()).is_ok()
                })
                .count();
            self.workers.store(spawned, Ordering::Relaxed);
        });
        self.workers.load(Ordering::Relaxed) > 0
    }

    /// Queues `job` for the workers.
    fn submit(&self, job: &Arc<Job>) {
        mhd_obs::counter!("frontend.jobs").inc();
        self.queue.lock().push_back(Arc::clone(job));
        self.wake.notify_one();
    }

    /// A worker's life: run queued jobs, skipping those a consumer got to
    /// first.
    fn work(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock();
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = queue.wait(&self.wake);
                }
            };
            job.run();
        }
    }
}

#[cfg(test)]
thread_local! {
    /// The pool engines driven from this thread use instead of the
    /// process-wide one.
    static POOL_OVERRIDE: std::cell::RefCell<Option<Arc<Pool>>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with every [`ingest`] on this thread going through a private
/// pool of `workers` threads — 0 forces the inline path, and 2 exercises
/// the hand-off even on a one-core machine. (A test pool's parked workers
/// are left behind when the test ends.)
#[cfg(test)]
pub(crate) fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
    let pool = Pool::new(workers);
    with_pool(&pool, f)
}

#[cfg(test)]
fn with_pool<R>(pool: &Arc<Pool>, f: impl FnOnce() -> R) -> R {
    let previous = POOL_OVERRIDE.with(|slot| slot.replace(Some(Arc::clone(pool))));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    POOL_OVERRIDE.with(|slot| slot.replace(previous));
    result.unwrap_or_else(|payload| panic::resume_unwind(payload))
}

fn current_pool() -> Arc<Pool> {
    #[cfg(test)]
    if let Some(pool) = POOL_OVERRIDE.with(|slot| slot.borrow().clone()) {
        return pool;
    }
    Pool::global()
}

/// The observability attribution of the thread that created a job, for
/// whichever thread ends up running it.
#[derive(Clone)]
struct Attribution {
    owner: ThreadId,
    labels: Arc<Vec<String>>,
}

impl Attribution {
    fn of_current_thread() -> Attribution {
        Attribution { owner: thread::current().id(), labels: Arc::new(mhd_obs::scope_labels()) }
    }

    /// Enters the owner's scopes unless this *is* the owner's thread.
    fn adopt(&self) -> Vec<mhd_obs::Scope> {
        if thread::current().id() == self.owner {
            return Vec::new();
        }
        mhd_obs::enter_scopes(&self.labels)
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The files of one snapshot with their chunks, in file order. See the
/// module docs.
pub(crate) struct Ingest<'a> {
    files: &'a [FileEntry],
    chunker: AnyChunker,
    pool: Arc<Pool>,
    attribution: Attribution,
    /// Jobs of files `taken..taken + window.jobs.len()`.
    window: Window,
    taken: usize,
}

/// Chunks and hashes `files` with `chunker`, ahead of the caller.
pub(crate) fn ingest<'a>(chunker: &AnyChunker, files: &'a [FileEntry]) -> Ingest<'a> {
    Ingest {
        files,
        chunker: chunker.clone(),
        pool: current_pool(),
        attribution: Attribution::of_current_thread(),
        window: Window::default(),
        taken: 0,
    }
}

impl Ingest<'_> {
    /// Creates jobs for the files behind the cursor, up to the lookahead
    /// bounds, shipping those a worker can usefully take.
    fn top_up(&mut self) {
        let queued = self.taken + self.window.jobs.len();
        let mut bytes_in_flight: usize =
            self.files[self.taken..queued].iter().map(|f| f.data.len()).sum();
        for file in &self.files[queued..] {
            let len = file.data.len();
            let in_flight = self.window.jobs.len();
            if in_flight >= LOOKAHEAD_FILES
                || (in_flight > 0 && bytes_in_flight + len > LOOKAHEAD_BYTES)
            {
                break;
            }
            // The file the consumer is about to take is run by the
            // consumer: shipping it would only race a worker for it.
            let shipped = in_flight > 0 && len >= MIN_SHIPPED_BYTES && self.pool.has_workers();
            let (chunker, data) = (self.chunker.clone(), file.data.clone());
            let attribution = self.attribution.clone();
            let job = Job::new(
                shipped,
                Box::new(move || {
                    let _scopes = attribution.adopt();
                    let _stage = mhd_obs::stage("frontend.job");
                    chunk_and_hash(&chunker, &data)
                }),
            );
            if shipped {
                self.pool.submit(&job);
            }
            self.window.jobs.push_back(job);
            bytes_in_flight += len;
        }
    }
}

impl<'a> Iterator for Ingest<'a> {
    type Item = EngineResult<(&'a FileEntry, Vec<HashedChunk>)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.top_up();
        let outcome = self.window.take_next()?;
        let file = &self.files[self.taken];
        self.taken += 1;
        Some(match outcome {
            Ok(chunks) => Ok((file, chunks)),
            Err(payload) => Err(EngineError::Frontend(format!(
                "chunking {} panicked: {}",
                file.path,
                panic_message(payload.as_ref())
            ))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn job_returning(len: u32) -> Arc<Job> {
        Job::new(
            true,
            Box::new(move || vec![HashedChunk { offset: 0, len, hash: mhd_hash::sha1(&[]) }]),
        )
    }

    fn len_of(outcome: Option<Outcome>) -> u32 {
        outcome.expect("a job").expect("no panic")[0].len
    }

    #[test]
    fn window_yields_outcomes_in_order_whoever_runs_them() {
        let pool = Pool::new(2);
        assert!(pool.has_workers());
        let mut window = Window::default();
        for len in 0..64 {
            let job = job_returning(len);
            pool.submit(&job);
            window.jobs.push_back(job);
        }
        for len in 0..64 {
            assert_eq!(len_of(window.take_next()), len);
        }
        assert!(window.take_next().is_none());
    }

    #[test]
    fn consumer_helps_with_a_later_job_while_its_next_one_runs_elsewhere() {
        // A "worker" thread claims job 0 and holds it until told to
        // finish; the consumer must meanwhile run job 1 itself.
        let (claimed_tx, claimed_rx) = mpsc::channel::<()>();
        let (finish_tx, finish_rx) = mpsc::channel::<()>();
        let (helped_tx, helped_rx) = mpsc::channel::<ThreadId>();
        let first = Job::new(
            true,
            Box::new(move || {
                claimed_tx.send(()).unwrap();
                finish_rx.recv().unwrap();
                Vec::new()
            }),
        );
        let second = Job::new(
            true,
            Box::new(move || {
                helped_tx.send(thread::current().id()).unwrap();
                // Only now may the first job finish: the consumer got
                // here while its next outcome was still outstanding.
                finish_tx.send(()).unwrap();
                Vec::new()
            }),
        );
        let mut window = Window::default();
        window.jobs.extend([Arc::clone(&first), second]);
        thread::scope(|scope| {
            scope.spawn(move || assert!(first.run()));
            claimed_rx.recv().unwrap();
            assert!(window.take_next().unwrap().unwrap().is_empty());
            assert_eq!(helped_rx.recv().unwrap(), thread::current().id());
            assert!(window.take_next().unwrap().unwrap().is_empty());
        });
    }

    #[test]
    fn dropping_a_window_cancels_pending_jobs_and_waits_for_running_ones() {
        let (claimed_tx, claimed_rx) = mpsc::channel::<()>();
        let (finish_tx, finish_rx) = mpsc::channel::<()>();
        let running = Job::new(
            true,
            Box::new(move || {
                claimed_tx.send(()).unwrap();
                finish_rx.recv().unwrap();
                Vec::new()
            }),
        );
        let pending = job_returning(7);
        let mut window = Window::default();
        window.jobs.extend([Arc::clone(&running), Arc::clone(&pending)]);
        thread::scope(|scope| {
            let runner = Arc::clone(&running);
            scope.spawn(move || assert!(runner.run()));
            claimed_rx.recv().unwrap();
            let (dropped_tx, dropped_rx) = mpsc::channel::<()>();
            scope.spawn(move || {
                drop(window);
                dropped_tx.send(()).unwrap();
            });
            // The drop is stuck behind the running job...
            assert!(dropped_rx.recv_timeout(std::time::Duration::from_millis(50)).is_err());
            finish_tx.send(()).unwrap();
            // ...and returns once it has finished.
            dropped_rx.recv().unwrap();
        });
        assert!(!pending.run(), "a cancelled job must never run");
        assert!(running.poll().is_none(), "a cancelled job's outcome is discarded");
    }

    #[test]
    fn a_job_that_panics_on_a_worker_leaves_the_pool_working() {
        let pool = Pool::new(1);
        assert!(pool.has_workers());
        let mut window = Window::default();
        let (ran_tx, ran_rx) = mpsc::channel::<()>();
        let boom = Job::new(
            true,
            Box::new(move || {
                ran_tx.send(()).unwrap();
                panic!("boom")
            }),
        );
        pool.submit(&boom);
        ran_rx.recv().unwrap(); // the worker has it
        window.jobs.push_back(boom);
        let payload = window.take_next().unwrap().unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "boom");

        // Same worker, next job.
        let (ran_tx, ran_rx) = mpsc::channel::<ThreadId>();
        let fine = Job::new(
            true,
            Box::new(move || {
                ran_tx.send(thread::current().id()).unwrap();
                Vec::new()
            }),
        );
        pool.submit(&fine);
        assert_ne!(ran_rx.recv().unwrap(), thread::current().id());
    }

    #[test]
    fn workers_start_on_first_use_and_a_pool_of_none_ships_nothing() {
        let idle = Pool::new(0);
        assert!(!idle.has_workers());
        assert_eq!(Arc::strong_count(&idle), 1);

        let pool = Pool::new(3);
        assert_eq!(Arc::strong_count(&pool), 1, "threads start on first use");
        assert!(pool.has_workers() && pool.has_workers());
        assert_eq!(pool.workers.load(Ordering::Relaxed), 3);
        assert_eq!(Arc::strong_count(&pool), 4, "one handle per worker, started once");
    }

    // ---- engines over the front end ----

    use bytes::Bytes;

    use crate::engine_tests::{drive, random, snapshot};
    use crate::{DedupReport, Deduplicator, EngineConfig, EngineKind, MhdEngine};
    use mhd_chunking::ChunkerKind;
    use mhd_store::{Backend, FaultBackend, FaultPoint, FileKind, MemBackend, StoreError};
    use mhd_workload::{Corpus, CorpusSpec, Snapshot};

    /// Every stored object, by kind and name.
    type Objects = Vec<(FileKind, String, Bytes)>;

    fn objects(backend: &mut impl Backend) -> Objects {
        let mut all = Vec::new();
        for kind in FileKind::ALL {
            for name in backend.list(kind) {
                let data = backend.get(kind, &name).unwrap();
                all.push((kind, name, data));
            }
        }
        all
    }

    /// The report with its one wall-clock field zeroed.
    fn counters(mut report: DedupReport) -> String {
        report.dedup_seconds = 0.0;
        format!("{report:?}")
    }

    /// Runs every engine over `snapshots` and returns each one's report
    /// counters and stored objects.
    fn run_every_engine(snapshots: &[Snapshot], config: EngineConfig) -> Vec<(String, Objects)> {
        EngineKind::ALL
            .iter()
            .map(|&kind| {
                let (report, mut e) = drive(kind, snapshots, config);
                (counters(report), objects(e.substrate_mut().backend_mut()))
            })
            .collect()
    }

    #[test]
    fn pooled_and_inline_runs_store_identical_bytes_for_every_chunker_and_engine() {
        let corpus = Corpus::generate(CorpusSpec::tiny(91));
        for kind in ChunkerKind::ALL {
            let config = EngineConfig::new(512, 8).with_chunker(kind);
            let inline = with_workers(0, || run_every_engine(&corpus.snapshots, config));
            let pooled = with_workers(2, || run_every_engine(&corpus.snapshots, config));
            for ((inline_report, inline_objects), (pooled_report, pooled_objects)) in
                inline.iter().zip(&pooled)
            {
                assert_eq!(pooled_report, inline_report, "{kind}");
                assert!(pooled_objects == inline_objects, "{kind}: objects of {inline_report}");
            }
        }
    }

    #[test]
    fn empty_files_and_a_one_byte_snapshot_match_the_inline_path() {
        let shapes = [
            snapshot("holes", vec![vec![], vec![], random(40 << 10, 1), vec![]]),
            snapshot("byte", vec![vec![9]]),
        ];
        let config = EngineConfig::new(4096, 16);
        let run = || {
            let mut e = MhdEngine::new(MemBackend::new(), config).unwrap();
            for s in &shapes {
                e.process_snapshot(s).unwrap();
            }
            let report = e.finish().unwrap();
            assert_eq!(report.input_bytes, (40 << 10) + 1);
            for s in &shapes {
                for f in &s.files {
                    let restored = crate::restore::restore_file(e.substrate_mut(), &f.path);
                    assert!(restored.unwrap() == f.data[..], "{} restores", f.path);
                }
            }
            (counters(report), objects(e.substrate_mut().backend_mut()))
        };
        let inline = with_workers(0, run);
        let pooled = with_workers(3, run);
        assert_eq!(pooled.0, inline.0);
        assert!(pooled.1 == inline.1, "stored objects differ");
    }

    #[test]
    fn a_store_error_mid_snapshot_leaves_no_job_behind_and_the_pool_usable() {
        let corpus = Corpus::generate(CorpusSpec::tiny(92));
        let pool = Pool::new(2);
        with_pool(&pool, || {
            let config = EngineConfig::new(512, 8);
            // The third DiskChunk write fails: files 0 and 1 of the
            // first snapshot are in, file 2 is not, file 3 never starts.
            let point = FaultPoint::write(Some(FileKind::DiskChunk), 2);
            let backend = FaultBackend::with_point(MemBackend::new(), point);
            let mut engine = MhdEngine::new(backend, config).unwrap();
            let err = engine.process_snapshot(&corpus.snapshots[0]).unwrap_err();
            assert!(matches!(err, EngineError::Store(StoreError::Io(_))), "{err}");

            // What the failed call left in the queue was cancelled: no
            // worker will find work in it.
            let left: Vec<_> = pool.queue.lock().iter().cloned().collect();
            assert!(
                left.iter().all(|job| matches!(*job.state.lock(), JobState::Taken)),
                "a job outlived process_snapshot"
            );

            // The same engine and the same pool carry on.
            for s in &corpus.snapshots[1..] {
                engine.process_snapshot(s).unwrap();
            }
            let report = engine.finish().unwrap();
            assert!(report.dup_bytes > 0);
            let files = corpus.snapshots[1..].iter().flat_map(|s| &s.files);
            for f in files {
                let restored = crate::restore::restore_file(engine.substrate_mut(), &f.path);
                assert!(restored.unwrap() == f.data[..], "{} restores", f.path);
            }
        });
    }

    #[test]
    fn a_panicking_file_job_is_an_engine_error_and_the_next_file_still_comes() {
        let files = snapshot("s", vec![random(20 << 10, 1), random(20 << 10, 2)]).files;
        let chunker = ChunkerKind::Rabin.build(512).unwrap();
        with_workers(1, || {
            let mut ingest = ingest(&chunker, &files);
            // Stand in for file 0's job: no shipped chunker can be made
            // to panic from outside.
            ingest.window.jobs.push_back(Job::new(false, Box::new(|| panic!("bad cut"))));
            match ingest.next().unwrap() {
                Err(EngineError::Frontend(msg)) => {
                    assert!(msg.contains("s/f0") && msg.contains("bad cut"), "{msg}")
                }
                other => {
                    panic!("expected a front-end error, got {:?}", other.map(|(f, _)| &f.path))
                }
            }
            let (file, chunks) = ingest.next().unwrap().unwrap();
            assert_eq!(file.path, "s/f1");
            assert_eq!(chunks, chunk_and_hash(&chunker, &file.data));
            assert!(ingest.next().is_none());
        });
    }

    #[test]
    fn two_engines_on_two_threads_share_one_pool() {
        let corpora =
            [Corpus::generate(CorpusSpec::tiny(93)), Corpus::generate(CorpusSpec::tiny(94))];
        let config = EngineConfig::new(512, 8);
        let run = |corpus: &Corpus| {
            let mut e = MhdEngine::new(MemBackend::new(), config).unwrap();
            for s in &corpus.snapshots {
                e.process_snapshot(s).unwrap();
            }
            let report = e.finish().unwrap();
            (counters(report), objects(e.substrate_mut().backend_mut()))
        };
        let expect: Vec<_> = corpora.iter().map(|c| with_workers(0, || run(c))).collect();

        let pool = Pool::new(2);
        let start = std::sync::Barrier::new(2);
        let got: Vec<_> = thread::scope(|scope| {
            let sessions: Vec<_> = corpora
                .iter()
                .map(|corpus| {
                    scope.spawn(|| {
                        with_pool(&pool, || {
                            start.wait();
                            run(corpus)
                        })
                    })
                })
                .collect();
            sessions.into_iter().map(|s| s.join().unwrap()).collect()
        });
        for (got, expect) in got.iter().zip(&expect) {
            assert_eq!(got.0, expect.0);
            assert!(got.1 == expect.1, "stored objects differ");
        }
    }
}
