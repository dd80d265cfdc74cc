//! Concrete [`Model`]s of the workspace's six concurrent protocols. The
//! first three are described here, the later three where they are
//! defined:
//!
//! * [`FlushModel`] — the `BatchedDirBackend` flush-barrier protocol: a
//!   coordinator drains the pending overlay kind-by-kind in
//!   `FileKind::FLUSH_ORDER` (taken from the *real* constant, so the model
//!   checks the shipped order, not a transcription), with a barrier
//!   between kinds; workers claim jobs and write them to disk. The
//!   invariant at every state — i.e. every crash point — is that nothing
//!   on disk references anything not on disk.
//! * [`RingModel`] — the trace-ring registry: recorder threads register a
//!   per-thread ring, push events, and exit; a drainer collects events
//!   and prunes dead rings. The checked property is that no drained-event
//!   is ever lost — the exact bug class of pruning a dead-but-nonempty
//!   ring (which the workspace's `prune_dead_threads` once had).
//! * [`GcProtectModel`] — the daemon's watermark-protected mark-sweep
//!   (`mhd-daemon`'s `SessionRegistry` + `mhd_core::gc::collect_protected`)
//!   racing two-phase commits: writer sessions register the allocation
//!   watermark at `BEGIN`, run their dedup pipeline outside the lock,
//!   then reserve an id, splice the chunk, and publish the recipe; the
//!   collector's sweep cutoff is the minimum over its own watermark and
//!   every registered one. The invariant is that no recipe ever
//!   references a chunk missing from disk — whether because GC swept it
//!   or because the publish ran before the splice — and quiescence
//!   additionally requires pre-existing garbage to actually be reclaimed
//!   (so "protect everything" cannot pass either).
//! * [`PublishModel`] — two sessions racing the daemon's two-phase
//!   publish; [`IntentModel`] — the intent-record overwrite with a crash
//!   or a failed rename at any step; [`CompactGcModel`] — compaction
//!   racing the mark-sweep collector.
//!
//! Each model has a `mutant` constructor seeding the historical bug, used
//! as a negative test: CI runs the mutants and *requires* the checker to
//! catch them, so the checker itself cannot rot into a rubber stamp.

use mhd_store::FileKind;

use crate::mck::Model;

// ---------------------------------------------------------------------
// Flush-barrier protocol
// ---------------------------------------------------------------------

/// One pending object in the modelled flush workload.
#[derive(Debug, Clone, Copy)]
struct Obj {
    name: &'static str,
    kind: FileKind,
    /// Indices into [`WORKLOAD`] this object references on disk.
    refs: &'static [usize],
}

/// A minimal workload exercising every reference edge the store has:
/// a Manifest referencing two DiskChunks, a Hook referencing the
/// Manifest, and a FileManifest referencing a DiskChunk.
const WORKLOAD: &[Obj] = &[
    Obj { name: "chunk-a", kind: FileKind::DiskChunk, refs: &[] },
    Obj { name: "chunk-b", kind: FileKind::DiskChunk, refs: &[] },
    Obj { name: "manifest", kind: FileKind::Manifest, refs: &[0, 1] },
    Obj { name: "hook", kind: FileKind::Hook, refs: &[2] },
    Obj { name: "recipe", kind: FileKind::FileManifest, refs: &[0] },
];

/// Model of the batched backend's kind-ordered, barriered flush.
pub struct FlushModel {
    order: Vec<FileKind>,
    workers: usize,
}

impl FlushModel {
    /// The shipped protocol: flush in `FileKind::FLUSH_ORDER` with two
    /// workers racing within each kind.
    pub fn shipped() -> FlushModel {
        FlushModel { order: FileKind::FLUSH_ORDER.to_vec(), workers: 2 }
    }

    /// The seeded bug: the flush order reversed, so referrers hit disk
    /// before their referees. The checker must reject this.
    pub fn mutant_flush_order() -> FlushModel {
        let mut order = FileKind::FLUSH_ORDER.to_vec();
        order.reverse();
        FlushModel { order, workers: 2 }
    }
}

/// Flush-protocol state. `claimed` holds the job each worker has taken
/// off the queue but not yet written — a crash there loses the write, a
/// reference check there sees the claim's referee status as-is.
#[derive(Debug, Clone)]
pub struct FlushState {
    kind_idx: usize,
    queue: Vec<usize>,
    claimed: Vec<Option<usize>>,
    disk: [bool; 5],
    done: bool,
}

fn jobs_of(kind: FileKind) -> Vec<usize> {
    (0..WORKLOAD.len()).filter(|&i| WORKLOAD[i].kind == kind).collect()
}

impl Model for FlushModel {
    type State = FlushState;

    fn init(&self) -> FlushState {
        FlushState {
            kind_idx: 0,
            queue: jobs_of(self.order[0]),
            claimed: vec![None; self.workers],
            disk: [false; 5],
            done: false,
        }
    }

    fn threads(&self) -> usize {
        1 + self.workers
    }

    fn enabled(&self, s: &FlushState, tid: usize) -> bool {
        if s.done {
            return false;
        }
        if tid == 0 {
            // The coordinator advances to the next kind only at the
            // barrier: queue drained and every worker's write retired.
            s.queue.is_empty() && s.claimed.iter().all(Option::is_none)
        } else {
            s.claimed[tid - 1].is_some() || !s.queue.is_empty()
        }
    }

    fn step(&self, s: &mut FlushState, tid: usize) {
        if tid == 0 {
            s.kind_idx += 1;
            if s.kind_idx == self.order.len() {
                s.done = true;
            } else {
                s.queue = jobs_of(self.order[s.kind_idx]);
            }
        } else if let Some(obj) = s.claimed[tid - 1].take() {
            s.disk[obj] = true;
        } else {
            s.claimed[tid - 1] = s.queue.pop();
        }
    }

    fn invariant(&self, s: &FlushState) -> Result<(), String> {
        // Every state is a crash point: if the process dies here, what is
        // on disk must be self-contained.
        for (i, obj) in WORKLOAD.iter().enumerate() {
            if !s.disk[i] {
                continue;
            }
            for &r in obj.refs {
                if !s.disk[r] {
                    return Err(format!(
                        "crash point with {} on disk but its referee {} missing \
                         (flush order {:?})",
                        obj.name, WORKLOAD[r].name, self.order
                    ));
                }
            }
        }
        Ok(())
    }

    fn quiescent(&self, s: &FlushState) -> Result<(), String> {
        if !s.done {
            return Err("deadlock: flush never completed".into());
        }
        if let Some(i) = (0..WORKLOAD.len()).find(|&i| !s.disk[i]) {
            return Err(format!("lost write: {} never reached disk", WORKLOAD[i].name));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Trace-ring registry pruning
// ---------------------------------------------------------------------

/// Model of the per-thread trace-ring registry with a draining collector.
pub struct RingModel {
    recorders: usize,
    /// The shipped prune rule keeps dead rings until drained empty; the
    /// mutant prunes any dead ring, stranding undrained events.
    prune_requires_empty: bool,
}

impl RingModel {
    /// The shipped protocol: prune only rings that are both dead and
    /// drained empty.
    pub fn shipped() -> RingModel {
        RingModel { recorders: 2, prune_requires_empty: true }
    }

    /// The seeded bug: prune every dead ring, even with undrained events
    /// still queued — the historical race where a recorder pushes between
    /// the drainer's collection and its prune. The checker must catch it.
    pub fn mutant_ring_prune() -> RingModel {
        RingModel { recorders: 2, prune_requires_empty: false }
    }
}

/// Recorder lifecycle position: start → registered → pushed → exited.
const REC_START: u8 = 0;
const REC_REGISTERED: u8 = 1;
const REC_EXITED: u8 = 3;

/// Drainer position: two passes over the rings (one racing the
/// recorders, one final pass after all recorders have exited — matching
/// `trace_drain` being called after worker threads are joined), each ring
/// visited as drain-then-prune.
#[derive(Debug, Clone)]
pub struct RingState {
    rec_pc: Vec<u8>,
    in_registry: Vec<bool>,
    ring_events: Vec<u8>,
    pushed: u8,
    drained: u8,
    d_pass: u8,
    d_idx: usize,
    d_phase: u8,
}

impl Model for RingModel {
    type State = RingState;

    fn init(&self) -> RingState {
        RingState {
            rec_pc: vec![REC_START; self.recorders],
            in_registry: vec![false; self.recorders],
            ring_events: vec![0; self.recorders],
            pushed: 0,
            drained: 0,
            d_pass: 0,
            d_idx: 0,
            d_phase: 0,
        }
    }

    fn threads(&self) -> usize {
        1 + self.recorders
    }

    fn enabled(&self, s: &RingState, tid: usize) -> bool {
        if tid == 0 {
            match s.d_pass {
                0 => true,
                // The final drain runs after every recorder has exited.
                1 => s.rec_pc.iter().all(|&pc| pc == REC_EXITED),
                _ => false,
            }
        } else {
            s.rec_pc[tid - 1] < REC_EXITED
        }
    }

    fn step(&self, s: &mut RingState, tid: usize) {
        if tid == 0 {
            let i = s.d_idx;
            if s.in_registry[i] && s.d_phase == 0 {
                // Collect this ring's events.
                s.drained += s.ring_events[i];
                s.ring_events[i] = 0;
                s.d_phase = 1;
                return;
            }
            if s.in_registry[i] && s.d_phase == 1 {
                let dead = s.rec_pc[i] == REC_EXITED;
                if dead && (s.ring_events[i] == 0 || !self.prune_requires_empty) {
                    s.in_registry[i] = false;
                }
            }
            s.d_phase = 0;
            s.d_idx += 1;
            if s.d_idx == self.recorders {
                s.d_idx = 0;
                s.d_pass += 1;
            }
        } else {
            let r = tid - 1;
            match s.rec_pc[r] {
                REC_START => s.in_registry[r] = true,
                REC_REGISTERED => {
                    // The push lands in the ring whether or not the
                    // registry still lists it — the recorder holds its
                    // own handle; a pruned ring's events are unreachable.
                    s.ring_events[r] += 1;
                    s.pushed += 1;
                }
                _ => {}
            }
            s.rec_pc[r] += 1;
        }
    }

    fn invariant(&self, s: &RingState) -> Result<(), String> {
        for (i, &listed) in s.in_registry.iter().enumerate() {
            if !listed && s.ring_events[i] > 0 {
                return Err(format!(
                    "ring {i} pruned from the registry with {} undrained event(s): \
                     they can never be collected",
                    s.ring_events[i]
                ));
            }
        }
        Ok(())
    }

    fn quiescent(&self, s: &RingState) -> Result<(), String> {
        if s.drained != s.pushed {
            return Err(format!("event loss: {} pushed but only {} drained", s.pushed, s.drained));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Watermark-protected garbage collection (daemon sessions vs GC)
// ---------------------------------------------------------------------

/// Model of concurrent two-phase write sessions racing one protected
/// mark-sweep collection over a shared store with monotonic chunk ids.
///
/// Each writer is one daemon session running the shipped two-phase
/// commit: `register(watermark = next_id)` at `BEGIN` → run the dedup
/// *pipeline* outside the lock (a pure interleave point — it touches no
/// shared state) → *reserve* an id range (allocation only; nothing on
/// disk yet) → *splice* the chunk to disk → *publish* a recipe
/// referencing it → `deregister`. The collector runs a single mark-sweep
/// pass at an arbitrary point in the interleaving: *mark* snapshots the
/// sweep cutoff and the set of chunks referenced by recipes; *sweep* then
/// deletes unmarked chunks below the cutoff, one chunk per step (each
/// step is a crash/interleaving point).
///
/// The store starts with one pre-existing unreferenced chunk (id 0), so a
/// collector that protects everything fails quiescence just as surely as
/// one that protects nothing fails the invariant.
pub struct GcProtectModel {
    writers: usize,
    /// The shipped rule: the sweep cutoff honours registered session
    /// watermarks. The mutant ignores them (cutoff = the collector's own
    /// allocation watermark), deleting chunks a still-uncommitted session
    /// just wrote.
    honor_watermarks: bool,
    /// The shipped publish order splices chunks before publishing the
    /// recipes that reference them (`FLUSH_ORDER` discipline). The mutant
    /// flips the two steps, exposing a window where a recipe on disk
    /// references a chunk that is not.
    publish_before_splice: bool,
}

impl GcProtectModel {
    /// The shipped protocol: cutoff = min(own watermark, registered
    /// session watermarks); splice before publish.
    pub fn shipped() -> GcProtectModel {
        GcProtectModel { writers: 2, honor_watermarks: true, publish_before_splice: false }
    }

    /// The seeded bug: the cutoff ignores the session registry, so a
    /// session's freshly spliced, not-yet-referenced chunks are swept as
    /// garbage. The checker must catch it.
    pub fn mutant_gc_protect() -> GcProtectModel {
        GcProtectModel { writers: 2, honor_watermarks: false, publish_before_splice: false }
    }

    /// The seeded ordering bug: the publish phase writes a session's
    /// recipe before splicing its staged chunk, so every interleaving
    /// (and every crash point) between the two steps has a recipe
    /// referencing a chunk missing from disk. The checker must catch it.
    pub fn mutant_splice_order() -> GcProtectModel {
        GcProtectModel { writers: 2, honor_watermarks: true, publish_before_splice: true }
    }
}

/// Writer lifecycle position. `W_SPLICE_OR_PUBLISH` and
/// `W_PUBLISH_OR_SPLICE` are the two publish-phase steps whose order
/// [`GcProtectModel::publish_before_splice`] flips.
const W_REGISTER: u8 = 0;
const W_PIPELINE: u8 = 1;
const W_RESERVE: u8 = 2;
const W_SPLICE_OR_PUBLISH: u8 = 3;
const W_PUBLISH_OR_SPLICE: u8 = 4;
const W_DEREGISTER: u8 = 5;
const W_DONE: u8 = 6;

/// GC phase.
const GC_IDLE: u8 = 0;
const GC_MARKED: u8 = 1;
const GC_DONE: u8 = 2;

/// Protected-GC state. Chunk ids are indices into `disk`; id 0 is the
/// pre-existing garbage, writer `r` allocates id `r + 1`.
#[derive(Debug, Clone)]
pub struct GcProtectState {
    w_pc: Vec<u8>,
    /// Registered watermark per writer (`None` = not registered).
    watermark: Vec<Option<u8>>,
    /// Chunk id each writer reserved; on disk only after its splice step.
    w_chunk: Vec<Option<u8>>,
    /// Published recipes: the chunk id each references.
    recipes: Vec<Option<u8>>,
    next_id: u8,
    disk: Vec<bool>,
    gc_phase: u8,
    cutoff: u8,
    /// Mark snapshot: chunks referenced by a recipe at mark time.
    live: Vec<bool>,
    sweep_idx: usize,
}

impl Model for GcProtectModel {
    type State = GcProtectState;

    fn init(&self) -> GcProtectState {
        let slots = self.writers + 1;
        let mut disk = vec![false; slots];
        disk[0] = true; // pre-existing unreferenced garbage
        GcProtectState {
            w_pc: vec![W_REGISTER; self.writers],
            watermark: vec![None; self.writers],
            w_chunk: vec![None; self.writers],
            recipes: vec![None; self.writers],
            next_id: 1,
            disk,
            gc_phase: GC_IDLE,
            cutoff: 0,
            live: vec![false; slots],
            sweep_idx: 0,
        }
    }

    fn threads(&self) -> usize {
        1 + self.writers
    }

    fn enabled(&self, s: &GcProtectState, tid: usize) -> bool {
        if tid == 0 {
            s.gc_phase < GC_DONE
        } else {
            s.w_pc[tid - 1] < W_DONE
        }
    }

    fn step(&self, s: &mut GcProtectState, tid: usize) {
        if tid == 0 {
            if s.gc_phase == GC_IDLE {
                // Mark: snapshot cutoff and recipe-referenced chunks.
                s.cutoff = s.next_id;
                if self.honor_watermarks {
                    for wm in s.watermark.iter().flatten() {
                        s.cutoff = s.cutoff.min(*wm);
                    }
                }
                for c in s.recipes.iter().flatten() {
                    s.live[*c as usize] = true;
                }
                s.sweep_idx = 0;
                s.gc_phase = GC_MARKED;
            } else {
                // Sweep one chunk slot per step.
                let i = s.sweep_idx;
                if s.disk[i] && !s.live[i] && (i as u8) < s.cutoff {
                    s.disk[i] = false;
                }
                s.sweep_idx += 1;
                if s.sweep_idx == s.disk.len() {
                    s.gc_phase = GC_DONE;
                }
            }
        } else {
            let r = tid - 1;
            let splice = |s: &mut GcProtectState| {
                if let Some(id) = s.w_chunk[r] {
                    s.disk[id as usize] = true;
                }
            };
            let publish = |s: &mut GcProtectState| s.recipes[r] = s.w_chunk[r];
            match s.w_pc[r] {
                W_REGISTER => s.watermark[r] = Some(s.next_id),
                // The dedup pipeline runs outside the lock and touches no
                // shared state — modelled as a pure interleave point.
                W_PIPELINE => {}
                W_RESERVE => {
                    // Allocation only: the id is claimed but nothing is
                    // on disk until the splice step.
                    s.w_chunk[r] = Some(s.next_id);
                    s.next_id += 1;
                }
                W_SPLICE_OR_PUBLISH => {
                    if self.publish_before_splice {
                        publish(s);
                    } else {
                        splice(s);
                    }
                }
                W_PUBLISH_OR_SPLICE => {
                    if self.publish_before_splice {
                        splice(s);
                    } else {
                        publish(s);
                    }
                }
                W_DEREGISTER => s.watermark[r] = None,
                _ => {}
            }
            s.w_pc[r] += 1;
        }
    }

    fn invariant(&self, s: &GcProtectState) -> Result<(), String> {
        for (r, recipe) in s.recipes.iter().enumerate() {
            if let Some(c) = recipe {
                if !s.disk[*c as usize] {
                    return Err(format!(
                        "session {r}'s recipe references chunk {c}, which is not on \
                         disk — either GC swept it (cutoff {}, watermarks {:?}) or \
                         the recipe was published before its chunk was spliced",
                        s.cutoff, s.watermark
                    ));
                }
            }
        }
        Ok(())
    }

    fn quiescent(&self, s: &GcProtectState) -> Result<(), String> {
        if s.disk[0] {
            return Err("pre-existing garbage chunk 0 was never reclaimed".into());
        }
        for (r, recipe) in s.recipes.iter().enumerate() {
            match recipe {
                None => return Err(format!("session {r} never committed its recipe")),
                Some(c) if !s.disk[*c as usize] => {
                    return Err(format!("session {r}'s chunk {c} missing at quiescence"))
                }
                _ => {}
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Two-phase publish: epoch conflict validation + id-range remap
// ---------------------------------------------------------------------

/// Model-scale stand-in for the daemon's `LOCAL_ID_BASE` (`1 << 48`):
/// staging engines allocate private ids at or above this base, and the
/// publish remap (`local - base + reserved`) must strip it before
/// anything reaches the shared store. The arithmetic is identical to the
/// shipped `splice_locked`; only the magnitude is scaled down so ids fit
/// the model's `u8` state.
const MODEL_LOCAL_BASE: u8 = 100;

/// A conflicted model session re-runs its pipeline at most this many
/// times — enough for every schedule of [`PublishModel`]'s workload to
/// converge, small enough to keep the state space finite. Mirrors the
/// bounded `MAX_COMMIT_RETRIES` of the shipped protocol; a session that
/// exhausts it aborts, which the quiescent check rejects, so a conflict
/// rule that spuriously fires forever cannot pass either.
const MODEL_MAX_RETRIES: u8 = 2;

/// Model of the daemon's two-phase commit (`SharedStore::commit`): N
/// sessions race the lock-free dedup pipeline (phase 1) and the
/// serialized publish (phase 2).
///
/// Phase 1 snapshots the publish epoch, probes the shared store for each
/// content hash, and stages anything missed under a private id at or
/// above `MODEL_LOCAL_BASE` — exactly the staging-engine discipline
/// (`LOCAL_ID_BASE`, hook probes against the shared index). Phase 2 runs
/// atomically (it executes under the engine lock in the real protocol):
/// it validates the epoch log for publishes that raced the pipeline and
/// overlap its missed set (retry phase 1 if so), then reserves a
/// contiguous real-id range, remaps every staged id onto it, and writes
/// chunks, first-mapping-wins hooks, and the session's recipe.
///
/// The workload seeds the race the epoch log exists to catch: both
/// sessions ingest shared content `A` (session 1 also carries a private
/// `B`), so whichever publishes second *must* detect the conflict and
/// re-probe — skipping the check stores `A` twice and breaks dedup
/// exactness, which quiescence rejects.
///
/// Invariants at every state: nothing in the published store carries a
/// staging id (`>= MODEL_LOCAL_BASE`), no two sessions' reserved id
/// ranges overlap, and every published recipe references a chunk present
/// in the store.
pub struct PublishModel {
    sessions: usize,
    /// The shipped rule validates the epoch log before publishing; the
    /// mutant publishes blind, re-storing content a racing session
    /// already published.
    validate_epoch: bool,
    /// The shipped splice remaps staged ids onto the reserved range; the
    /// mutant writes the raw staging ids through.
    remap_ids: bool,
    /// The shipped reservation advances the allocator; the mutant hands
    /// every session the same base.
    advance_reservation: bool,
}

impl PublishModel {
    /// The shipped protocol: epoch-validated, remapped, disjoint ranges.
    pub fn shipped() -> PublishModel {
        PublishModel {
            sessions: 2,
            validate_epoch: true,
            remap_ids: true,
            advance_reservation: true,
        }
    }

    /// The seeded bug: phase 2 skips the epoch-log conflict check, so a
    /// pipeline raced by another session's publish stores shared content
    /// a second time. The checker must catch the broken dedup at
    /// quiescence.
    pub fn mutant_publish_epoch() -> PublishModel {
        PublishModel { validate_epoch: false, ..PublishModel::shipped() }
    }

    /// Test-only mutant: the splice writes staging ids through unmapped,
    /// leaking `>= MODEL_LOCAL_BASE` ids into the published store.
    pub fn mutant_no_remap() -> PublishModel {
        PublishModel { remap_ids: false, ..PublishModel::shipped() }
    }

    /// Test-only mutant: the id reservation never advances, so every
    /// session claims the same range.
    pub fn mutant_overlapping_reserve() -> PublishModel {
        PublishModel { advance_reservation: false, ..PublishModel::shipped() }
    }
}

/// Session position: snapshot epoch → run pipeline → publish (atomic).
const P_SNAPSHOT: u8 = 0;
const P_PIPELINE: u8 = 1;
const P_PUBLISH: u8 = 2;
const P_DONE: u8 = 3;

/// Content hashes in the publish workload. Session 0 ingests `[A]`,
/// session 1 ingests `[A, B]` — `A` is the shared content whose double
/// store the epoch log must prevent.
const CONTENT_A: u8 = 0;
const CONTENT_B: u8 = 1;

fn publish_workload(session: usize) -> &'static [u8] {
    if session == 0 {
        &[CONTENT_A]
    } else {
        &[CONTENT_A, CONTENT_B]
    }
}

/// One session's in-flight commit attempt.
#[derive(Debug, Clone)]
pub struct PublishSession {
    pc: u8,
    /// Epoch read before the pipeline ran.
    epoch0: u8,
    /// `(content, staging id)` pairs staged by the pipeline (the missed
    /// set); contents found published are recorded in `dups` instead.
    staged: Vec<(u8, u8)>,
    /// `(content, published chunk id)` resolved via the shared index.
    dups: Vec<(u8, u8)>,
    retries: u8,
    aborted: bool,
}

/// Shared-store + sessions state for [`PublishModel`].
#[derive(Debug, Clone)]
pub struct PublishState {
    sessions: Vec<PublishSession>,
    /// Published chunks: `(content, real id)` in publish order.
    store: Vec<(u8, u8)>,
    /// First-mapping-wins hook index: `(content, real id)`.
    hooks: Vec<(u8, u8)>,
    /// Recipes: per session, the chunk ids its manifest references.
    recipes: Vec<Option<Vec<u8>>>,
    /// Reserved `(base, len)` ranges, kept forever for the overlap check.
    reserved: Vec<(u8, u8)>,
    /// Real-id allocator.
    next_id: u8,
    /// Publish epoch + log of `(epoch, contents published)`.
    epoch: u8,
    publish_log: Vec<(u8, Vec<u8>)>,
}

impl Model for PublishModel {
    type State = PublishState;

    fn init(&self) -> PublishState {
        PublishState {
            sessions: vec![
                PublishSession {
                    pc: P_SNAPSHOT,
                    epoch0: 0,
                    staged: Vec::new(),
                    dups: Vec::new(),
                    retries: 0,
                    aborted: false,
                };
                self.sessions
            ],
            store: Vec::new(),
            hooks: Vec::new(),
            recipes: vec![None; self.sessions],
            reserved: Vec::new(),
            next_id: 0,
            epoch: 0,
            publish_log: Vec::new(),
        }
    }

    fn threads(&self) -> usize {
        self.sessions
    }

    fn enabled(&self, s: &PublishState, tid: usize) -> bool {
        s.sessions[tid].pc < P_DONE
    }

    fn step(&self, s: &mut PublishState, tid: usize) {
        match s.sessions[tid].pc {
            P_SNAPSHOT => {
                s.sessions[tid].epoch0 = s.epoch;
                s.sessions[tid].pc = P_PIPELINE;
            }
            P_PIPELINE => {
                // Probe the shared index per content; stage what's missed
                // under the next private id (the staging engine allocates
                // monotonically from its LOCAL_ID_BASE floor).
                let sess = &mut s.sessions[tid];
                sess.staged.clear();
                sess.dups.clear();
                let mut local = MODEL_LOCAL_BASE;
                for &content in publish_workload(tid) {
                    match s.hooks.iter().find(|(c, _)| *c == content) {
                        Some(&(_, id)) => sess.dups.push((content, id)),
                        None => {
                            sess.staged.push((content, local));
                            local += 1;
                        }
                    }
                }
                sess.pc = P_PUBLISH;
            }
            P_PUBLISH => {
                // Atomic in the model because the real phase 2 runs under
                // the engine lock; its durability ordering (splice in
                // FLUSH_ORDER) is covered by FlushModel/GcProtectModel.
                let missed: Vec<u8> = s.sessions[tid].staged.iter().map(|&(c, _)| c).collect();
                let epoch0 = s.sessions[tid].epoch0;
                let conflict = self.validate_epoch
                    && s.epoch != epoch0
                    && !missed.is_empty()
                    && s.publish_log
                        .iter()
                        .any(|(e, cs)| *e > epoch0 && cs.iter().any(|c| missed.contains(c)));
                if conflict {
                    let sess = &mut s.sessions[tid];
                    if sess.retries == MODEL_MAX_RETRIES {
                        sess.aborted = true;
                        sess.pc = P_DONE;
                    } else {
                        sess.retries += 1;
                        sess.pc = P_SNAPSHOT;
                    }
                    return;
                }
                let base = s.next_id;
                let span = s.sessions[tid].staged.len() as u8;
                s.reserved.push((base, span));
                if self.advance_reservation {
                    s.next_id += span;
                }
                let map = |id: u8| {
                    if self.remap_ids && id >= MODEL_LOCAL_BASE {
                        id - MODEL_LOCAL_BASE + base
                    } else {
                        id
                    }
                };
                let mut recipe = Vec::new();
                let staged = s.sessions[tid].staged.clone();
                for &(content, local) in &staged {
                    let real = map(local);
                    s.store.push((content, real));
                    // write_hook's exists-guard: first mapping wins.
                    if !s.hooks.iter().any(|(c, _)| *c == content) {
                        s.hooks.push((content, real));
                    }
                    recipe.push(real);
                }
                for &(_, id) in &s.sessions[tid].dups {
                    recipe.push(id);
                }
                s.recipes[tid] = Some(recipe);
                s.epoch += 1;
                let epoch = s.epoch;
                s.publish_log.push((epoch, missed));
                s.sessions[tid].pc = P_DONE;
            }
            _ => {}
        }
    }

    fn invariant(&self, s: &PublishState) -> Result<(), String> {
        for &(content, id) in &s.store {
            if id >= MODEL_LOCAL_BASE {
                return Err(format!(
                    "staging id {id} (content {content}) reached the published store: \
                     the splice failed to remap it below LOCAL_ID_BASE"
                ));
            }
        }
        for (i, &(base_a, len_a)) in s.reserved.iter().enumerate() {
            for &(base_b, len_b) in &s.reserved[i + 1..] {
                if len_a > 0 && len_b > 0 && base_a < base_b + len_b && base_b < base_a + len_a {
                    return Err(format!(
                        "id ranges overlap: [{base_a}, {}) and [{base_b}, {}) were both \
                         reserved",
                        base_a + len_a,
                        base_b + len_b
                    ));
                }
            }
        }
        for (r, recipe) in s.recipes.iter().enumerate() {
            if let Some(ids) = recipe {
                for id in ids {
                    if !s.store.iter().any(|(_, sid)| sid == id) {
                        return Err(format!(
                            "session {r}'s recipe references chunk id {id}, which is not \
                             in the published store"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn quiescent(&self, s: &PublishState) -> Result<(), String> {
        for (r, sess) in s.sessions.iter().enumerate() {
            if sess.aborted {
                return Err(format!(
                    "session {r} exhausted its {MODEL_MAX_RETRIES} retries: the conflict \
                     rule fired on every attempt"
                ));
            }
            if s.recipes[r].is_none() {
                return Err(format!("session {r} never published its recipe"));
            }
        }
        for content in [CONTENT_A, CONTENT_B] {
            let copies = s.store.iter().filter(|(c, _)| *c == content).count();
            if copies > 1 {
                return Err(format!(
                    "content {content} stored {copies} times: a racing publish was \
                     missed and dedup broke"
                ));
            }
            if copies == 0 {
                return Err(format!("content {content} never reached the store"));
            }
        }
        for &(content, id) in &s.hooks {
            if !s.store.iter().any(|&(c, i)| c == content && i == id) {
                return Err(format!("hook for content {content} targets missing chunk {id}"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Intent-record overwrite: write → fsync → rename → retire
// ---------------------------------------------------------------------

/// Model of the durable-overwrite discipline shared by the store backend
/// and the daemon's session intent records: write the intent (wip)
/// record, write the new manifest to a tmp sibling, fsync the tmp,
/// rename it over the target, and only then retire the intent.
///
/// Every reachable state is a crash point: the invariant computes the
/// possible post-crash disk images (a rename of an *unsynced* tmp may
/// surface a torn target after power loss) and runs recovery over each —
/// recovery must always yield either the old or the new manifest, never
/// a torn one, and must be able to clean up every leftover (a tmp with
/// no intent record is orphaned garbage nothing will ever collect).
///
/// A fault-injector thread may arm a rename failure at any point before
/// the rename executes, forcing the writer down the error exit path; the
/// quiescent check then requires the intent record retired and the tmp
/// removed on *both* exit paths — the PR 8 leaked-lease bug, where the
/// persist-failure path skipped the cleanup, is the seeded
/// `intent-retire` mutant.
pub struct IntentModel {
    /// The shipped protocol fsyncs the tmp before renaming it; the
    /// mutant renames an unsynced tmp, whose content can be torn by a
    /// crash after the rename.
    fsync_before_rename: bool,
    /// The shipped error path retires the intent record; the mutant
    /// leaks it (and the session lease it represents).
    retire_on_error: bool,
    /// The shipped protocol retires the intent only after the rename is
    /// durable; the mutant retires first, leaving a window where a crash
    /// orphans the tmp file.
    retire_after_rename: bool,
}

impl IntentModel {
    /// The shipped protocol: fsync, rename, then retire on every path.
    pub fn shipped() -> IntentModel {
        IntentModel { fsync_before_rename: true, retire_on_error: true, retire_after_rename: true }
    }

    /// The seeded bug: the error exit path returns without retiring the
    /// intent record — the historical daemon leak where a failed persist
    /// left the stream lease held and GC pinned. The checker must catch
    /// the leaked record at quiescence.
    pub fn mutant_intent_retire() -> IntentModel {
        IntentModel { retire_on_error: false, ..IntentModel::shipped() }
    }

    /// Test-only mutant: rename without fsync — a crash right after the
    /// rename can surface a torn manifest, which recovery cannot repair.
    pub fn mutant_skip_fsync() -> IntentModel {
        IntentModel { fsync_before_rename: false, ..IntentModel::shipped() }
    }

    /// Test-only mutant: retire the intent before the rename — a crash
    /// between the two leaves a tmp file no recovery pass will ever
    /// clean up.
    pub fn mutant_early_retire() -> IntentModel {
        IntentModel { retire_after_rename: false, ..IntentModel::shipped() }
    }
}

/// Writer position. The happy path runs top to bottom; an armed rename
/// failure diverts `W_RENAME` to the error path (`E_CLEAN_TMP` →
/// `E_RETIRE`).
const I_WRITE_WIP: u8 = 0;
const I_WRITE_TMP: u8 = 1;
const I_FSYNC_TMP: u8 = 2;
const I_RENAME: u8 = 3;
const I_RETIRE: u8 = 4;
const I_DONE: u8 = 5;
const I_E_CLEAN_TMP: u8 = 6;
const I_E_RETIRE: u8 = 7;

/// Tmp-file state on disk.
const TMP_ABSENT: u8 = 0;
const TMP_UNSYNCED: u8 = 1;
const TMP_SYNCED: u8 = 2;

/// Intent-protocol state: the writer's position plus the disk image.
#[derive(Debug, Clone)]
pub struct IntentState {
    w_pc: u8,
    /// True once the target holds the *new* manifest.
    manifest_new: bool,
    /// The rename happened while the tmp was unsynced: a crash from here
    /// on can surface a torn target.
    renamed_unsynced: bool,
    tmp: u8,
    /// The intent (wip) record exists.
    wip: bool,
    /// The injector armed a rename failure.
    fail_rename: bool,
    /// Injector position (one shot).
    i_pc: u8,
    /// The writer exited via the error path.
    failed: bool,
}

impl Model for IntentModel {
    type State = IntentState;

    fn init(&self) -> IntentState {
        IntentState {
            w_pc: I_WRITE_WIP,
            manifest_new: false,
            renamed_unsynced: false,
            tmp: TMP_ABSENT,
            wip: false,
            fail_rename: false,
            i_pc: 0,
            failed: false,
        }
    }

    fn threads(&self) -> usize {
        2
    }

    fn enabled(&self, s: &IntentState, tid: usize) -> bool {
        if tid == 0 {
            s.w_pc != I_DONE
        } else {
            // The injector can arm the failure any time before the
            // rename executes; afterwards it has missed its window.
            s.i_pc == 0 && s.w_pc <= I_RENAME
        }
    }

    fn step(&self, s: &mut IntentState, tid: usize) {
        if tid == 1 {
            s.fail_rename = true;
            s.i_pc = 1;
            return;
        }
        match s.w_pc {
            I_WRITE_WIP => {
                s.wip = true;
                s.w_pc = I_WRITE_TMP;
            }
            I_WRITE_TMP => {
                s.tmp = TMP_UNSYNCED;
                s.w_pc = if self.fsync_before_rename { I_FSYNC_TMP } else { self.pc_after_fsync() };
            }
            I_FSYNC_TMP => {
                s.tmp = TMP_SYNCED;
                s.w_pc = self.pc_after_fsync();
            }
            I_RENAME => {
                if s.fail_rename {
                    s.w_pc = I_E_CLEAN_TMP;
                } else {
                    if s.tmp == TMP_UNSYNCED {
                        s.renamed_unsynced = true;
                    }
                    s.manifest_new = true;
                    s.tmp = TMP_ABSENT;
                    s.w_pc = if self.retire_after_rename { I_RETIRE } else { I_DONE };
                }
            }
            I_RETIRE => {
                s.wip = false;
                s.w_pc = if self.retire_after_rename { I_DONE } else { I_RENAME };
            }
            I_E_CLEAN_TMP => {
                s.tmp = TMP_ABSENT;
                s.failed = true;
                s.w_pc = if self.retire_on_error { I_E_RETIRE } else { I_DONE };
            }
            I_E_RETIRE => {
                s.wip = false;
                s.w_pc = I_DONE;
            }
            _ => {}
        }
    }

    fn invariant(&self, s: &IntentState) -> Result<(), String> {
        // Crash here: enumerate the possible disk images and recover.
        // Image 1 — everything as tracked. Image 2 — if the rename moved
        // an unsynced tmp, the target may additionally be torn.
        let torn_possible = s.renamed_unsynced;
        if torn_possible {
            // Recovery reads the target: with or without the intent
            // record it has no older copy to fall back to — the rename
            // destroyed the old manifest and the new bytes never hit
            // stable storage.
            return Err("crash point where the manifest can be torn: the tmp was renamed over \
                 the target without an fsync, so recovery can yield neither the old nor \
                 the new manifest"
                .into());
        }
        if s.tmp != TMP_ABSENT && !s.wip {
            return Err("crash point with a tmp file on disk and no intent record: recovery \
                 only scans intents, so the tmp is orphaned forever"
                .into());
        }
        Ok(())
    }

    fn quiescent(&self, s: &IntentState) -> Result<(), String> {
        if s.wip {
            return Err("intent (wip) record leaked: a commit exit path failed to retire it, \
                 leaving the stream lease held and GC pinned"
                .into());
        }
        if s.tmp != TMP_ABSENT {
            return Err("tmp file leaked past commit completion".into());
        }
        if s.failed && s.manifest_new {
            return Err("failed overwrite left the new manifest visible".into());
        }
        if !s.failed && !s.manifest_new {
            return Err("successful overwrite never made the new manifest visible".into());
        }
        Ok(())
    }
}

impl IntentModel {
    /// Where the writer goes once the tmp is as durable as this variant
    /// makes it: straight to the rename, unless the early-retire mutant
    /// retires the intent first.
    fn pc_after_fsync(&self) -> u8 {
        if self.retire_after_rename {
            I_RENAME
        } else {
            I_RETIRE
        }
    }
}

// ---------------------------------------------------------------------
// Compaction racing protected GC
// ---------------------------------------------------------------------

/// Model of container compaction (`mhd_core::compact`) interleaved with
/// watermark-protected mark-sweep GC (`mhd_core::gc::collect_protected`).
///
/// The store starts with a garbage chunk (id 0) and a live container
/// (id 1) referenced by one recipe. The compactor registers the
/// allocation watermark (the same `SessionRegistry` discipline write
/// sessions use), writes the replacement container under a **fresh
/// monotonic id**, retargets the recipe, deletes the old container, and
/// deregisters. GC snapshots its sweep cutoff — `min(next id, registered
/// watermarks)` — and the recipe-referenced live set at mark time, then
/// sweeps one chunk per step.
///
/// Invariants at every state: the recipe's target is on disk (no live
/// chunk is ever collected), and no id ever returns to disk after being
/// deleted (compaction never resurrects a swept id — the monotonic
/// allocator is what makes the sweep safe). Quiescence requires the
/// garbage reclaimed, the old container gone, and the recipe on the new
/// container — so neither a GC that never sweeps nor a compactor that
/// never finishes can pass.
pub struct CompactGcModel {
    /// The shipped sweep honours registered watermarks; the mutant
    /// ignores the compactor's registration and sweeps the replacement
    /// container out from under it before the retarget.
    honor_watermarks: bool,
    /// The shipped compactor allocates a fresh monotonic id; the mutant
    /// reuses the lowest free slot, resurrecting swept ids.
    fresh_ids: bool,
}

impl CompactGcModel {
    /// The shipped protocol: watermark-protected sweep, monotonic ids.
    pub fn shipped() -> CompactGcModel {
        CompactGcModel { honor_watermarks: true, fresh_ids: true }
    }

    /// The seeded bug: the sweep cutoff ignores the compactor's
    /// registration, so a mark taken after the new container is written
    /// but before the recipe retarget sweeps it as unreferenced garbage.
    /// The checker must catch the dangling recipe.
    pub fn mutant_compact_sweep() -> CompactGcModel {
        CompactGcModel { honor_watermarks: false, fresh_ids: true }
    }

    /// Test-only mutant: the compactor's allocator reuses freed slots,
    /// writing the replacement container over an id GC already swept.
    pub fn mutant_id_reuse() -> CompactGcModel {
        CompactGcModel { fresh_ids: false, ..CompactGcModel::shipped() }
    }
}

/// Compactor position.
const C_REGISTER: u8 = 0;
const C_WRITE_NEW: u8 = 1;
const C_RETARGET: u8 = 2;
const C_DELETE_OLD: u8 = 3;
const C_DEREGISTER: u8 = 4;
const C_DONE: u8 = 5;

/// Chunk-slot count: garbage (0), old container (1), replacement (2).
const CG_SLOTS: usize = 3;

/// Compaction-vs-GC state.
#[derive(Debug, Clone)]
pub struct CompactGcState {
    c_pc: u8,
    /// The compactor's registered watermark, while registered.
    watermark: Option<u8>,
    /// Id the compactor allocated for the replacement container.
    new_id: Option<u8>,
    /// Chunk id the single recipe references.
    recipe_target: u8,
    disk: [bool; CG_SLOTS],
    /// Ids ever deleted (by GC sweep or compaction's old-container
    /// delete); writing one again is a resurrection.
    retired: [bool; CG_SLOTS],
    next_id: u8,
    gc_phase: u8,
    cutoff: u8,
    live: [bool; CG_SLOTS],
    sweep_idx: usize,
}

impl Model for CompactGcModel {
    type State = CompactGcState;

    fn init(&self) -> CompactGcState {
        let mut disk = [false; CG_SLOTS];
        disk[0] = true; // pre-existing unreferenced garbage
        disk[1] = true; // the fragmented container the recipe lives on
        CompactGcState {
            c_pc: C_REGISTER,
            watermark: None,
            new_id: None,
            recipe_target: 1,
            disk,
            retired: [false; CG_SLOTS],
            next_id: 2,
            gc_phase: GC_IDLE,
            cutoff: 0,
            live: [false; CG_SLOTS],
            sweep_idx: 0,
        }
    }

    fn threads(&self) -> usize {
        2
    }

    fn enabled(&self, s: &CompactGcState, tid: usize) -> bool {
        if tid == 0 {
            s.gc_phase < GC_DONE
        } else {
            s.c_pc < C_DONE
        }
    }

    fn step(&self, s: &mut CompactGcState, tid: usize) {
        if tid == 0 {
            if s.gc_phase == GC_IDLE {
                s.cutoff = s.next_id;
                if self.honor_watermarks {
                    if let Some(wm) = s.watermark {
                        s.cutoff = s.cutoff.min(wm);
                    }
                }
                s.live = [false; CG_SLOTS];
                s.live[s.recipe_target as usize] = true;
                s.sweep_idx = 0;
                s.gc_phase = GC_MARKED;
            } else {
                let i = s.sweep_idx;
                if s.disk[i] && !s.live[i] && (i as u8) < s.cutoff {
                    s.disk[i] = false;
                    s.retired[i] = true;
                }
                s.sweep_idx += 1;
                if s.sweep_idx == CG_SLOTS {
                    s.gc_phase = GC_DONE;
                }
            }
            return;
        }
        match s.c_pc {
            C_REGISTER => {
                s.watermark = Some(s.next_id);
                s.c_pc = C_WRITE_NEW;
            }
            C_WRITE_NEW => {
                let id = if self.fresh_ids {
                    let id = s.next_id;
                    s.next_id += 1;
                    id
                } else {
                    // Lowest-free-slot allocator: the resurrection bug.
                    (0..CG_SLOTS as u8).find(|&i| !s.disk[i as usize]).unwrap_or(s.next_id)
                };
                s.new_id = Some(id);
                s.disk[id as usize] = true;
                s.c_pc = C_RETARGET;
            }
            C_RETARGET => {
                if let Some(id) = s.new_id {
                    s.recipe_target = id;
                }
                s.c_pc = C_DELETE_OLD;
            }
            C_DELETE_OLD => {
                s.disk[1] = false;
                s.retired[1] = true;
                s.c_pc = C_DEREGISTER;
            }
            C_DEREGISTER => {
                s.watermark = None;
                s.c_pc = C_DONE;
            }
            _ => {}
        }
    }

    fn invariant(&self, s: &CompactGcState) -> Result<(), String> {
        if !s.disk[s.recipe_target as usize] {
            return Err(format!(
                "the recipe references chunk {}, which is not on disk — GC swept a \
                 live chunk (cutoff {}, compactor watermark {:?})",
                s.recipe_target, s.cutoff, s.watermark
            ));
        }
        for i in 0..CG_SLOTS {
            if s.disk[i] && s.retired[i] {
                return Err(format!(
                    "chunk id {i} is back on disk after being swept: compaction \
                     resurrected a retired id"
                ));
            }
        }
        Ok(())
    }

    fn quiescent(&self, s: &CompactGcState) -> Result<(), String> {
        if s.disk[0] {
            return Err("pre-existing garbage chunk 0 was never reclaimed".into());
        }
        if s.disk[1] {
            return Err("compaction never deleted the old container".into());
        }
        if s.c_pc != C_DONE {
            return Err("compaction never completed".into());
        }
        if s.watermark.is_some() {
            return Err("compactor never deregistered its watermark".into());
        }
        match s.new_id {
            Some(id) if s.recipe_target == id && s.disk[id as usize] => Ok(()),
            _ => Err(format!(
                "recipe does not sit on the live replacement container \
                 (target {}, new id {:?})",
                s.recipe_target, s.new_id
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mck::check;

    const BUDGET: usize = 2_000_000;

    #[test]
    fn shipped_flush_order_is_crash_consistent() {
        let result = check(&FlushModel::shipped(), BUDGET);
        assert!(result.passed(), "violation: {:?}", result.violation);
        // The workload is tiny by design; ~2 dozen distinct states is the
        // true exhaustive count (queue claims are popped deterministically,
        // so symmetric worker schedules collapse in the dedup set).
        assert!(result.states >= 20, "too few states: {}", result.states);
    }

    #[test]
    fn reversed_flush_order_is_caught() {
        let result = check(&FlushModel::mutant_flush_order(), BUDGET);
        let v = result.violation.expect("reversed order must violate crash consistency");
        assert!(v.message.contains("crash point"), "{}", v.message);
    }

    #[test]
    fn seeded_concurrency_bugs_are_caught() {
        // The mutants replicate historical bugs; the checker finding them is
        // what CI relies on to trust the green shipped-model runs.
        let flush = check(&FlushModel::mutant_flush_order(), 1_000_000);
        assert!(flush.violation.is_some(), "reversed FLUSH_ORDER not caught");
        let ring = check(&RingModel::mutant_ring_prune(), 1_000_000);
        assert!(ring.violation.is_some(), "eager ring prune not caught");

        let flush = check(&FlushModel::shipped(), 1_000_000);
        assert!(flush.passed(), "shipped flush protocol flagged: {:?}", flush.violation);
        let ring = check(&RingModel::shipped(), 1_000_000);
        assert!(ring.passed(), "shipped ring protocol flagged: {:?}", ring.violation);
    }

    #[test]
    fn any_flush_order_violating_a_ref_edge_is_caught() {
        // Not just the full reversal: every permutation that breaks an
        // edge must fail, and every permutation preserving all edges must
        // pass (there are exactly three: the shipped one, and the two
        // where FileManifest flushes earlier among the later kinds).
        let kinds = FileKind::FLUSH_ORDER;
        let mut pass = 0usize;
        let mut fail = 0usize;
        for p in permutations(&kinds) {
            let model = FlushModel { order: p.clone(), workers: 2 };
            let pos = |kind: FileKind| p.iter().position(|&k| k == kind);
            let edges_ok = FileKind::ALL.into_iter().all(|referrer| {
                referrer.references().iter().all(|&referee| pos(referee) < pos(referrer))
            });
            let result = check(&model, BUDGET);
            assert_eq!(
                result.passed(),
                edges_ok,
                "order {p:?}: edges_ok={edges_ok} but checker said {:?}",
                result.violation
            );
            if edges_ok {
                pass += 1;
            } else {
                fail += 1;
            }
        }
        assert_eq!(pass, 3);
        assert_eq!(fail, 21);
    }

    fn permutations(kinds: &[FileKind; 4]) -> Vec<Vec<FileKind>> {
        let mut out = Vec::new();
        let mut items = kinds.to_vec();
        permute(&mut items, 0, &mut out);
        out
    }

    fn permute(items: &mut Vec<FileKind>, k: usize, out: &mut Vec<Vec<FileKind>>) {
        if k == items.len() {
            out.push(items.clone());
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, out);
            items.swap(k, i);
        }
    }

    #[test]
    fn shipped_ring_prune_loses_nothing() {
        let result = check(&RingModel::shipped(), BUDGET);
        assert!(result.passed(), "violation: {:?}", result.violation);
        assert!(result.states > 100, "too few states: {}", result.states);
    }

    #[test]
    fn shipped_gc_protection_is_safe_and_reclaims_garbage() {
        let result = check(&GcProtectModel::shipped(), BUDGET);
        assert!(result.passed(), "violation: {:?}", result.violation);
        assert!(result.states > 100, "too few states: {}", result.states);
    }

    #[test]
    fn watermark_ignoring_gc_is_caught() {
        let result = check(&GcProtectModel::mutant_gc_protect(), BUDGET);
        let v = result.violation.expect("ignoring session watermarks must sweep a live chunk");
        assert!(v.message.contains("swept"), "{}", v.message);
        // The repro schedule replays deterministically.
        let model = GcProtectModel::mutant_gc_protect();
        let mut s = model.init();
        for &tid in &v.schedule {
            model.step(&mut s, tid);
        }
        assert_eq!(format!("{s:?}"), v.state);
    }

    #[test]
    fn publish_before_splice_is_caught() {
        let result = check(&GcProtectModel::mutant_splice_order(), BUDGET);
        let v = result
            .violation
            .expect("publishing a recipe before splicing its chunk must violate the invariant");
        assert!(v.message.contains("spliced"), "{}", v.message);
        // The repro schedule replays deterministically.
        let model = GcProtectModel::mutant_splice_order();
        let mut s = model.init();
        for &tid in &v.schedule {
            model.step(&mut s, tid);
        }
        assert_eq!(format!("{s:?}"), v.state);
    }

    #[test]
    fn gc_that_protects_everything_fails_quiescence() {
        // Guard the guard: a cutoff of zero (sweep nothing, ever) must be
        // rejected too — via the unreclaimed-garbage quiescence check —
        // so the shipped model cannot rot into vacuous safety.
        struct NeverSweep;
        impl Model for NeverSweep {
            type State = GcProtectState;
            fn init(&self) -> GcProtectState {
                GcProtectModel::shipped().init()
            }
            fn threads(&self) -> usize {
                GcProtectModel::shipped().threads()
            }
            fn enabled(&self, s: &GcProtectState, tid: usize) -> bool {
                GcProtectModel::shipped().enabled(s, tid)
            }
            fn step(&self, s: &mut GcProtectState, tid: usize) {
                GcProtectModel::shipped().step(s, tid);
                s.cutoff = 0; // paranoia mutant: protect every id
            }
            fn invariant(&self, s: &GcProtectState) -> Result<(), String> {
                GcProtectModel::shipped().invariant(s)
            }
            fn quiescent(&self, s: &GcProtectState) -> Result<(), String> {
                GcProtectModel::shipped().quiescent(s)
            }
        }
        let result = check(&NeverSweep, BUDGET);
        let v = result.violation.expect("a GC that never sweeps must fail quiescence");
        assert!(v.message.contains("never reclaimed"), "{}", v.message);
    }

    #[test]
    fn eager_ring_prune_is_caught() {
        let result = check(&RingModel::mutant_ring_prune(), BUDGET);
        let v = result.violation.expect("eager prune must lose events in some schedule");
        assert!(v.message.contains("pruned") || v.message.contains("event loss"), "{}", v.message);
        // The repro schedule replays deterministically.
        let model = RingModel::mutant_ring_prune();
        let mut s = model.init();
        for &tid in &v.schedule {
            model.step(&mut s, tid);
        }
        assert_eq!(format!("{s:?}"), v.state);
    }

    /// Replays a violation's schedule from `init` and asserts it lands on
    /// the reported state — the repro contract every mutant test relies on.
    fn assert_schedule_replays<M: Model>(model: &M, v: &crate::mck::Violation) {
        let mut s = model.init();
        for &tid in &v.schedule {
            assert!(model.enabled(&s, tid), "schedule took a disabled step");
            model.step(&mut s, tid);
        }
        assert_eq!(format!("{s:?}"), v.state);
    }

    // --- two-phase publish ---

    #[test]
    fn model_constants_track_the_shipped_daemon() {
        // The model scales the id floor down to fit its u8 state, but the
        // protocol facts it abstracts must hold for the shipped values:
        // the daemon's floor is exactly the documented `1 << 48`, the
        // model's scaled floor sits
        // below it, and the model's retry budget does not exceed the
        // daemon's (so "exhausts retries" in the model implies it in the
        // real protocol too).
        assert_eq!(mhd_daemon::LOCAL_ID_BASE, 1 << 48);
        assert!(u64::from(MODEL_LOCAL_BASE) < mhd_daemon::LOCAL_ID_BASE);
        assert!(u32::from(MODEL_MAX_RETRIES) <= mhd_daemon::MAX_COMMIT_RETRIES);
    }

    #[test]
    fn shipped_publish_protocol_is_exact_and_race_free() {
        let result = check(&PublishModel::shipped(), BUDGET);
        assert!(result.passed(), "violation: {:?}", result.violation);
        // The workload must actually exercise the conflict path: with two
        // sessions both ingesting CONTENT_A, some schedule forces a
        // retry, so the state space is well beyond the two straight-line
        // interleavings (~14 states) of a conflict-free pair.
        assert!(result.states > 25, "too few states: {}", result.states);
    }

    #[test]
    fn publish_without_epoch_validation_double_stores() {
        let result = check(&PublishModel::mutant_publish_epoch(), BUDGET);
        let v = result.violation.expect("skipping the epoch-log check must break dedup");
        assert!(v.message.contains("stored 2 times"), "{}", v.message);
        assert_schedule_replays(&PublishModel::mutant_publish_epoch(), &v);
    }

    #[test]
    fn publish_without_remap_leaks_staging_ids() {
        let result = check(&PublishModel::mutant_no_remap(), BUDGET);
        let v = result.violation.expect("an unmapped splice must leak staging ids");
        assert!(v.message.contains("staging id"), "{}", v.message);
        assert_schedule_replays(&PublishModel::mutant_no_remap(), &v);
    }

    #[test]
    fn publish_with_stuck_reservation_overlaps_ranges() {
        let result = check(&PublishModel::mutant_overlapping_reserve(), BUDGET);
        let v = result.violation.expect("a non-advancing allocator must overlap id ranges");
        assert!(v.message.contains("overlap"), "{}", v.message);
        assert_schedule_replays(&PublishModel::mutant_overlapping_reserve(), &v);
    }

    #[test]
    fn publish_conflict_rule_matches_the_shipped_predicate() {
        // Deterministic single-path replay of the race the epoch log
        // exists for: session 1 snapshots, session 0 publishes A, then
        // session 1 runs its (stale) pipeline and must detect the
        // conflict, retry, and dedup A against session 0's copy.
        let model = PublishModel::shipped();
        let mut s = model.init();
        model.step(&mut s, 1); // session 1: snapshot epoch 0
        model.step(&mut s, 0); // session 0: snapshot
        model.step(&mut s, 0); // session 0: pipeline (misses A)
        model.step(&mut s, 0); // session 0: publish A at epoch 1
        model.step(&mut s, 1); // session 1: pipeline — probe ran *after*
                               // the publish, so A resolves as a dup
        model.step(&mut s, 1); // session 1: publish (no conflict: missed={B})
        assert_eq!(s.sessions[1].retries, 0, "a dup-resolved probe needs no retry");
        assert!(model.invariant(&s).is_ok());
        assert!(model.quiescent(&s).is_ok(), "{:?}", model.quiescent(&s));
        assert_eq!(s.store.len(), 2, "exactly A and B stored once each");

        // Now the stale-probe order: session 1's pipeline runs *before*
        // session 0 publishes — the epoch log is the only thing standing
        // between this schedule and a double store.
        let mut s = model.init();
        model.step(&mut s, 1); // session 1: snapshot epoch 0
        model.step(&mut s, 1); // session 1: pipeline (misses A and B)
        model.step(&mut s, 0); // session 0: snapshot
        model.step(&mut s, 0); // session 0: pipeline
        model.step(&mut s, 0); // session 0: publish A at epoch 1
        model.step(&mut s, 1); // session 1: publish → conflict → retry
        assert_eq!(s.sessions[1].retries, 1, "stale missed set must trigger a retry");
        assert_eq!(s.sessions[1].pc, P_SNAPSHOT);
    }

    // --- intent-record overwrite ---

    #[test]
    fn shipped_intent_protocol_is_crash_consistent() {
        let result = check(&IntentModel::shipped(), BUDGET);
        assert!(result.passed(), "violation: {:?}", result.violation);
        // Both exit paths (clean rename + injected failure) are explored:
        // strictly more states than the 8-step happy path alone.
        assert!(result.states > 10, "too few states: {}", result.states);
    }

    #[test]
    fn intent_leak_on_error_path_is_caught() {
        let result = check(&IntentModel::mutant_intent_retire(), BUDGET);
        let v = result.violation.expect("a non-retiring error path must leak the wip record");
        assert!(v.message.contains("leaked"), "{}", v.message);
        assert_schedule_replays(&IntentModel::mutant_intent_retire(), &v);
    }

    #[test]
    fn rename_without_fsync_can_tear_the_manifest() {
        let result = check(&IntentModel::mutant_skip_fsync(), BUDGET);
        let v = result.violation.expect("renaming an unsynced tmp must admit a torn manifest");
        assert!(v.message.contains("torn"), "{}", v.message);
        assert_schedule_replays(&IntentModel::mutant_skip_fsync(), &v);
    }

    #[test]
    fn retiring_the_intent_before_rename_orphans_the_tmp() {
        let result = check(&IntentModel::mutant_early_retire(), BUDGET);
        let v = result.violation.expect("retiring before the rename must orphan the tmp file");
        assert!(v.message.contains("orphaned"), "{}", v.message);
        assert_schedule_replays(&IntentModel::mutant_early_retire(), &v);
    }

    // --- compaction vs protected GC ---

    #[test]
    fn shipped_compaction_survives_concurrent_gc() {
        let result = check(&CompactGcModel::shipped(), BUDGET);
        assert!(result.passed(), "violation: {:?}", result.violation);
        assert!(result.states > 35, "too few states: {}", result.states);
    }

    #[test]
    fn compaction_registration_is_load_bearing() {
        let result = check(&CompactGcModel::mutant_compact_sweep(), BUDGET);
        let v = result
            .violation
            .expect("a sweep ignoring the compactor's watermark must collect a live chunk");
        assert!(v.message.contains("swept a live chunk"), "{}", v.message);
        assert_schedule_replays(&CompactGcModel::mutant_compact_sweep(), &v);
    }

    #[test]
    fn compaction_id_reuse_resurrects_swept_ids() {
        let result = check(&CompactGcModel::mutant_id_reuse(), BUDGET);
        let v = result.violation.expect("a slot-reusing allocator must resurrect a retired id");
        assert!(v.message.contains("resurrected"), "{}", v.message);
        assert_schedule_replays(&CompactGcModel::mutant_id_reuse(), &v);
    }
}
