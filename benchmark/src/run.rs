//! One benchmark run: set-up, timed passes, checks, and the metrics of
//! either kind — end-to-end from untraced passes, per-layer from a traced
//! run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use mhd_daemon::{DaemonConfig, SharedStore};
use mhd_store::{BatchedDirBackend, MemBackend};
use mhd_workload::{trace::export_to_dir, Corpus, CorpusSpec};

use crate::harness::{quiesce, Env, Result, OUT_DIR};
use crate::layers::{self, Layers};
use crate::stats::{median, Summary};
use crate::trace::{write_jsonl, Span, Tracer};
use crate::workloads::{
    cli_backup, concurrent_clients, daemon_backup, mem_dedup, newest_first, Sample, Tally,
    Workload, MIB, RESTORE_ROUNDS,
};

/// Fewest set-ups a run makes, to report the median set-up time.
const MIN_SETUPS: usize = 3;

/// A run keeps setting up until this share of `--seconds` has gone into it,
/// on top of the `--seconds` its passes get: a set-up is a fifth of a second
/// of page faults and file creation, the noisiest work on this box, and is
/// repeated a dozen times.
const SETUP_SHARE: f64 = 1.0 / 10.0;

/// Fewest passes a run measures, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Samples a p95 needs so that ten lie beyond it.
const P95_SAMPLES: usize = 200;
/// Most traced passes a `--trace 1` run pools.
const MAX_TRACED_PASSES: usize = 5;

/// Corpus of a normal run: 8 machines × 6 days of 2 MiB images. The
/// paper-like 14 × 14 × 4 MiB corpus would need minutes per run; the
/// benchmark has to finish over a hundred runs in under an hour.
pub const DEFAULT_BYTES: u64 = 96 << 20;
const MACHINES: usize = 8;
const DAYS: usize = 6;

/// Seed of the corpus *structure*: which bytes are duplicates of which.
/// It is the same in every run; see [`generate_corpus`].
const STRUCTURE_SEED: u64 = 42;

/// Shape of the corpus: paper-like mutation geometry, scaled to `bytes`
/// over 8 machines × 6 days — or `CorpusSpec::tiny` for `--smoke`.
pub fn corpus_spec(bytes: u64, smoke: bool) -> CorpusSpec {
    if smoke {
        return CorpusSpec::tiny(STRUCTURE_SEED);
    }
    // paper_like derives the mutation geometry from the image size, which
    // it takes to be a 14 × 14-th of the total.
    let paper = CorpusSpec::default();
    let image_bytes = bytes / (MACHINES * DAYS) as u64;
    let shaped = CorpusSpec::paper_like(image_bytes * (paper.machines * paper.snapshots) as u64);
    CorpusSpec { seed: STRUCTURE_SEED, machines: MACHINES, snapshots: DAYS, ..shaped }
}

/// A permutation of the byte values, drawn from `seed` (Fisher–Yates over
/// splitmix64).
fn substitution(seed: u64) -> [u8; 256] {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut table: [u8; 256] = std::array::from_fn(|i| i as u8);
    for i in (1..256usize).rev() {
        table.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    table
}

/// The inputs of a run, made from `seed`: the corpus `spec` describes, with
/// every byte sent through a seed-drawn substitution.
///
/// `--seed` changes the corpus bytes and nothing else. The generator draws
/// structure and content from one seed, and with only ~70 mutation sites
/// in a corpus this size the duplicate share moves by a quarter from seed
/// to seed — and with it every space ratio and throughput. A substitution
/// keeps every duplicate a duplicate wherever it sits, while all the bytes,
/// hence every chunk boundary and every hash, differ from seed to seed.
pub fn generate_corpus(spec: CorpusSpec, seed: u64) -> Corpus {
    let mut corpus = Corpus::generate(spec);
    let table = substitution(seed);
    for file in corpus.snapshots.iter_mut().flat_map(|s| &mut s.files) {
        file.data = file.data.iter().map(|&b| table[b as usize]).collect::<Vec<u8>>().into();
    }
    corpus
}

/// What one set-up built.
struct Fixture {
    corpus: Corpus,
    /// `cli-backup`: the corpus as a directory tree.
    export: Option<PathBuf>,
    generate_s: f64,
    export_s: f64,
}

impl Fixture {
    fn setup_s(&self) -> f64 {
        self.generate_s + self.export_s
    }
}

fn set_up(env: &Env, workload: Workload, spec: CorpusSpec, seed: u64) -> Result<Fixture> {
    let start = Instant::now();
    let corpus = generate_corpus(spec, seed);
    let generate_s = start.elapsed().as_secs_f64();

    let mut fixture = Fixture { corpus, export: None, generate_s, export_s: 0.0 };
    if workload == Workload::CliBackup {
        let dir = env.work.unused("export");
        let start = Instant::now();
        export_to_dir(&fixture.corpus, &dir)?;
        fixture.export_s = start.elapsed().as_secs_f64();
        fixture.export = Some(dir);
    }
    Ok(fixture)
}

/// A pass is repeated when the hypervisor gave more than this share of the
/// box's CPU time to someone else while it ran (`steal` in `/proc/stat`).
///
/// Quiet, this box loses 0.3 %. Now and then it loses most of its CPU for a
/// minute or more: two `mem-dedup` runs in a row did 45 MiB/s instead of
/// 130, with 92 CPU-seconds stolen in 55 s. Such a pass times the host's
/// other guests, and what decides that it goes is a counter no change to
/// the program can move.
const MAX_STEAL_SHARE: f64 = 0.05;

/// Runs `pass` at least `at_least` times, then while one more fits into
/// `seconds` — going by how long those so far took, so that a run's length
/// does not depend on how long its last pass happened to be. A pass spoiled
/// by stolen CPU counts for nothing but its `tally`, and is repeated, until
/// another `seconds` have gone that way.
fn passes(
    at_least: usize,
    seconds: f64,
    tally: &mut Tally,
    mut pass: impl FnMut() -> Result<Sample>,
) -> Result<Vec<Sample>> {
    let start = Instant::now();
    let cpus = crate::procfs::nproc() as f64;
    let mut spoiled_s = 0.0;
    let mut kept = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64() - spoiled_s;
        if kept.len() >= at_least && elapsed + elapsed / kept.len() as f64 > seconds {
            return Ok(kept);
        }
        let (began, stolen) = (Instant::now(), crate::procfs::stolen_cpu_seconds());
        let sample = pass()?;
        let wall_s = began.elapsed().as_secs_f64();
        let share = (crate::procfs::stolen_cpu_seconds() - stolen) / (wall_s * cpus);
        if share > MAX_STEAL_SHARE && spoiled_s + wall_s <= seconds {
            eprintln!(
                "note: {:.0} % of the CPU was stolen during a pass; repeating it",
                share * 100.0
            );
            spoiled_s += wall_s;
            tally.absorb(sample.tally);
        } else {
            kept.push(sample);
        }
    }
}

/// One workload pass, traced if `tracer` is there. `warm_up` marks the pass
/// whose timings are dropped: it is the one that samples `cli-backup`'s RSS.
fn one_pass(
    env: &Env,
    workload: Workload,
    fixture: &Fixture,
    tracer: Option<&Tracer>,
    warm_up: bool,
) -> Result<Sample> {
    let corpus = &fixture.corpus;
    match workload {
        Workload::MemDedup => mem_dedup(corpus),
        Workload::CliBackup => {
            let export = fixture.export.as_deref().expect("set-up exported");
            cli_backup(env, corpus, export, tracer, warm_up)
        }
        Workload::DaemonSerial => daemon_backup(env, corpus, 1, tracer),
        Workload::DaemonConcurrent => daemon_backup(env, corpus, concurrent_clients(), tracer),
    }
}

/// The untimed start of a disk workload's run: one pass that warms the
/// page cache, loads the binary and finishes lazy set-up — and, for
/// `cli-backup`, is the one pass that pays for RSS sampling. Returns that
/// `cli-backup` pass, which carries its `peak_rss_mib`.
fn warm_up(
    env: &Env,
    workload: Workload,
    fixture: &Fixture,
    tally: &mut Tally,
) -> Result<Option<Sample>> {
    if workload == Workload::MemDedup {
        return Ok(None);
    }
    let pass = one_pass(env, workload, fixture, None, true)?;
    tally.absorb(pass.tally);
    Ok((workload == Workload::CliBackup).then_some(pass))
}

/// `daemon-concurrent` must dedup like `daemon-serial`: commit order
/// permutes hook placement, so the count may drift, but by no more than
/// 1 % (at least two chunks). Backs the corpus up once over one connection,
/// checks every pass of `concurrent` against it, and returns that serial
/// pass.
fn check_against_serial(
    env: &Env,
    corpus: &Corpus,
    concurrent: &[Sample],
    tally: &mut Tally,
) -> Result<Sample> {
    let serial = daemon_backup(env, corpus, 1, None)?;
    tally.absorb(serial.tally);
    let slack = (serial.chunks_stored / 100).max(2);
    for pass in concurrent {
        tally.check(pass.chunks_stored.abs_diff(serial.chunks_stored) <= slack, || {
            format!(
                "concurrent run stored {} chunks, serial {} (slack {slack})",
                pass.chunks_stored, serial.chunks_stored
            )
        });
    }
    Ok(serial)
}

/// A metric of a run: the value it reports and the samples behind it.
pub struct Measured {
    /// What goes on the result line.
    pub value: f64,
    /// The per-pass (or per-set-up) samples.
    pub samples: Summary,
}

/// The result of a run: each metric measured, and the tally.
pub struct Outcome {
    /// Metric name → its value and samples within the run.
    pub metrics: BTreeMap<String, Measured>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

/// A quantity that should be the same on every pass: the median.
fn typical(values: &[f64]) -> Measured {
    let samples = Summary::of(values);
    Measured { value: samples.median, samples }
}

fn typical_of(samples: &[Sample], value: impl Fn(&Sample) -> f64) -> Measured {
    typical(&samples.iter().map(value).collect::<Vec<_>>())
}

/// A throughput: all the bytes of the run's passes over all their seconds.
///
/// Not the median of the passes' rates. A vCPU of this box runs at one of
/// two speeds a quarter apart and changes every few seconds, so the passes
/// of a run come in two kinds, and their median is the speed of whichever
/// kind is in the majority: with the two near balance it flipped from run
/// to run, and ten runs spread by the whole gap. The total follows the mix
/// smoothly. (Simulated with dwell times of 4 s and 15 one-second passes:
/// median 18 %, total 9 % spread; the median wins only while one speed
/// holds over three quarters of the time.) The price is that one stalled
/// pass shows in the value; min and max of the passes are printed beside it.
fn rate(
    samples: &[Sample],
    bytes: impl Fn(&Sample) -> u64,
    seconds: impl Fn(&Sample) -> f64,
) -> Measured {
    let per_pass: Vec<f64> = samples.iter().map(|s| bytes(s) as f64 / MIB / seconds(s)).collect();
    let total_bytes: u64 = samples.iter().map(&bytes).sum();
    let total_seconds: f64 = samples.iter().map(&seconds).sum();
    Measured { value: total_bytes as f64 / MIB / total_seconds, samples: Summary::of(&per_pass) }
}

/// A `--trace 0` run: set-ups for `SETUP_SHARE` of `seconds`, then passes
/// for `seconds`.
pub fn end_to_end(
    env: &Env,
    workload: Workload,
    spec: CorpusSpec,
    seed: u64,
    seconds: f64,
) -> Result<Outcome> {
    let start = Instant::now();
    let mut setup_s = Vec::new();
    let mut fixture = None;
    while setup_s.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < seconds * SETUP_SHARE {
        drop(fixture.take()); // one corpus in memory at a time
        let built = set_up(env, workload, spec, seed)?;
        setup_s.push(built.setup_s());
        fixture = Some(built);
    }
    let fixture = fixture.expect("MIN_SETUPS is at least one");
    let mut tally = Tally::default();
    let warm_up = warm_up(env, workload, &fixture, &mut tally)?;

    let passes =
        passes(MIN_PASSES, seconds, &mut tally, || one_pass(env, workload, &fixture, None, false))?;
    if workload == Workload::DaemonConcurrent {
        check_against_serial(env, &fixture.corpus, &passes, &mut tally)?;
    }
    for sample in &passes {
        tally.absorb(sample.tally);
    }

    // The passes one by one, for whoever wonders what a value is made of.
    let seconds_of = |of: fn(&Sample) -> f64, samples: &[Sample]| {
        samples.iter().map(|s| format!("{:.3}", of(s))).collect::<Vec<_>>().join(" ")
    };
    eprintln!("backup seconds per pass: {}", seconds_of(|s| s.backup_s, &passes));
    eprintln!("restore seconds per pass: {}", seconds_of(|s| s.restore_s, &passes));

    let input = |s: &Sample| s.space.input_bytes as f64;
    let metrics = BTreeMap::from([
        ("backup_mib_s".to_string(), rate(&passes, |s| s.space.input_bytes, |s| s.backup_s)),
        ("restore_mib_s".to_string(), rate(&passes, |s| s.restored_bytes, |s| s.restore_s)),
        (
            "stored_bytes_per_input_byte".to_string(),
            typical_of(&passes, |s| s.space.stored_bytes as f64 / input(s)),
        ),
        (
            "metadata_bytes_per_input_byte".to_string(),
            typical_of(&passes, |s| s.space.metadata_bytes as f64 / input(s)),
        ),
        (
            "disk_bytes_per_input_byte".to_string(),
            typical_of(&passes, |s| s.space.disk_bytes as f64 / input(s)),
        ),
        // cli-backup's children are sampled on the warm-up pass only.
        (
            "peak_rss_mib".to_string(),
            typical_of(warm_up.as_ref().map_or(&passes, std::slice::from_ref), |s| s.peak_rss_mib),
        ),
        ("setup_s".to_string(), typical(&setup_s)),
    ]);
    Ok(Outcome { metrics, tally })
}

/// Median seconds of the backups of `samples`.
fn backup_seconds(samples: &[Sample]) -> f64 {
    median(&samples.iter().map(|s| s.backup_s).collect::<Vec<_>>())
}

/// Median of five `mhd backup` runs of a one-byte directory against
/// `store`: what an invocation costs before it sees any data — open,
/// recover, import state, persist. (An empty directory is refused.)
fn cli_fixed_ms(env: &Env, store: &Path) -> Result<f64> {
    let dir = env.work.unused("one-byte");
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join("f0"), b"x")?;
    let mut walls = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let status = env
            .mhd_command(&["backup", &dir.to_string_lossy(), "--store", &store.to_string_lossy()])?
            .status()?;
        if !status.success() {
            return Err(format!("mhd backup of a one-byte directory: {status}").into());
        }
        walls.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&walls))
}

/// A `--trace 1` run: untraced passes for half of `seconds` as the
/// reference, traced passes for the other half, then the layer probes.
/// Writes `trace-<workload>.jsonl` and prints the self-time table.
pub fn per_layer(
    env: &Env,
    workload: Workload,
    spec: CorpusSpec,
    seed: u64,
    seconds: f64,
) -> Result<Outcome> {
    let fixture = set_up(env, workload, spec, seed)?;
    let corpus = &fixture.corpus;
    let streams = corpus.snapshots.len();
    let mut layers = Layers::new();
    layers.insert("workload.generate_s", fixture.generate_s);
    layers.insert("workload.export_s", fixture.export_s);
    layers.insert("workload.input_mib", corpus.total_bytes() as f64 / MIB);
    layers.insert("workload.streams", streams as f64);
    layers.insert("workload.ideal_der", corpus.stats.ideal_der());

    let mut tally = Tally::default();
    warm_up(env, workload, &fixture, &mut tally)?;

    let untraced = passes(MIN_PASSES, seconds / 2.0, &mut tally, || {
        one_pass(env, workload, &fixture, None, false)
    })?;
    let untraced_s = backup_seconds(&untraced);

    let tracer = Arc::new(Tracer::default());
    let tracing = Some(&*tracer);
    // mem-dedup's traced pass is the engine probe below. The session
    // workloads pool traced passes until a p95 over their requests is
    // supported.
    let traced = if workload == Workload::MemDedup {
        Vec::new()
    } else {
        let wanted = P95_SAMPLES.div_ceil(streams).min(MAX_TRACED_PASSES);
        passes(wanted, 0.0, &mut tally, || one_pass(env, workload, &fixture, tracing, false))?
    };
    let client_spans = tracer.spans_since(0);
    for sample in untraced.iter().chain(&traced) {
        tally.absorb(sample.tally);
    }

    // Write-side probe: the engine in-process over a timed backend of the
    // kind the workload's store uses.
    let probe = if workload == Workload::MemDedup {
        layers::engine_probe(MemBackend::new(), corpus, &tracer, &mut tally, &mut layers)?
    } else {
        quiesce();
        let backend = BatchedDirBackend::create(env.work.unused("probe-store"))?;
        layers::engine_probe(backend, corpus, &tracer, &mut tally, &mut layers)?
    };
    let threads = layers::hash_threads();
    layers::replay_front_end(corpus, &tracer, probe.report.stats.hook_output, &mut layers);
    let front = layers["chunking.scan_s"] + layers["hash.sha1_s"] / threads;
    // What is left of the engine's time once the store and the front end
    // are taken out: a residual, not a measurement.
    layers.insert("core.self_s", probe.core_s - probe.store_s - front);

    // The pass the table below explains, and what each layer gets of it.
    let traced_s =
        if workload == Workload::MemDedup { probe.wall_s } else { backup_seconds(&traced) };
    let mut table: Vec<(&str, f64)> = vec![
        ("chunking", layers["chunking.scan_s"]),
        ("hash", layers["hash.sha1_s"] / threads),
        ("store", probe.store_s),
        ("core", layers["core.self_s"]),
    ];
    let last = traced.last();
    match workload {
        Workload::MemDedup => {}
        Workload::CliBackup => {
            let last = last.expect("at least one traced pass");
            table.push(cli_layers(env, last, &client_spans, streams, &mut layers)?);
        }
        Workload::DaemonSerial | Workload::DaemonConcurrent => {
            let passes = Passes { untraced: &untraced, traced: &traced, untraced_s, traced_s };
            let row = daemon_layers(
                env,
                workload,
                corpus,
                passes,
                &client_spans,
                &mut tally,
                &mut layers,
            )?;
            table.push(row);
        }
    }
    let attributed: f64 = table.iter().map(|(_, s)| s).sum();
    table.push(("unattributed", traced_s - attributed));
    layers.insert("unattributed_s", traced_s - attributed);
    layers.insert("trace.overhead_share", (traced_s - untraced_s) / untraced_s);

    eprintln!(
        "{}: traced pass {traced_s:.3} s (untraced median {untraced_s:.3} s)",
        workload.name()
    );
    for (layer, seconds) in &table {
        eprintln!("  {layer:<13}{seconds:>9.3} s {:>6.1} %", seconds / traced_s * 100.0);
    }
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.jsonl", workload.name()));
    write_jsonl(&path, &tracer.spans_since(0))?;
    eprintln!("spans written to {}", path.display());

    let metrics = layers.into_iter().map(|(name, v)| (name.to_string(), typical(&[v]))).collect();
    Ok(Outcome { metrics, tally })
}

/// `cli.*` metrics of the traced passes, and the cli layer's row of the
/// self-time table: the fixed cost of an invocation times the invocations —
/// an upper estimate, the fixed cost being measured at the final store size.
fn cli_layers(
    env: &Env,
    last: &Sample,
    client_spans: &[Span],
    streams: usize,
    layers: &mut Layers,
) -> Result<(&'static str, f64)> {
    layers::cli_invoke_metrics(client_spans, layers);
    // Subprocess CPU of one traced pass's `mhd backup` children.
    layers.insert("cli.cpu_user_s", last.cpu_user_s);
    layers.insert("cli.cpu_sys_s", last.cpu_sys_s);
    layers.insert("store.files", last.space.inodes as f64);
    let fixed_ms = cli_fixed_ms(env, &last.store)?;
    layers.insert("cli.fixed_ms", fixed_ms);
    Ok(("cli", fixed_ms / 1e3 * streams as f64))
}

/// The passes of a traced run and the medians of their phase.
#[derive(Clone, Copy)]
struct Passes<'a> {
    untraced: &'a [Sample],
    traced: &'a [Sample],
    untraced_s: f64,
    traced_s: f64,
}

/// `daemon.*` metrics, and the daemon layer's row of the self-time table:
/// the time clients spent in `BEGIN` and `FILE` (protocol, staging, and on
/// `daemon-concurrent` the wait for the engine lock).
fn daemon_layers(
    env: &Env,
    workload: Workload,
    corpus: &Corpus,
    passes: Passes,
    client_spans: &[Span],
    tally: &mut Tally,
    layers: &mut Layers,
) -> Result<(&'static str, f64)> {
    let clients = if workload == Workload::DaemonSerial { 1 } else { concurrent_clients() };
    layers::daemon_client_metrics(client_spans, passes.traced.len(), corpus, layers);
    let last = passes.traced.last().expect("at least one traced pass");
    let side = last.daemon.expect("daemon workloads record the daemon's side");
    layers.insert("daemon.index_entries", side.index_entries as f64);
    layers.insert("daemon.cpu_user_s", side.usage.cpu_user_s);
    layers.insert("daemon.cpu_sys_s", side.usage.cpu_sys_s);
    layers.insert("daemon.open_populated_s", side.reopen_s);
    layers.insert("store.files", last.space.inodes as f64);

    // The same sessions without the socket.
    quiesce();
    let shared = SharedStore::open(&env.work.unused("shared-store"), DaemonConfig::default())?;
    let backup_s = layers::shared_backup(&shared, corpus, clients)?;
    let restore_s = layers::shared_restore(&shared, &newest_first(corpus), clients, tally);
    layers.insert("daemon.socket_overhead_s", passes.traced_s - backup_s);
    layers.insert(
        "daemon.restore_socket_overhead_s",
        last.restore_s / RESTORE_ROUNDS as f64 - restore_s,
    );
    if workload == Workload::DaemonConcurrent {
        let serial = check_against_serial(env, corpus, passes.untraced, tally)?;
        layers.insert("daemon.concurrent_speedup", serial.backup_s / passes.untraced_s);
    }
    // Client-side seconds add up over connections; the wall clock saw them
    // side by side.
    let protocol_s = layers["daemon.begin_s"] + layers["daemon.send_s"];
    Ok(("daemon", protocol_s / clients as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_the_corpus_bytes_and_nothing_else() {
        let spec = corpus_spec(6 << 20, false);
        assert_eq!((spec.machines, spec.snapshots), (MACHINES, DAYS));
        assert_eq!(spec.expected_total_bytes(), 6 << 20);

        let (a, b) = (generate_corpus(spec, 1), generate_corpus(spec, 2));
        assert_eq!(a.stats, b.stats);
        // One substitution carries corpus 1 onto corpus 2, byte for byte:
        // same streams, same files, same sizes, every duplicate still one.
        let (ta, tb) = (substitution(1), substitution(2));
        let mut a_to_b = [0u8; 256];
        for i in 0..256 {
            a_to_b[ta[i] as usize] = tb[i];
        }
        assert_ne!(ta, tb);
        for (sa, sb) in a.snapshots.iter().zip(&b.snapshots) {
            assert_eq!((sa.machine, sa.day, sa.files.len()), (sb.machine, sb.day, sb.files.len()));
            for (fa, fb) in sa.files.iter().zip(&sb.files) {
                assert_eq!(fa.path, fb.path);
                assert_ne!(fa.data, fb.data);
                let mapped: Vec<u8> = fa.data.iter().map(|&x| a_to_b[x as usize]).collect();
                assert_eq!(mapped, fb.data[..]);
            }
        }
        // The same seed gives the same inputs.
        assert_eq!(generate_corpus(spec, 1).snapshots, a.snapshots);
    }

    #[test]
    fn substitution_is_a_permutation() {
        for seed in [0, 1, 42, u64::MAX] {
            let mut seen = [false; 256];
            for b in substitution(seed) {
                assert!(!std::mem::replace(&mut seen[b as usize], true), "seed {seed} repeats {b}");
            }
        }
    }

    #[test]
    fn smoke_corpus_is_tiny() {
        assert_eq!(corpus_spec(DEFAULT_BYTES, true), CorpusSpec::tiny(STRUCTURE_SEED));
    }
}
