#!/usr/bin/env bash
# The full local CI gate. Run before every push; everything must pass.
#
#   ./ci.sh          # tier-1 + feature matrix + style + lints + docs
#   ./ci.sh tier1    # just the tier-1 gate (build + tests)
#
# Stages:
#   1. tier-1: release build + full test suite (ROADMAP.md)
#   2. crash safety — the fault matrix, a --durability fsync smoke backup
#      (which must have hashed on the SHA extensions if the CPU has them,
#      and whose deep scrub must pass, and fail naming the damaged entry
#      once a byte of a copy is flipped), and a store torn between flush
#      and persist recovered by `mhd` and by `mhd serve`
#   3. feature matrix — the obs-disabled workspace still builds, and the
#      store/core crash-safety tests pass with obs compiled out
#   4. determinism — two same-seed `table1`/`table2`/`chunker_bench`
#      runs write byte-identical JSON (so the gap yardstick stays
#      count-only), a traced smoke backup exports a non-empty
#      Chrome trace (`mhd trace`, the file Perfetto opens), and `mhd trace`
#      refuses a sub-verb such as the removed `analyze`
#   5. daemon    — `mhd serve` end-to-end: three concurrent client
#      sessions over the Unix socket, per-tenant restore + byte compare
#      (one file larger than the socket buffer each), a restore of a
#      missing name that fails while the daemon still answers, fsck,
#      clean shutdown
#   6. benchmark — the repo benchmark still builds against this tree and
#      runs end to end: `benchmark/run.sh --smoke` (every workload once on
#      the tiny corpus, traced, outputs checked) and the harness's own
#      tests; then fails if git sees an uncommitted change under
#      `benchmark/` or to `BENCHMARK.json`. No stage gates on a wall
#      clock: speed is judged by `benchmark/run.sh --compare`
#      (benchmark/README.md), not by CI
#   7. lint      — the crate manifests: every member outside shims/
#      inherits the workspace lint table, and only a crate with a binary
#      or integration tests forces mhd-obs's `obs` feature. Then mhd-lint's
#      exhaustive model checking of all six protocols (flush, trace-ring,
#      GC-protection/splice-order, two-phase publish, intent-record crash
#      recovery, compaction-vs-GC); any violation or truncated exploration
#      fails it. Then all seven seeded-bug mutants as negative tests of the
#      checker itself. (The code-level rules are clippy's, stage 9, and
#      the tests', stage 1: DESIGN.md §9.)
#   8. rustfmt   — style, enforced via rustfmt.toml
#   9. clippy    — all targets, warnings are errors. This is what keeps
#      the durability paths panic-free (unwrap_used/expect_used/panic
#      denied there, clippy.toml), and what turns the workspace lint
#      table's missing_docs and unsafe_code into failures
#  10. rustdoc   — every public item documented, no broken links
#  11. owned      — the root Cargo.lock names no `rand`, `rayon`,
#      `crossbeam` or `parking_lot` package (std and crates/workload's own
#      PRNG replaced those facades), and every `results/fig*.json` /
#      `results/table*.json` exhibit reports the `input_bytes` that
#      `results/fig7.json` does: one corpus for every exhibit
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "tier-1: cargo build --release"
cargo build --release

step "tier-1: cargo test -q"
cargo test -q

if [[ "${1:-}" == "tier1" ]]; then
    echo "tier-1 gate passed."
    exit 0
fi

step "crash safety: fault-injection matrix"
cargo test -q -p mhd-integration --test fault_injection

step "crash safety: mhd backup --durability fsync smoke run + fsck"
SMOKE=$(mktemp -d)
# The benchmark stage parks benchmark/Cargo.lock in $SMOKE; however the
# script ends, the lock goes back before $SMOKE goes away.
cleanup() {
    if [[ -f "$SMOKE/benchmark.lock" ]]; then
        cp "$SMOKE/benchmark.lock" benchmark/Cargo.lock
    fi
    rm -rf "$SMOKE"
}
trap cleanup EXIT
mkdir -p "$SMOKE/src"
head -c 262144 /dev/urandom > "$SMOKE/src/disk.img"
./target/release/mhd backup "$SMOKE/src" --store "$SMOKE/store" \
    --durability fsync --io-threads 2 --chunker fastcdc --label smoke
./target/release/mhd fsck --store "$SMOKE/store" --deep
./target/release/mhd restore smoke-0/disk.img --store "$SMOKE/store" -o "$SMOKE/restored.img"
cmp "$SMOKE/src/disk.img" "$SMOKE/restored.img"
# The deep scrub re-hashes every manifest entry's bytes: one flipped byte
# in a copy of the store must fail it, naming the container and the
# damaged entry's offset+size.
cp -r "$SMOKE/store" "$SMOKE/rot-store"
ROT=$(basename "$(find "$SMOKE/rot-store/chunks" -type f | sort | head -n 1)")
BYTE=$(od -An -tu1 -j 1000 -N 1 "$SMOKE/rot-store/chunks/$ROT" | tr -d ' ')
# shellcheck disable=SC2059 # the octal escape is the byte written
printf "\\$(printf '%03o' $((255 - BYTE)))" |
    dd of="$SMOKE/rot-store/chunks/$ROT" bs=1 seek=1000 conv=notrunc status=none
if ./target/release/mhd fsck --store "$SMOKE/rot-store" --deep 2> "$SMOKE/rot.txt"; then
    echo "error: mhd fsck --deep passed a store with a flipped byte" >&2
    exit 1
fi
grep -qE "chunk $ROT: manifest [0-9a-f]+ entry [0-9]+ \([0-9]+\+[0-9]+\): content hash mismatch" \
    "$SMOKE/rot.txt" || {
    echo "error: mhd fsck --deep did not name the damaged container and entry:" >&2
    cat "$SMOKE/rot.txt" >&2
    exit 1
}
# mhd picks its SHA-1 kernel from the CPU at run time. Where the CPU has
# the SHA extensions, a green run must not be one that silently fell back
# to the scalar rounds; elsewhere, say which kernel the run tested.
KERNEL=$(./target/release/mhd stats --store "$SMOKE/store" | sed -n 's/^sha-1 kernel: *//p')
echo "sha-1 kernel: $KERNEL"
if grep -qw sha_ni /proc/cpuinfo 2> /dev/null && [[ "$KERNEL" != "sha-ni" ]]; then
    echo "error: /proc/cpuinfo lists sha_ni but mhd hashes with '$KERNEL'" >&2
    exit 1
fi

step "crash safety: a store torn before persist is recovered by mhd and by mhd serve"
# A kill between the engine's flush and the state.json rename leaves the
# objects of the stream on disk and the previous session/ files in place:
# back up a, set session/ aside, back up b, put session/ back. Every
# stream is fresh random data, so the torn stream is found by the id
# floors alone — this script knows nothing of the wip record format.
for s in a b c; do
    mkdir -p "$SMOKE/torn-src/$s"
    head -c 200000 /dev/urandom > "$SMOKE/torn-src/$s/$s.img"
done
torn_store() {
    ./target/release/mhd backup "$SMOKE/torn-src/a" --store "$1" --label s > /dev/null
    cp -r "$1/session" "$1.session"
    ./target/release/mhd backup "$SMOKE/torn-src/b" --store "$1" --label s > /dev/null
    rm -rf "$1/session"
    mv "$1.session" "$1/session"
}
# What must hold once something has opened the torn store for writes.
recovered_store() {
    ./target/release/mhd fsck --store "$1" --deep > /dev/null
    ./target/release/mhd restore s-0/a.img --store "$1" -o "$SMOKE/torn-restored.img" > /dev/null
    cmp "$SMOKE/torn-src/a/a.img" "$SMOKE/torn-restored.img"
    if ./target/release/mhd ls --store "$1" | grep -q 's-1_b.img'; then
        echo "error: the torn stream is still listed in $1" >&2
        exit 1
    fi
}
torn_store "$SMOKE/torn-cli"
./target/release/mhd fsck --store "$SMOKE/torn-cli" | tee "$SMOKE/torn-fsck.txt"
grep -q 'rolled back' "$SMOKE/torn-fsck.txt" || {
    echo "error: mhd fsck did not report the rollback" >&2
    exit 1
}
./target/release/mhd backup "$SMOKE/torn-src/c" --store "$SMOKE/torn-cli" --label s
recovered_store "$SMOKE/torn-cli"

torn_store "$SMOKE/torn-serve"
./target/release/mhd serve --store "$SMOKE/torn-serve" --socket "$SMOKE/torn.sock" &
TORN_PID=$!
for _ in $(seq 1 50); do
    [[ -S "$SMOKE/torn.sock" ]] && break
    sleep 0.1
done
./target/release/mhd client backup "$SMOKE/torn-src/c" \
    --socket "$SMOKE/torn.sock" --tenant t --label day0
./target/release/mhd client fsck --socket "$SMOKE/torn.sock"
./target/release/mhd client shutdown --socket "$SMOKE/torn.sock"
wait "$TORN_PID"
recovered_store "$SMOKE/torn-serve"

step "determinism: same-seed exhibits are byte-identical; a traced backup exports"
# No exhibit here reports a timing field, so two same-seed runs must
# write the same bytes.
for exhibit in table1 table2 chunker_bench; do
    for run in a b; do
        ./target/release/$exhibit --bytes 4M --out "$SMOKE/run_$run" > /dev/null
    done
    cmp "$SMOKE/run_a/$exhibit.json" "$SMOKE/run_b/$exhibit.json"
done
./target/release/mhd backup "$SMOKE/src" --store "$SMOKE/trace-store" --trace > /dev/null
./target/release/mhd trace --store "$SMOKE/trace-store" --format chrome -o "$SMOKE/trace.json"
if [[ ! -s "$SMOKE/trace.json" ]]; then
    echo "error: mhd trace wrote an empty Chrome trace" >&2
    exit 1
fi
# The `analyze` sub-verb went with the analyzer; `mhd trace` refuses it.
if ./target/release/mhd trace "analyze" "$SMOKE/trace.jsonl" 2> /dev/null; then
    echo "error: mhd trace must refuse a stray argument" >&2
    exit 1
fi

step "feature matrix: cargo build --workspace --no-default-features"
cargo build --workspace --no-default-features

# The integration crate pins obs on; store/core built in isolation compile
# it out, so their torn-write/recovery tests cover the obs-off config.
step "feature matrix: crash-safety tests with obs compiled out"
cargo test -q -p mhd-store -p mhd-core

step "daemon: concurrent client sessions over mhd serve"
mkdir -p "$SMOKE/clients"
# Each tenant also sends a 3 MiB image: a RESTORE reply larger than the
# socket buffer, read from more than one container.
for t in a b c; do
    mkdir -p "$SMOKE/clients/$t"
    head -c 131072 /dev/urandom > "$SMOKE/clients/$t/image.img"
    head -c 3145728 /dev/urandom > "$SMOKE/clients/$t/large.img"
done
./target/release/mhd serve --store "$SMOKE/daemon-store" \
    --socket "$SMOKE/mhd.sock" &
SERVE_PID=$!
for _ in $(seq 1 50); do
    [[ -S "$SMOKE/mhd.sock" ]] && break
    sleep 0.1
done
./target/release/mhd client ping --socket "$SMOKE/mhd.sock"
CLIENT_PIDS=()
for t in a b c; do
    ./target/release/mhd client backup "$SMOKE/clients/$t" \
        --socket "$SMOKE/mhd.sock" --tenant "tenant-$t" --label day0 &
    CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do wait "$pid"; done
mkdir -p "$SMOKE/restored"
for t in a b c; do
    for f in image large; do
        ./target/release/mhd client restore "day0_$f.img" \
            --socket "$SMOKE/mhd.sock" --tenant "tenant-$t" \
            -o "$SMOKE/restored/$t-$f.img"
        cmp "$SMOKE/clients/$t/$f.img" "$SMOKE/restored/$t-$f.img"
    done
done
# A name the store does not hold is an ERR reply and a failed command; the
# daemon goes on answering.
if ./target/release/mhd client restore day0_missing.img \
    --socket "$SMOKE/mhd.sock" --tenant tenant-a -o "$SMOKE/restored/missing.img" 2> /dev/null; then
    echo "error: mhd client restore of a missing name succeeded" >&2
    exit 1
fi
./target/release/mhd client ping --socket "$SMOKE/mhd.sock"
./target/release/mhd client fsck --socket "$SMOKE/mhd.sock"
./target/release/mhd client shutdown --socket "$SMOKE/mhd.sock"
wait "$SERVE_PID"
./target/release/mhd fsck --store "$SMOKE/daemon-store" --deep

step "benchmark: smoke run of every workload + harness tests"
# benchmark/ is a package of its own (own lock file, own target dir) that
# path-depends on crates/*; a change here that renames what it calls
# breaks it without the root workspace noticing. Cargo rewrites the
# harness's lock when a crate's dependency list moved; the lock belongs
# to benchmark-only changes, so `cleanup` puts it back, pass or fail.
cp benchmark/Cargo.lock "$SMOKE/benchmark.lock"
bash benchmark/run.sh --smoke > /dev/null
(cd benchmark && cargo test --offline -q)
# A change that claims a gain is measured by the parent's benchmark, so it
# may not carry an edit under the benchmark's own paths. With the lock
# back, anything git still sees there was put there by hand (or by an
# earlier `run.sh`: `git checkout benchmark/Cargo.lock`); a benchmark-only
# change is committed before this gate is run.
cp "$SMOKE/benchmark.lock" benchmark/Cargo.lock
if git rev-parse --git-dir > /dev/null 2>&1; then
    dirty=$(git status --porcelain benchmark/ BENCHMARK.json)
    if [[ -n "$dirty" ]]; then
        echo "error: uncommitted changes under the benchmark's paths:" >&2
        echo "$dirty" >&2
        exit 1
    fi
fi

step "lint: crate manifests + mhd-lint model checking"
# Every member manifest (a manifest with a [workspace] table roots a
# workspace of its own) inherits the root's [workspace.lints] table, which
# is what makes rustc warn on missing docs and deny `unsafe` in it. And
# only a crate with a binary or integration tests may force mhd-obs's
# `obs` feature: a library forcing it would switch every build that links
# it into the instrumented configuration.
while IFS= read -r manifest; do
    grep -qx '\[workspace\]' "$manifest" && continue
    if ! awk '/^\[/ { table = $0 } table == "[lints]" && /^workspace *= *true/ { ok = 1 }
              END { exit !ok }' "$manifest"; then
        echo "error: $manifest lacks \`[lints] workspace = true\`" >&2
        exit 1
    fi
    dir=$(dirname "$manifest")
    if grep -qE '^mhd-obs .*features *= *\[[^]]*"obs"' "$manifest" &&
        ! grep -qx '\[\[bin\]\]' "$manifest" &&
        [[ ! -f "$dir/src/main.rs" && ! -d "$dir/src/bin" && ! -d "$dir/tests" ]]; then
        echo "error: $manifest is a library and forces mhd-obs's \"obs\" feature" >&2
        exit 1
    fi
done < <(find . -name Cargo.toml -not -path '*/target/*' -not -path './shims/*' | sort)
# Release binary: the publish/intent/compact-gc state spaces are explored
# exhaustively. Any violation fails, and so does a truncated exploration:
# an unexplored model proves nothing.
./target/release/mhd-lint
# The checker must still catch the seeded historical bugs — a checker
# that stops finding them is itself broken.
./target/release/mhd-lint --mutant flush-order > /dev/null
./target/release/mhd-lint --mutant ring-prune > /dev/null
./target/release/mhd-lint --mutant gc-protect > /dev/null
./target/release/mhd-lint --mutant splice-order > /dev/null
./target/release/mhd-lint --mutant publish-epoch > /dev/null
./target/release/mhd-lint --mutant intent-retire > /dev/null
./target/release/mhd-lint --mutant compact-sweep > /dev/null

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

step "owned: no facade for what std replaces, one corpus for every exhibit"
if grep -nE '^name = "(rand|rayon|crossbeam|parking_lot)"$' Cargo.lock; then
    echo "error: Cargo.lock names a facade this repo deleted (shims/README.md)" >&2
    exit 1
fi
corpus_of() { grep -oE '"input_bytes": *[0-9]+' "$1" | sort -u; }
CORPUS=$(corpus_of results/fig7.json)
if [[ $(wc -l <<< "$CORPUS") -ne 1 ]]; then
    echo "error: results/fig7.json does not report exactly one input_bytes" >&2
    exit 1
fi
for exhibit in results/fig*.json results/table*.json; do
    # obs side-channel files describe a run, not a corpus.
    [[ "$exhibit" == *_internals.json ]] && continue
    if [[ "$(corpus_of "$exhibit")" != "$CORPUS" ]]; then
        echo "error: $exhibit is not from results/fig7.json's corpus ($CORPUS):" >&2
        corpus_of "$exhibit" >&2
        exit 1
    fi
done
echo "every paper exhibit reports $CORPUS"

echo
echo "all CI stages passed."
