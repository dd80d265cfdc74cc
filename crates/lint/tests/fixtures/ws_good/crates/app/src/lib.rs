//! Fixture: observability labels drawn from the registered vocabularies.

#![forbid(unsafe_code)]

/// Emits correctly-labelled scopes and stages.
pub fn run(idx: usize) {
    let _scope = obs::scope!("shard={idx}");
    let _stage = obs::stage("frontend.job");
    let _stage2 = obs::stage(format!("engine={}", idx));
}
