//! Golden-equivalence suite for engine hot-path refactors.
//!
//! The fixtures under `tests/golden/` are full `ScenarioResult` JSON
//! dumps recorded **before** the typed-dispatch + timer-slot rewrite
//! (PR 5): the three `golden_trio()` presets plus the
//! `mixed-regime-stress` lab spec, whose regime-switching trajectory
//! exercises the `Scheduled` network models, the `RegimeActor`, and every
//! churn generator.
//!
//! Every metric must match bit-for-bit — **including `events_processed`**.
//! Earlier refactors (the PR 3 single-hop delivery path) legitimately
//! changed event counts, so the old suite excluded that one field; typed
//! dispatch and inline timer slots must not change what is scheduled, so
//! since PR 5 a changed count is a changed trajectory and fails here.
//!
//! Regenerate with `cargo run --release -p presence-bench --bin
//! golden_fixtures` — but only in a PR that *intends* a trajectory (or
//! event-count) change, and say so there.

use presence::sim::{
    builtin_catalog, golden_trio, run_spec_once, DelayKind, Scenario, ScenarioResult,
};

fn fixture(name: &str) -> ScenarioResult {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("fixture {path} unreadable ({e}); regenerate with the golden_fixtures bin")
    });
    serde_json::from_str(&text).expect("fixture deserialises")
}

/// Asserts `result` matches the recorded fixture on every field,
/// `events_processed` included. Compared as canonical JSON, not structs:
/// never-active CPs carry NaN metrics (serialised as null), and NaN ≠ NaN
/// would fail a field-level comparison of two bit-identical trajectories.
fn assert_matches_fixture(name: &str, result: &ScenarioResult) {
    let golden = fixture(name);
    assert_eq!(
        result.events_processed, golden.events_processed,
        "{name}: events_processed diverged from the recorded run \
         (dispatch refactors must not change event counts)"
    );
    assert_eq!(
        serde_json::to_string(result).expect("result serialises"),
        serde_json::to_string(&golden).expect("golden serialises"),
        "{name}: trajectory diverged from the recorded pre-refactor run"
    );
}

#[test]
fn typed_dispatch_preserves_golden_trio_trajectories() {
    for (name, cfg) in golden_trio() {
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let result = scenario.collect();
        assert_eq!(
            result.messages_unroutable, 0,
            "{name}: messages went unroutable"
        );
        assert_matches_fixture(name, &result);
    }
}

/// The golden DCPP preset on an exponential delay model. Its minimum
/// delay is zero, unlike every other hub fixture's (ThreeMode 100 µs,
/// Uniform 200 µs), so this is the fixture that fails if the one-plane
/// topology ever picks up the decomposed topology's WAN-leg floor.
#[test]
fn zero_min_delay_hub_replays_without_a_wan_floor() {
    let (_, mut cfg) = golden_trio()[1];
    cfg.delay = DelayKind::Exponential {
        mean: 0.005,
        cap: 0.05,
    };
    let mut scenario = Scenario::build(cfg);
    scenario.run();
    assert_matches_fixture("dcpp-expdelay", &scenario.collect());
}

/// The dispatch rewrite is pinned on a regime-switching lab trajectory,
/// not just the paper trio: mid-run churn-model switches (`SetChurn`),
/// staggered wave events, and `Scheduled` delay/loss boundaries all ride
/// the same engine paths the `ActorSet` refactor rewrote.
#[test]
fn typed_dispatch_preserves_mixed_regime_lab_trajectory() {
    let spec = builtin_catalog()
        .into_iter()
        .find(|s| s.name == "mixed-regime-stress")
        .expect("mixed-regime-stress is in the builtin catalog");
    let result = run_spec_once(&spec).expect("lab fixture spec runs");
    assert_matches_fixture("lab-mixed", &result);
}

/// The events_processed acceptance record for the single-hop refactor,
/// against the counts the **pre-refactor** engine produced for the trio
/// (hard-coded, not read from the fixtures: the fixtures are regenerated
/// whenever a PR intends a trajectory change, while these baselines are a
/// historical fact of the 3-events-per-message engine). A regression that
/// re-adds per-message hops pushes the counts back up and fails here.
#[test]
fn single_hop_fast_path_cuts_events_processed_by_a_quarter() {
    // Recorded at the PR 3 boundary (see CHANGES.md).
    let pre_refactor_events = [("sapp", 14_552u64), ("dcpp", 24_200), ("churn", 47_512)];
    for (name, cfg) in golden_trio() {
        let (_, baseline) = *pre_refactor_events
            .iter()
            .find(|(n, _)| *n == name)
            .expect("trio name has a recorded baseline");
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let events = scenario.collect().events_processed;
        assert!(
            (events as f64) <= 0.75 * baseline as f64,
            "{name}: events_processed {events} did not drop ≥ 25% from the \
             pre-refactor {baseline}"
        );
    }
}

/// The events-per-delivered-message ≤ 2 (+ drop/in-flight share) contract,
/// on the same trio the fixtures pin.
#[test]
fn golden_trio_meets_two_events_per_message_contract() {
    for (name, cfg) in golden_trio() {
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let result = scenario.collect();
        let epm = result
            .events_per_delivered_message()
            .expect("trio delivers messages");
        assert!(
            epm <= 2.05,
            "{name}: events-per-delivered-message {epm} exceeds the 2.05 gate"
        );
    }
}
