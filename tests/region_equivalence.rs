//! Region-equivalence suite: the golden fixtures must replay byte-for-byte
//! on every topology and engine that claims them.
//!
//! The trio and lab scenarios run on the one-plane hub, where every
//! participant reaches the one `NetworkActor` over a same-instant send:
//! the hub cannot be cut into regions, so it runs on the sequential
//! engine and must match its fixtures exactly.
//!
//! The decomposed (multi-plane) topology does partition. Its fixtures are
//! recorded on the sequential engine, and the windowed engine must replay
//! them at every region count, 1 included.

use presence::sim::{
    builtin_catalog, golden_trio, run_spec_once, DecomposedScenario, Scenario, ScenarioResult,
};

fn fixture(name: &str) -> ScenarioResult {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("fixture {path} unreadable ({e}); regenerate with the golden_fixtures bin")
    });
    serde_json::from_str(&text).expect("fixture deserialises")
}

fn assert_matches_fixture(name: &str, engine: &str, result: &ScenarioResult) {
    let golden = fixture(name);
    assert_eq!(
        serde_json::to_string(result).expect("result serialises"),
        serde_json::to_string(&golden).expect("golden serialises"),
        "{name}: trajectory diverged from the recorded run on {engine}"
    );
}

/// The hub is the one-region case: a single plane on the sequential
/// engine, relaying nothing.
#[test]
fn golden_trio_replays_identically_at_every_region_count() {
    for (name, cfg) in golden_trio() {
        let mut scenario = Scenario::build(cfg);
        assert_eq!(scenario.plane_actors().len(), 1, "{name}: hub is one plane");
        scenario.run();
        assert_eq!(scenario.relays_forwarded(), 0, "{name}: hub relays nothing");
        assert_matches_fixture(name, "the hub", &scenario.collect());
    }
}

/// The decomposed (multi-plane) topology genuinely partitions — and its
/// fixtures, recorded on the sequential engine, must replay byte-for-byte
/// on the windowed engine at every region count, with workers matched to
/// regions. Any divergence is a barrier-ordering or lookahead bug, not a
/// fixture drift.
#[test]
fn decomposed_trio_replays_identically_at_every_region_count() {
    for regions in [1usize, 2, 4] {
        for (name, cfg) in golden_trio() {
            let mut scenario = DecomposedScenario::build(cfg, regions);
            let plan = scenario.region_plan();
            assert_eq!(plan.requested, regions, "{name}");
            assert_eq!(
                plan.effective, regions,
                "{name}: decomposed scenario collapsed ({})",
                plan.reason
            );
            scenario.set_workers(regions);
            scenario.run();
            let result = scenario.collect();
            assert_matches_fixture(
                &format!("decomposed-{name}"),
                &format!("{regions} region(s)"),
                &result,
            );
        }
    }
}

/// Same pin for the regime-switching lab spec on the decomposed
/// topology: per-plane `Scheduled` model instances must stay in lockstep
/// with the recorded single-instance run.
#[test]
fn decomposed_lab_replays_identically_at_every_region_count() {
    let spec = builtin_catalog()
        .into_iter()
        .find(|s| s.name == "mixed-regime-stress")
        .expect("mixed-regime-stress is in the builtin catalog");
    for regions in [1usize, 2, 4] {
        let mut scenario = spec.build_decomposed(regions).expect("spec builds");
        scenario.set_workers(regions);
        scenario.run();
        let result = scenario.collect();
        assert_matches_fixture(
            "decomposed-lab-mixed",
            &format!("{regions} region(s)"),
            &result,
        );
    }
}

/// The lab spec's hub run, likewise the one-region case.
#[test]
fn mixed_regime_lab_replays_identically_at_every_region_count() {
    let spec = builtin_catalog()
        .into_iter()
        .find(|s| s.name == "mixed-regime-stress")
        .expect("mixed-regime-stress is in the builtin catalog");
    let result = run_spec_once(&spec).expect("lab fixture spec runs");
    assert_matches_fixture("lab-mixed", "the hub", &result);
}
