//! The three simulator workloads: `sim-paper` (hub scenarios with full
//! recorders), `sim-mega` (the calendar-queue mega scenario) and
//! `sim-regions` (the decomposed topology at one and two regions).

use crate::alloc;
use crate::report::{median, Outcome, Samples};
use crate::sys;
use crate::Args;
use presence_core::{
    CpAction, CpId, DcppConfig, DcppCp, DcppDevice, DeviceId, Probe, Prober, Reply, SappConfig,
    SappCp, SappDevice, SappDeviceConfig,
};
use presence_des::{
    derive_seed, EngineEvent, EngineEventKind, EventQueue, QueueProfile, SimDuration, SimTime,
    StreamRng,
};
use presence_net::{
    BernoulliLoss, ConstantDelay, DelayModel, ExponentialDelay, GilbertElliott, LossModel, NoLoss,
    Scheduled, ThreeMode, UniformDelay,
};
use presence_sim::{
    builtin_catalog, golden_trio, mega_catalog, DelayKind, LossKind, MegaConfig, MegaResult,
    MegaScenario, RecorderMode, Scenario, ScenarioResult, ScenarioSpec,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Events per delivered message may exceed the single-hop 2.0 by the
/// still-in-flight messages only, once the one event each message dropped
/// by the loss or overflow model costs is set aside.
const EPM_LIMIT: f64 = 2.05;

/// The catalog entries `sim-paper` runs: the golden-trio presets and the
/// phased lossy scenarios.
const PAPER_SPECS: [&str; 6] = [
    "paper-sapp",
    "paper-dcpp",
    "paper-churn",
    "mixed-regime-stress",
    "bursty-loss-storm",
    "crash-under-loss",
];

/// Round `round`'s scenario specs: `names` (all when `None`) from the
/// builtin catalog, each under its own seed generated from the workload
/// seed.
fn round_specs(names: Option<&[&str]>, seed: u64, round: u64) -> Vec<ScenarioSpec> {
    builtin_catalog()
        .into_iter()
        .filter(|s| names.is_none_or(|n| n.contains(&s.name.as_str())))
        .enumerate()
        .map(|(i, mut spec)| {
            spec.seed = derive_seed(seed, round * 64 + i as u64);
            spec
        })
        .collect()
}

fn result_json(result: &ScenarioResult) -> String {
    serde_json::to_string(result).expect("result serialises")
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The golden seeds must replay byte-equal to the recorded fixtures
/// (compared as canonical JSON, since never-active CPs carry NaN).
fn check_golden(out: &mut Outcome) {
    for (name, cfg) in golden_trio() {
        let path = format!("tests/golden/{name}.json");
        let golden = std::fs::read_to_string(&path)
            .map_err(|e| format!("{path} unreadable: {e}"))
            .and_then(|text| {
                serde_json::from_str::<ScenarioResult>(&text)
                    .map_err(|e| format!("{path} unparseable: {e}"))
            });
        let mut scenario = Scenario::build(cfg);
        scenario.run();
        let result = scenario.collect();
        match golden {
            Ok(golden) => {
                let equal = result_json(&result) == result_json(&golden);
                out.check(
                    format!("golden {name}"),
                    equal,
                    format!("seed {} replays byte-equal to {path}", cfg.seed),
                );
            }
            Err(e) => out.check(format!("golden {name}"), false, e),
        }
    }
}

/// Events per delivered message, not counting the offer event of each
/// message the loss or overflow model dropped. On a lossless run this is
/// `ScenarioResult::events_per_delivered_message`; on a lossy one it keeps
/// the single-hop check from failing on the loss rate alone.
fn events_per_kept_message(r: &ScenarioResult) -> f64 {
    let dropped = r.messages_dropped_loss + r.messages_dropped_overflow;
    (r.messages_offered.saturating_sub(dropped) + r.messages_delivered) as f64
        / r.messages_delivered as f64
}

/// Per-run checks of a hub scenario; returns whether the run passed.
fn run_passes(result: &ScenarioResult) -> bool {
    result.messages_unroutable == 0
        && result.messages_delivered > 0
        && events_per_kept_message(result) <= EPM_LIMIT
}

/// What one pass over scenario runs accumulated.
#[derive(Default)]
struct Totals {
    events: u64,
    messages: u64,
    run_s: f64,
    collect_s: f64,
    cpu_s: f64,
    runs: u64,
    failed: u64,
    allocs: u64,
    offered: u64,
    sapp_events: u64,
}

impl Totals {
    fn add(&mut self, result: &ScenarioResult, run_s: f64, collect_s: f64, sapp: bool) {
        self.events += result.events_processed;
        self.messages += result.messages_delivered;
        self.offered += result.messages_offered;
        self.run_s += run_s;
        self.collect_s += collect_s;
        self.runs += 1;
        if sapp {
            self.sapp_events += result.events_processed;
        }
        if !run_passes(result) {
            self.failed += 1;
        }
    }

    fn span(&self) -> f64 {
        self.run_s + self.collect_s
    }
}

fn is_sapp(spec: &ScenarioSpec) -> bool {
    matches!(spec.protocol, presence_sim::Protocol::Sapp { .. })
}

fn build_hub(spec: &ScenarioSpec) -> Scenario {
    spec.build().expect("catalog spec builds")
}

/// Runs and collects one built hub scenario untraced, adding its run and
/// collect spans, CPU time and the allocations made during `run` to
/// `totals`.
fn run_hub(spec: &ScenarioSpec, mut scenario: Scenario, totals: &mut Totals) -> ScenarioResult {
    let allocs = alloc::allocs();
    let cpu = sys::cpu_seconds();
    let t = Instant::now();
    scenario.run();
    let run_s = seconds_since(t);
    totals.allocs += alloc::allocs() - allocs;
    let t = Instant::now();
    let result = scenario.collect();
    let collect_s = seconds_since(t);
    totals.cpu_s += sys::cpu_seconds() - cpu;
    totals.add(&result, run_s, collect_s, is_sapp(spec));
    result
}

/// `sim-paper`: the paper presets and the phased lossy catalog entries on
/// the hub `Scenario` with full recorders, round after round, each round
/// under freshly generated seeds.
pub fn paper(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    check_golden(&mut out);
    if args.trace {
        paper_traced(args, &mut out);
        return out;
    }
    let start = Instant::now();
    let mut samples = Samples::default();
    let (mut runs, mut failed) = (0, 0);
    let mut round = 0;
    while seconds_since(start) < args.seconds {
        // Set-up: building the round's scenarios.
        let specs = round_specs(Some(&PAPER_SPECS), args.seed, round);
        let built: Vec<Scenario> = samples.setup(|| specs.iter().map(build_hub).collect());
        for (class, (spec, scenario)) in specs.iter().zip(built).enumerate() {
            let mut one = Totals::default();
            run_hub(spec, scenario, &mut one);
            samples.push(class, one.events, one.messages, one.span(), one.cpu_s);
            runs += 1;
            failed += one.failed;
        }
        round += 1;
    }
    out.attempted = runs;
    out.failed = failed;
    out.check(
        "scenario runs",
        failed == 0,
        format!(
            "{failed} of {runs} runs had unroutable messages or more than {EPM_LIMIT} events per kept message"
        ),
    );
    samples.report(&mut out);
    out.metric("peak_rss_mb", sys::peak_rss_mb(), 1);
    out
}

/// Calls into `presence-net` counted by the benchmark's model wrappers.
#[derive(Debug, Default)]
struct NetCounters {
    delays: AtomicU64,
    losses: AtomicU64,
}

#[derive(Debug)]
struct CountedDelay {
    inner: Box<dyn DelayModel>,
    counters: Arc<NetCounters>,
}

impl DelayModel for CountedDelay {
    fn sample(&mut self, now: SimTime, rng: &mut StreamRng) -> SimDuration {
        self.counters.delays.fetch_add(1, Ordering::Relaxed);
        self.inner.sample(now, rng)
    }
    fn max_delay(&self) -> Option<SimDuration> {
        self.inner.max_delay()
    }
    fn min_delay(&self) -> SimDuration {
        self.inner.min_delay()
    }
}

#[derive(Debug)]
struct CountedLoss {
    inner: Box<dyn LossModel>,
    counters: Arc<NetCounters>,
}

impl LossModel for CountedLoss {
    fn should_drop(&mut self, now: SimTime, rng: &mut StreamRng) -> bool {
        self.counters.losses.fetch_add(1, Ordering::Relaxed);
        self.inner.should_drop(now, rng)
    }
}

/// Network-layer samples of a traced pass and what they cost when the
/// same number of calls is replayed into fresh models of the same spec.
#[derive(Default)]
struct NetTally {
    samples: u64,
    replay_ns: f64,
}

impl NetTally {
    /// Adds `spec`'s counted calls, replayed with `now` advancing evenly
    /// over the spec's duration.
    fn add(&mut self, spec: &ScenarioSpec, counters: &NetCounters) {
        let delays = counters.delays.load(Ordering::Relaxed);
        let losses = counters.losses.load(Ordering::Relaxed);
        let (mut delay, mut loss) = (delay_model(spec), loss_model(spec));
        let mut rng = StreamRng::new(spec.seed, 0);
        let end = SimTime::from_secs_f64(spec.duration).as_nanos();
        let at = |i: u64, n: u64| SimTime::from_nanos(end / n.max(1) * i);
        let t = Instant::now();
        for i in 0..delays {
            black_box(delay.sample(at(i, delays), &mut rng));
        }
        for i in 0..losses {
            black_box(loss.should_drop(at(i, losses), &mut rng));
        }
        self.replay_ns += t.elapsed().as_nanos() as f64;
        self.samples += delays + losses;
    }

    fn insert(&self, layers: &mut Layers) {
        layers.insert("net.samples", (self.samples as f64, 1));
        layers.insert("net.sample_ns", (self.sample_ns(), self.samples));
    }

    fn sample_ns(&self) -> f64 {
        self.replay_ns / self.samples.max(1) as f64
    }
}

/// One delay model of `kind`, as the simulator builds it.
fn delay_of(kind: DelayKind) -> Box<dyn DelayModel> {
    let secs = SimDuration::from_secs_f64;
    match kind {
        DelayKind::Constant(s) => Box::new(ConstantDelay(secs(s))),
        DelayKind::Uniform(lo, hi) => Box::new(UniformDelay::new(secs(lo), secs(hi))),
        DelayKind::ThreeModePaper => Box::new(ThreeMode::paper_default()),
        DelayKind::Exponential { mean, cap } => Box::new(ExponentialDelay::new(mean, secs(cap))),
    }
}

/// One loss model of `kind`, as the simulator builds it.
fn loss_of(kind: LossKind) -> Box<dyn LossModel> {
    match kind {
        LossKind::None => Box::new(NoLoss),
        LossKind::Bernoulli(p) => Box::new(BernoulliLoss::new(p)),
        LossKind::Bursty(r) => Box::new(GilbertElliott::bursty(r)),
    }
}

/// The spec's delay model, as `ScenarioSpec::build` makes it.
fn delay_model(spec: &ScenarioSpec) -> Box<dyn DelayModel> {
    if spec.delay.len() == 1 {
        delay_of(spec.delay[0].delay)
    } else {
        Box::new(Scheduled::from_segments(
            spec.delay
                .iter()
                .map(|p| (SimTime::from_secs_f64(p.start), delay_of(p.delay)))
                .collect(),
        ))
    }
}

/// The spec's loss model, as `ScenarioSpec::build` makes it.
fn loss_model(spec: &ScenarioSpec) -> Box<dyn LossModel> {
    if spec.loss.len() == 1 {
        loss_of(spec.loss[0].loss)
    } else {
        Box::new(Scheduled::from_segments(
            spec.loss
                .iter()
                .map(|p| (SimTime::from_secs_f64(p.start), loss_of(p.loss)))
                .collect(),
        ))
    }
}

fn churn_switches(spec: &ScenarioSpec) -> Vec<(f64, presence_sim::ChurnModel)> {
    spec.churn[1..].iter().map(|p| (p.start, p.churn)).collect()
}

/// Engine-trace counts of one traced run.
#[derive(Default)]
struct EngineCounts {
    dispatches: u64,
    arms: u64,
    cancels: u64,
    fires: u64,
    /// Dispatches and fires at protocol machines (device and CPs).
    machine_calls: u64,
    queue_ns: f64,
    queue_ops: u64,
}

impl EngineCounts {
    fn add_trace(&mut self, trace: &[EngineEvent], is_machine: impl Fn(usize) -> bool) {
        for e in trace {
            match e.kind {
                EngineEventKind::Dispatch => self.dispatches += 1,
                EngineEventKind::TimerArm => self.arms += 1,
                EngineEventKind::TimerCancel => self.cancels += 1,
                EngineEventKind::TimerFire => self.fires += 1,
            }
            if matches!(
                e.kind,
                EngineEventKind::Dispatch | EngineEventKind::TimerFire
            ) && is_machine(e.actor.index())
            {
                self.machine_calls += 1;
            }
        }
    }

    /// Replays `trace` into a standalone queue of `profile` held at the
    /// observed mean depth: every dispatch or fire pops the earliest
    /// event and pushes the next one due, every cancel pushes and
    /// cancels one. Adds the replay's time and op count.
    fn replay(&mut self, trace: &[EngineEvent], depth: usize, profile: QueueProfile) {
        let due: Vec<SimTime> = trace
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EngineEventKind::Dispatch | EngineEventKind::TimerFire
                )
            })
            .map(|e| e.time)
            .collect();
        let mut queue: EventQueue<u32> = EventQueue::with_profile(profile);
        let depth = depth.clamp(1, due.len().max(1));
        let mut next = 0;
        let mut seq = 0u64;
        while next < depth.min(due.len()) {
            queue.push(due[next], seq, 0);
            seq += 1;
            next += 1;
        }
        let mut ops = 0u64;
        let t = Instant::now();
        for e in trace {
            match e.kind {
                EngineEventKind::Dispatch | EngineEventKind::TimerFire => {
                    black_box(queue.pop());
                    ops += 1;
                    if next < due.len() {
                        queue.push(due[next], seq, 0);
                        seq += 1;
                        next += 1;
                        ops += 1;
                    }
                }
                EngineEventKind::TimerCancel => {
                    let at = queue.peek().map_or(e.time, |k| k.time) + SimDuration::from_millis(1);
                    queue.push(at, seq, 0);
                    black_box(queue.cancel(seq));
                    seq += 1;
                    ops += 2;
                }
                EngineEventKind::TimerArm => {}
            }
        }
        self.queue_ns += t.elapsed().as_nanos() as f64;
        self.queue_ops += ops;
    }
}

/// Runs `step_to(t)` over `STEPS` equal slices of `duration`, sampling
/// the queue depth after each; returns the mean depth.
fn stepped_run(duration: f64, mut step_to: impl FnMut(f64) -> usize) -> usize {
    const STEPS: usize = 100;
    let mut depth = 0;
    for i in 1..=STEPS {
        depth += step_to(duration * i as f64 / STEPS as f64);
    }
    depth / STEPS
}

/// Mean ns per public machine call in a zero-delay CP ↔ device loop:
/// probe, reply, timer, in the workload's SAPP/DCPP mix.
fn core_step_ns(sapp_share: f64) -> f64 {
    fn drive<P: Prober>(
        mut cp: P,
        mut on_probe: impl FnMut(SimTime, Probe) -> Reply,
        calls: u64,
    ) -> f64 {
        let mut now = SimTime::ZERO;
        let mut actions = Vec::new();
        let mut pending = Vec::new();
        let mut made = 0;
        let t = Instant::now();
        cp.start(now, &mut actions);
        while made < calls {
            pending.append(&mut actions);
            if pending.is_empty() {
                break;
            }
            for action in pending.drain(..) {
                match action {
                    CpAction::SendProbe(probe) => {
                        let reply = on_probe(now, probe);
                        cp.on_reply(now, &reply, &mut actions);
                        made += 2;
                    }
                    CpAction::StartTimer { token, after } => {
                        now += after;
                        cp.on_timer(now, token, &mut actions);
                        made += 1;
                    }
                    CpAction::CancelTimer { .. } | CpAction::DeviceAbsent { .. } => {}
                }
            }
        }
        black_box(cp.stats());
        t.elapsed().as_nanos() as f64 / made.max(1) as f64
    }
    const CALLS: u64 = 300_000;
    let dcpp_cfg = DcppConfig::paper_default();
    let mut dcpp_device = DcppDevice::new(DeviceId(0), dcpp_cfg);
    let dcpp = drive(
        DcppCp::new(CpId(0), dcpp_cfg),
        |now, p| dcpp_device.on_probe(now, p),
        CALLS,
    );
    let mut sapp_device = SappDevice::new(DeviceId(0), SappDeviceConfig::paper_default());
    let sapp = drive(
        SappCp::new(CpId(0), SappConfig::paper_default()),
        |now, p| sapp_device.on_probe(now, p),
        CALLS,
    );
    sapp_share * sapp + (1.0 - sapp_share) * dcpp
}

type Layers = BTreeMap<&'static str, (f64, u64)>;

/// Per-layer figures common to the hub and mega traced runs.
fn engine_layers(layers: &mut Layers, events: u64, counts: &EngineCounts) {
    layers.insert("des.events", (events as f64, 1));
    layers.insert("des.dispatches", (counts.dispatches as f64, 1));
    layers.insert("des.timer_arms", (counts.arms as f64, 1));
    layers.insert("des.timer_cancels", (counts.cancels as f64, 1));
    layers.insert("des.timer_fires", (counts.fires as f64, 1));
    layers.insert(
        "des.queue_ns_per_op",
        (
            counts.queue_ns / counts.queue_ops.max(1) as f64,
            counts.queue_ops,
        ),
    );
}

/// The traced `sim-paper` run: an untraced pass over some rounds, then
/// the same rounds again with the engine trace on, the network models
/// wrapped, and the queue depth sampled.
fn paper_traced(args: &Args, out: &mut Outcome) {
    let start = Instant::now();
    let mut plain = Totals::default();
    let mut plain_results = Vec::new();
    let mut rounds = 0;
    while rounds == 0 || seconds_since(start) < args.seconds / 3.0 {
        for spec in round_specs(Some(&PAPER_SPECS), args.seed, rounds) {
            plain_results.push(result_json(&run_hub(&spec, build_hub(&spec), &mut plain)));
        }
        rounds += 1;
    }

    let mut net = NetTally::default();
    let mut counts = EngineCounts::default();
    let mut traced = Totals::default();
    let mut replays_equal = true;
    let mut specs = Vec::new();
    for round in 0..rounds {
        specs.extend(round_specs(Some(&PAPER_SPECS), args.seed, round));
    }
    for (spec, plain_json) in specs.iter().zip(&plain_results) {
        let counters = Arc::new(NetCounters::default());
        let mut scenario = Scenario::assemble(
            spec.base_config(),
            Box::new(CountedDelay {
                inner: delay_model(spec),
                counters: Arc::clone(&counters),
            }),
            Box::new(CountedLoss {
                inner: loss_model(spec),
                counters: Arc::clone(&counters),
            }),
            &churn_switches(spec),
        );
        if let Some(at) = spec.crash_at {
            scenario.crash_device_at(at);
        }
        if let Some(at) = spec.bye_at {
            scenario.device_bye_at(at);
        }
        let mut is_machine = vec![false; scenario.sim_mut().actor_count()];
        for actor in scenario
            .cp_actors()
            .iter()
            .chain([&scenario.device_actor()])
        {
            is_machine[actor.index()] = true;
        }
        scenario.sim_mut().enable_engine_trace();
        let t = Instant::now();
        let depth = stepped_run(spec.duration, |at| {
            scenario.run_until(at);
            scenario.sim_mut().queue_len()
        });
        let run_s = seconds_since(t);
        let t = Instant::now();
        let result = scenario.collect();
        traced.add(&result, run_s, seconds_since(t), is_sapp(spec));
        replays_equal &= result_json(&result) == *plain_json;
        let trace = scenario.sim_mut().take_engine_trace();
        counts.add_trace(&trace, |a| is_machine[a]);
        counts.replay(&trace, depth, QueueProfile::Heap);
        net.add(spec, &counters);
    }
    out.check(
        "traced replay",
        replays_equal,
        "every traced run is byte-equal to its untraced run",
    );
    out.attempted = plain.runs + traced.runs;
    out.failed = plain.failed + traced.failed;
    out.check(
        "scenario runs",
        out.failed == 0,
        format!(
            "{} of {} runs had unroutable messages or more than {EPM_LIMIT} events per kept message",
            out.failed, out.attempted
        ),
    );

    let step_ns = core_step_ns(traced.sapp_events as f64 / traced.events.max(1) as f64);
    let mut layers = Layers::new();
    engine_layers(&mut layers, traced.events, &counts);
    net.insert(&mut layers);
    layers.insert("core.step_ns", (step_ns, counts.machine_calls));
    layers.insert("sim.run_s", (plain.run_s, plain.runs));
    layers.insert("sim.collect_s", (plain.collect_s, plain.runs));
    layers.insert(
        "sim.events_per_delivered_msg",
        (
            (plain.offered + plain.messages) as f64 / plain.messages.max(1) as f64,
            plain.runs,
        ),
    );
    layers.insert(
        "sim.allocs_per_event",
        (
            plain.allocs as f64 / plain.events.max(1) as f64,
            plain.events,
        ),
    );
    let modelled_ns = counts.queue_ns + net.replay_ns + counts.machine_calls as f64 * step_ns;
    layers.insert(
        "model.residual_frac",
        (1.0 - modelled_ns / (plain.run_s * 1e9), plain.runs),
    );
    let plain_rate = plain.events as f64 / plain.span();
    let traced_rate = traced.events as f64 / traced.span();
    layers.insert(
        "trace.overhead_frac",
        (1.0 - traced_rate / plain_rate, traced.runs),
    );
    out.per_layer(&layers);
    out.detail("untraced_events_per_s", plain_rate, "1/s", plain.runs);
    out.detail("traced_events_per_s", traced_rate, "1/s", traced.runs);
}

/// The `mega-ci` configuration under a generated seed.
fn mega_config(seed: u64, run: u64) -> MegaConfig {
    let spec = mega_catalog()
        .into_iter()
        .find(|s| s.name == "mega-ci")
        .expect("mega-ci catalog entry");
    let mut cfg = spec.config;
    cfg.seed = derive_seed(seed, run);
    cfg
}

/// Messages the mega shard delivered: each probe a device received and
/// its reply (the scenario is lossless).
fn mega_messages(r: &MegaResult) -> u64 {
    2 * r.device_probes
}

/// Slices each mega run is timed in.
const MEGA_SLICES: usize = 50;

/// Consecutive slices that form one class of samples: five phases of a
/// run, the first of them the join stagger. A class per slice would hold
/// one sample per run, too few for a best-of.
const MEGA_SLICES_PER_CLASS: usize = 10;

/// Extra set-ups per mega run, built and dropped.
const MEGA_EXTRA_SETUPS: usize = 3;

/// The `mega_smoke` invariants; returns the failures.
fn mega_failures(r: &MegaResult) -> Vec<String> {
    let mut failures = Vec::new();
    if r.cycles_succeeded == 0 {
        failures.push("no probe cycle completed".to_string());
    }
    if r.cycles_failed != 0 || r.stopped_pairs != 0 {
        failures.push(format!(
            "lossless run failed cycles: {} failed, {} stopped pairs",
            r.cycles_failed, r.stopped_pairs
        ));
    }
    if (r.wait_mean - 0.5).abs() > 0.05 {
        failures.push(format!("wait mean {:.4} s strayed from d_min", r.wait_mean));
    }
    failures
}

fn check_mega_invariants(out: &mut Outcome, failures: &[String]) {
    let detail = if failures.is_empty() {
        "cycles complete, none failed, no stopped pairs, wait mean at d_min".to_string()
    } else {
        failures.join("; ")
    };
    out.check("mega invariants", failures.is_empty(), detail);
}

/// RSS budget of the mega smoke scale.
const MEGA_RSS_BUDGET_MB: f64 = 512.0;

fn check_mega_rss(out: &mut Outcome) {
    let rss = sys::peak_rss_mb();
    out.check(
        "mega rss",
        rss <= MEGA_RSS_BUDGET_MB,
        format!("peak RSS {rss:.1} MiB within {MEGA_RSS_BUDGET_MB} MiB"),
    );
}

/// `sim-mega`: the `mega-ci` entry (10⁵ devices / 10³ CPs, 5 s virtual,
/// calendar queue, streaming recorders), run after run under generated
/// seeds.
pub fn mega(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    if args.trace {
        mega_traced(args, &mut out);
        check_mega_rss(&mut out);
        return out;
    }
    let start = Instant::now();
    let mut samples = Samples::default();
    let mut failures = Vec::new();
    let mut run = 0;
    while seconds_since(start) < args.seconds {
        let cfg = mega_config(args.seed, run);
        // More set-up samples than runs: builds dropped unrun.
        for _ in 0..MEGA_EXTRA_SETUPS {
            drop(samples.setup(|| MegaScenario::build(cfg)));
        }
        let mut scenario = samples.setup(|| MegaScenario::build(cfg));
        let (mut events, mut probes) = (0, 0);
        let mut finished = true;
        for slice in 1..=MEGA_SLICES {
            // The run ends on time: a run cut short (never the first)
            // keeps its samples but skips the invariants, which hold only
            // over the whole horizon.
            if run > 0 && seconds_since(start) >= args.seconds {
                finished = false;
                break;
            }
            let cpu = sys::cpu_seconds();
            let t = Instant::now();
            let until = cfg.duration * slice as f64 / MEGA_SLICES as f64;
            scenario.sim_mut().run_until(SimTime::from_secs_f64(until));
            let wall = seconds_since(t);
            let cpu = sys::cpu_seconds() - cpu;
            let now_events = scenario.sim_mut().events_processed();
            let now_probes = scenario.shard().device_probes();
            samples.push(
                (slice - 1) / MEGA_SLICES_PER_CLASS,
                now_events - events,
                2 * (now_probes - probes),
                wall,
                cpu,
            );
            (events, probes) = (now_events, now_probes);
        }
        if finished {
            let failed = mega_failures(&scenario.collect());
            if !failed.is_empty() {
                out.failed += 1;
                failures.extend(failed);
            }
            out.attempted += 1;
        }
        run += 1;
    }
    check_mega_invariants(&mut out, &failures);
    check_mega_rss(&mut out);
    samples.report(&mut out);
    out.metric("peak_rss_mb", sys::peak_rss_mb(), 1);
    out
}

fn mega_traced(args: &Args, out: &mut Outcome) {
    let cfg = mega_config(args.seed, 0);
    // Untraced: the run span, allocations and heap high-water mark.
    let live = alloc::live_bytes();
    alloc::reset_peak();
    let mut scenario = MegaScenario::build(cfg);
    let allocs = alloc::allocs();
    let t = Instant::now();
    scenario.run();
    let run_s = seconds_since(t);
    let allocs = alloc::allocs() - allocs;
    let heap = alloc::peak_bytes() - live;
    let t = Instant::now();
    let plain = scenario.collect();
    let collect_s = seconds_since(t);
    drop(scenario);

    // Traced: the same seed with the engine trace on.
    let mut scenario = MegaScenario::build(cfg);
    scenario.sim_mut().enable_engine_trace();
    let t = Instant::now();
    let depth = stepped_run(cfg.duration, |at| {
        scenario.sim_mut().run_until(SimTime::from_secs_f64(at));
        scenario.sim_mut().queue_len()
    });
    let traced_s = seconds_since(t);
    let traced = scenario.collect();
    let trace = scenario.sim_mut().take_engine_trace();
    drop(scenario);
    let mut counts = EngineCounts::default();
    counts.add_trace(&trace, |_| true);
    counts.replay(&trace, depth, QueueProfile::calendar());
    drop(trace);

    let failures: Vec<String> = mega_failures(&plain)
        .into_iter()
        .chain(mega_failures(&traced))
        .collect();
    out.attempted = 2;
    out.failed = u64::from(!mega_failures(&plain).is_empty())
        + u64::from(!mega_failures(&traced).is_empty());
    check_mega_invariants(out, &failures);
    out.check(
        "traced replay",
        plain.events_processed == traced.events_processed
            && plain.cycles_succeeded == traced.cycles_succeeded,
        "the traced run repeats the untraced run's counts",
    );

    let events = plain.events_processed;
    let step_ns = core_step_ns(0.0);
    let mut layers = Layers::new();
    engine_layers(&mut layers, events, &counts);
    layers.insert("core.step_ns", (step_ns, counts.machine_calls));
    layers.insert("sim.run_s", (run_s, 1));
    layers.insert("sim.collect_s", (collect_s, 1));
    layers.insert(
        "sim.events_per_delivered_msg",
        (events as f64 / mega_messages(&plain).max(1) as f64, 1),
    );
    layers.insert(
        "sim.allocs_per_event",
        (allocs as f64 / events as f64, events),
    );
    let modelled_ns = counts.queue_ns + counts.machine_calls as f64 * step_ns;
    layers.insert(
        "model.residual_frac",
        (1.0 - modelled_ns / (run_s * 1e9), 1),
    );
    layers.insert("trace.overhead_frac", (1.0 - run_s / traced_s, 1));
    out.per_layer(&layers);
    out.detail("pending_events_mean", depth as f64, "count", 100);
    out.detail(
        "mega.bytes_per_device",
        heap as f64 / f64::from(cfg.devices),
        "B",
        u64::from(cfg.devices),
    );
}

/// One `sim-regions` pair: the spec at regions=1/workers=1, then at
/// regions=2/workers=2.
struct RegionPair {
    one_s: f64,
    /// Building the regions=2 scenario.
    two_build_s: f64,
    /// Run + collect at regions=2: wall and process CPU seconds.
    two_s: f64,
    two_cpu_s: f64,
    /// Events and delivered messages at regions=2.
    events: u64,
    messages: u64,
    equal: bool,
    windows: u64,
    exchanges: u64,
    relays: u64,
}

fn region_pair(spec: &ScenarioSpec, wrap: Option<&Arc<NetCounters>>) -> RegionPair {
    let build = |regions: usize| {
        let mut scenario = match wrap {
            None => spec.build_decomposed(regions).expect("catalog spec builds"),
            Some(net) => {
                let mut s = presence_sim::DecomposedScenario::assemble(
                    spec.base_config(),
                    regions,
                    &|| {
                        Box::new(CountedDelay {
                            inner: delay_model(spec),
                            counters: Arc::clone(net),
                        })
                    },
                    &|| {
                        Box::new(CountedLoss {
                            inner: loss_model(spec),
                            counters: Arc::clone(net),
                        })
                    },
                    &churn_switches(spec),
                    RecorderMode::Full,
                );
                if let Some(at) = spec.crash_at {
                    s.crash_device_at(at);
                }
                if let Some(at) = spec.bye_at {
                    s.device_bye_at(at);
                }
                s
            }
        };
        scenario.set_workers(regions);
        scenario
    };
    let mut one = build(1);
    let t = Instant::now();
    one.run();
    let one_result = one.collect();
    let one_s = seconds_since(t);
    let t = Instant::now();
    let mut two = build(2);
    let two_build_s = seconds_since(t);
    let cpu = sys::cpu_seconds();
    let t = Instant::now();
    two.run();
    let two_result = two.collect();
    let two_s = seconds_since(t);
    let two_cpu_s = sys::cpu_seconds() - cpu;
    let (windows, exchanges, _) = two.region_counters().unwrap_or((0, 0, 0.0));
    RegionPair {
        one_s,
        two_build_s,
        two_s,
        two_cpu_s,
        events: two_result.events_processed,
        messages: two_result.messages_delivered,
        equal: result_json(&one_result) == result_json(&two_result),
        windows,
        exchanges,
        relays: two.relays_forwarded(),
    }
}

/// `sim-regions`: the whole catalog on `DecomposedScenario`, each spec at
/// regions=1/workers=1 and then regions=2/workers=2, round after round.
pub fn regions(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    if args.trace {
        regions_traced(args, &mut out);
        return out;
    }
    let start = Instant::now();
    let mut samples = Samples::default();
    let mut speedups = Vec::new();
    let mut round = 0;
    while seconds_since(start) < args.seconds {
        let (mut one_s, mut two_s, mut setup_s) = (0.0, 0.0, 0.0);
        for (class, spec) in round_specs(None, args.seed, round).iter().enumerate() {
            let pair = region_pair(spec, None);
            out.attempted += 1;
            out.failed += u64::from(!pair.equal);
            one_s += pair.one_s;
            two_s += pair.two_s;
            setup_s += pair.two_build_s;
            samples.push(
                class,
                pair.events,
                pair.messages,
                pair.two_s,
                pair.two_cpu_s,
            );
        }
        // Set-up: building the round's scenarios at regions=2.
        samples.add_setup(setup_s);
        speedups.push(one_s / two_s);
        round += 1;
    }
    out.check(
        "regions=2 equals regions=1",
        out.failed == 0,
        format!("{} of {} results differ", out.failed, out.attempted),
    );
    samples.report(&mut out);
    out.metric("peak_rss_mb", sys::peak_rss_mb(), 1);
    out.detail("speedup_2w", median(&mut speedups), "ratio", round);
    out
}

/// The traced `sim-regions` run: untraced rounds for a third of the run
/// time, then the same rounds again with the network models wrapped.
fn regions_traced(args: &Args, out: &mut Outcome) {
    let start = Instant::now();
    let mut specs = Vec::new();
    let mut plain = Vec::new();
    let mut round = 0;
    while round == 0 || seconds_since(start) < args.seconds / 3.0 {
        let round_specs = round_specs(None, args.seed, round);
        plain.extend(round_specs.iter().map(|s| region_pair(s, None)));
        specs.extend(round_specs);
        round += 1;
    }
    let mut net = NetTally::default();
    let traced: Vec<RegionPair> = specs
        .iter()
        .map(|spec| {
            let counters = Arc::new(NetCounters::default());
            let pair = region_pair(spec, Some(&counters));
            net.add(spec, &counters);
            pair
        })
        .collect();
    out.attempted = (plain.len() + traced.len()) as u64;
    out.failed = plain.iter().chain(&traced).filter(|p| !p.equal).count() as u64;
    out.check(
        "regions=2 equals regions=1",
        out.failed == 0,
        format!("{} of {} results differ", out.failed, out.attempted),
    );
    let sum = |f: fn(&RegionPair) -> u64| plain.iter().map(f).sum::<u64>();
    let (windows, events) = (sum(|p| p.windows), sum(|p| p.events));
    let two_s: f64 = plain.iter().map(|p| p.two_s).sum();
    let one_s: f64 = plain.iter().map(|p| p.one_s).sum();
    let traced_two_s: f64 = traced.iter().map(|p| p.two_s).sum();
    let mut layers = Layers::new();
    layers.insert("des.events", (events as f64, 1));
    net.insert(&mut layers);
    layers.insert("sim.run_s", (two_s, plain.len() as u64));
    layers.insert("region.windows", (windows as f64, 1));
    layers.insert("region.barrier_exchanges", (sum(|p| p.exchanges) as f64, 1));
    layers.insert(
        "region.events_per_window",
        (events as f64 / windows.max(1) as f64, windows),
    );
    layers.insert("region.relays", (sum(|p| p.relays) as f64, 1));
    layers.insert(
        "region.ns_per_window",
        (two_s * 1e9 / windows.max(1) as f64, windows),
    );
    layers.insert(
        "trace.overhead_frac",
        (1.0 - two_s / traced_two_s, plain.len() as u64),
    );
    out.per_layer(&layers);
    out.detail("speedup_2w", one_s / two_s, "ratio", plain.len() as u64);
}
