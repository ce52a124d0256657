//! `host-fleet`: two sharded UDP hosts on loopback, one serving devices
//! and one serving control points, one shard each. Every CP watches its
//! own device through DCPP at δ_min = 2 ms and d_min = 10 ms and starts
//! its next cycle only after the reply (a closed loop). Halfway through,
//! a wave of devices goes silent and their CPs must time out.
//!
//! All host timings come from [`Watched`], a `Prober` wrapper around
//! `DcppCp` that this benchmark passes to `ShardedHost::add_prober`.

use crate::alloc;
use crate::report::{median, percentile, Outcome, Samples};
use crate::sys;
use crate::Args;
use presence_core::{
    AbsenceReason, CpAction, CpId, CpStats, DcppConfig, DcppCp, DcppDevice, DeviceId, Probe,
    Prober, Reply, ReplyBody, TimerToken, Verdict, WireMessage,
};
use presence_des::{splitmix64, SimDuration, SimTime};
use presence_runtime::codec::{decode_datagram, encode, encode_addressed};
use presence_runtime::conformance::{
    run_oracle, ConformanceScenario, CpKind, CpSpec, DeviceKind, DeviceSpec,
};
use presence_runtime::{
    Clock, DeviceHost, HostConfig, HostHandle, HostReport, ShardStats, ShardedHost, SystemClock,
    TimerWheel,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Device/CP pairs. At 256 pairs at most 256 probes are outstanding, which
/// fits the default 208 KiB socket receive buffer; measured on 2 cores,
/// 512 pairs already lost ~0.5 % of datagrams in the kernel.
const PAIRS: u32 = 256;

/// Throughput sampling period of a served run.
const SAMPLE: Duration = Duration::from_millis(250);

/// Set-ups timed before the served run, and again after it.
const SETUPS_EACH_SIDE: usize = 16;

/// Devices that go silent mid-run.
const CRASHED: u32 = 100;

/// The crash wave spreads over this window after the run's midpoint.
const CRASH_SPREAD_MS: u64 = 50;

/// TOF and TOS. The paper sets TOF = 2·RTT_max + C_max. On loopback the
/// round trip is bounded by how long the scheduler keeps a shard thread
/// off its core, and on a shared 2-core host that reached tens of ms: at
/// the paper's 22 ms, sets of ten 25 s runs retransmitted to live devices
/// in three to seven runs (60 to 1400 times a run). 250 ms for both keeps
/// the detection budget TOF + 3·TOS at 1 s, the paper's "about a second".
const TIMEOUT: SimDuration = SimDuration::from_millis(250);

fn dcpp_config() -> DcppConfig {
    let mut cfg = DcppConfig::paper_default();
    cfg.delta_min = SimDuration::from_millis(2);
    cfg.d_min = SimDuration::from_millis(10);
    cfg.cycle.tof = TIMEOUT;
    cfg.cycle.tos = TIMEOUT;
    cfg
}

fn host_config() -> HostConfig {
    HostConfig {
        shards: 1,
        bind: "127.0.0.1:0".to_string(),
        recv_batch: 64,
        poll_interval: Duration::from_millis(1),
    }
}

/// The generated inputs of one run: when each CP starts and when each
/// crashed device goes silent, on the hosts' clock.
struct Plan {
    start_at: Vec<SimTime>,
    silence_at: Vec<Option<SimTime>>,
    /// Upper bound on one CP's cycles in the run: one per d_min.
    samples_per_cp: usize,
}

impl Plan {
    fn new(seed: u64, seconds: f64) -> Self {
        let mut state = seed;
        let mut next = move || {
            state = splitmix64(state);
            state
        };
        let stagger = dcpp_config().d_min.as_nanos();
        let start_at = (0..PAIRS)
            .map(|_| SimTime::from_nanos(next() % stagger))
            .collect();
        // A seeded partial Fisher-Yates pick of the crashed devices.
        let mut ids: Vec<u32> = (0..PAIRS).collect();
        for i in 0..CRASHED as usize {
            let j = i + (next() % (ids.len() - i) as u64) as usize;
            ids.swap(i, j);
        }
        let midpoint = SimTime::from_secs_f64(seconds / 2.0);
        let mut silence_at = vec![None; PAIRS as usize];
        for &d in &ids[..CRASHED as usize] {
            let jitter = SimDuration::from_nanos(next() % (CRASH_SPREAD_MS * 1_000_000));
            silence_at[d as usize] = Some(midpoint + jitter);
        }
        Self {
            start_at,
            silence_at,
            samples_per_cp: (seconds / dcpp_config().d_min.as_secs_f64()) as usize + 64,
        }
    }
}

/// What one watched CP observed, handed to the benchmark when the host
/// drops the prober at shutdown. The sample vectors are reserved once, at
/// the first sample, for the whole run, so the benchmark's own memory is
/// the same from run to run and `peak_rss_mb` measures the hosts.
#[derive(Default)]
struct ProberLog {
    cp: u32,
    /// Samples reserved per vector.
    expected: usize,
    /// `SendProbe` emission (first of the cycle) to the matching reply, µs.
    rtt_us: Vec<u32>,
    /// `on_timer` instant minus the armed deadline, µs.
    late_us: Vec<u32>,
    /// `after` of every armed timer, for the wheel replay (traced runs
    /// only).
    timer_afters: Vec<SimDuration>,
    timer_cancels: u64,
    probes: u64,
    replies: u64,
    /// Machine calls and their summed self time (traced runs only).
    calls: u64,
    call_ns: u64,
}

/// A `DcppCp` whose calls the benchmark observes. Once `draining` is set
/// it stops emitting and ignores timers, so in-flight datagrams can land
/// before the hosts stop and no verdict is caused by the drain itself.
struct Watched {
    inner: DcppCp,
    log: ProberLog,
    /// The current cycle's probe: `(seq, first emission)`.
    in_flight: Option<(u64, SimTime)>,
    /// Armed timers and their deadlines (at most a handful are live).
    deadlines: Vec<(TimerToken, SimTime)>,
    draining: Arc<AtomicBool>,
    sink: Arc<Mutex<Vec<ProberLog>>>,
    traced: bool,
}

impl Watched {
    /// Runs one machine call, timing it in a traced run, then records the
    /// actions it appended to `out` (or withdraws them while draining).
    fn call(
        &mut self,
        now: SimTime,
        out: &mut Vec<CpAction>,
        f: impl FnOnce(&mut DcppCp, &mut Vec<CpAction>),
    ) {
        let from = out.len();
        if self.traced {
            let t = Instant::now();
            f(&mut self.inner, out);
            self.log.call_ns += t.elapsed().as_nanos() as u64;
        } else {
            f(&mut self.inner, out);
        }
        self.log.calls += 1;
        if self.draining.load(Ordering::Relaxed) {
            out.truncate(from);
            return;
        }
        for action in &out[from..] {
            match *action {
                CpAction::SendProbe(Probe { seq, .. }) => {
                    self.log.probes += 1;
                    if self.in_flight.map(|(s, _)| s) != Some(seq) {
                        self.in_flight = Some((seq, now));
                    }
                }
                CpAction::StartTimer { token, after } => {
                    self.deadlines.push((token, now + after));
                    if self.traced {
                        self.log.timer_afters.push(after);
                    }
                }
                CpAction::CancelTimer { token } => {
                    self.deadlines.retain(|&(t, _)| t != token);
                    self.log.timer_cancels += 1;
                }
                CpAction::DeviceAbsent { .. } => {}
            }
        }
    }
}

fn ms_between(later: SimTime, earlier: SimTime) -> f64 {
    later.as_nanos().saturating_sub(earlier.as_nanos()) as f64 / 1e6
}

/// Appends `later − earlier` in µs to `samples`, reserving `expected`
/// at the first push.
fn push_us(samples: &mut Vec<u32>, expected: usize, later: SimTime, earlier: SimTime) {
    if samples.capacity() == 0 {
        samples.reserve_exact(expected);
    }
    let us = later.as_nanos().saturating_sub(earlier.as_nanos()) / 1_000;
    samples.push(u32::try_from(us).unwrap_or(u32::MAX));
}

impl Prober for Watched {
    fn cp(&self) -> CpId {
        self.inner.cp()
    }

    fn start(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        self.call(now, out, |cp, out| cp.start(now, out));
    }

    fn on_reply(&mut self, now: SimTime, reply: &Reply, out: &mut Vec<CpAction>) {
        self.log.replies += 1;
        if let Some((seq, sent)) = self.in_flight {
            if reply.probe.seq == seq {
                push_us(&mut self.log.rtt_us, self.log.expected, now, sent);
                self.in_flight = None;
            }
        }
        self.call(now, out, |cp, out| cp.on_reply(now, reply, out));
    }

    fn on_timer(&mut self, now: SimTime, token: TimerToken, out: &mut Vec<CpAction>) {
        if self.draining.load(Ordering::Relaxed) {
            return;
        }
        if let Some(i) = self.deadlines.iter().position(|&(t, _)| t == token) {
            let (_, due) = self.deadlines.swap_remove(i);
            push_us(&mut self.log.late_us, self.log.expected, now, due);
        }
        self.call(now, out, |cp, out| cp.on_timer(now, token, out));
    }

    fn on_bye(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        self.call(now, out, |cp, out| cp.on_bye(now, out));
    }

    fn on_leave_notice(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
        self.call(now, out, |cp, out| cp.on_leave_notice(now, out));
    }

    fn stats(&self) -> &CpStats {
        self.inner.stats()
    }

    fn is_stopped(&self) -> bool {
        self.inner.is_stopped()
    }

    fn verdict(&self) -> Option<Verdict> {
        self.inner.verdict()
    }

    fn current_delay(&self) -> Option<SimDuration> {
        self.inner.current_delay()
    }
}

impl Drop for Watched {
    fn drop(&mut self) {
        let mut log = std::mem::take(&mut self.log);
        log.cp = self.inner.cp().0;
        // A poisoned sink means another prober panicked; that panic
        // already fails the run, so this log may be dropped.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(log);
        }
    }
}

/// Both hosts, bound and populated, not yet started.
struct Fleet {
    devices: ShardedHost,
    cps: ShardedHost,
    draining: Arc<AtomicBool>,
    sink: Arc<Mutex<Vec<ProberLog>>>,
}

fn build(plan: &Plan, traced: bool) -> Fleet {
    let cfg = dcpp_config();
    let mut devices = ShardedHost::bind(&host_config()).expect("bind device host on loopback");
    for d in 0..PAIRS {
        devices.add_device(
            DeviceHost::Dcpp(DcppDevice::new(DeviceId(d), cfg)),
            plan.silence_at[d as usize],
        );
    }
    let mut cps = ShardedHost::bind(&host_config()).expect("bind CP host on loopback");
    let draining = Arc::new(AtomicBool::new(false));
    let sink = Arc::new(Mutex::new(Vec::new()));
    for d in 0..PAIRS {
        let watched = Watched {
            inner: DcppCp::new(CpId(d), cfg),
            log: ProberLog {
                expected: plan.samples_per_cp,
                ..ProberLog::default()
            },
            in_flight: None,
            deadlines: Vec::new(),
            draining: Arc::clone(&draining),
            sink: Arc::clone(&sink),
            traced,
        };
        cps.add_prober(
            Box::new(watched),
            devices.addr_of(DeviceId(d)),
            DeviceId(d),
            plan.start_at[d as usize],
        );
    }
    Fleet {
        devices,
        cps,
        draining,
        sink,
    }
}

/// What one served run produced.
struct Served {
    /// Wall seconds from start until the drain began.
    span: f64,
    /// Both hosts' counters when the drain began.
    at_end: ShardStats,
    iterations: u64,
    cpu_s: f64,
    ctx_switches: u64,
    allocs: u64,
    cps: HostReport,
    devices: HostReport,
    logs: Vec<ProberLog>,
}

fn activity(a: &HostHandle, b: &HostHandle) -> (u64, u64) {
    let iterations = a.iterations().iter().chain(&b.iterations()).sum();
    (a.activity() + b.activity(), iterations)
}

/// Serves `fleet` for `seconds`, taking a throughput sample every
/// [`SAMPLE`], then drains, stops both hosts and joins them.
fn serve(fleet: Fleet, seconds: f64, samples: &mut Samples) -> Served {
    let Fleet {
        devices,
        cps,
        draining,
        sink,
    } = fleet;
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let ctx_before = sys::context_switches();
    let allocs_before = alloc::allocs();
    let cpu_before = sys::cpu_seconds();
    let start = Instant::now();
    let device_handle = devices.start(Arc::clone(&clock));
    let cp_handle = cps.start(Arc::clone(&clock));
    let end = start + Duration::from_secs_f64(seconds);
    let mut last = (start, cpu_before, ShardStats::default());
    // Whole windows only: a short tail would be a noisy sample.
    for k in 1..=(seconds / SAMPLE.as_secs_f64()) as u32 {
        std::thread::sleep((start + SAMPLE * k).saturating_duration_since(Instant::now()));
        let now = (
            Instant::now(),
            sys::cpu_seconds(),
            cp_handle.stats().merged(device_handle.stats()),
        );
        let dgrams = now.2.datagrams_received - last.2.datagrams_received;
        let timers = now.2.timers_fired - last.2.timers_fired;
        let wall = (now.0 - last.0).as_secs_f64();
        samples.push(0, dgrams + timers, dgrams, wall, now.1 - last.1);
        last = now;
    }
    std::thread::sleep(end.saturating_duration_since(Instant::now()));
    draining.store(true, Ordering::Relaxed);
    let span = start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu_before;
    let allocs = alloc::allocs() - allocs_before;
    let ctx_switches = sys::context_switches().saturating_sub(ctx_before);
    let at_end = cp_handle.stats().merged(device_handle.stats());
    let iterations = activity(&cp_handle, &device_handle).1;

    // Drain: quiescent once three windows in a row saw both shards loop
    // without any activity (as the conformance controller proves it).
    let mut quiet = 0;
    let mut last = activity(&cp_handle, &device_handle);
    let deadline = Instant::now() + Duration::from_secs(5);
    while quiet < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
        let now = activity(&cp_handle, &device_handle);
        quiet = if now.0 == last.0 && now.1 > last.1 {
            quiet + 1
        } else {
            0
        };
        last = now;
    }
    cp_handle.stop();
    device_handle.stop();
    let cps = cp_handle.join();
    let devices = device_handle.join();
    let logs = std::mem::take(&mut *sink.lock().expect("prober log sink poisoned"));
    Served {
        span,
        at_end,
        iterations,
        cpu_s,
        ctx_switches,
        allocs,
        cps,
        devices,
        logs,
    }
}

/// Silent-loss accounting of one run, out of the probes sent.
struct Losses {
    probes: u64,
    /// Datagrams one host sent that the other neither received nor
    /// dropped as departed, after the drain.
    lost: u64,
    /// Retransmissions by CPs whose device never went silent.
    retx_live: u64,
    /// Absent verdicts about devices that never went silent.
    false_verdicts: u64,
    /// `decode_errors + unroutable + dropped_sendpressure`, both hosts.
    counted: u64,
    /// Crashed devices whose CP reached no `ProbeTimeout` verdict.
    undetected: u64,
    /// Crash-to-verdict latencies.
    detect_ms: Vec<f64>,
}

impl Losses {
    fn new(served: &Served, plan: &Plan) -> Self {
        let (c, d) = (&served.cps.stats, &served.devices.stats);
        let lost = c
            .datagrams_sent
            .saturating_sub(d.datagrams_received + d.decode_errors)
            + d.datagrams_sent
                .saturating_sub(c.datagrams_received + c.decode_errors);
        let counted = [c, d]
            .iter()
            .map(|s| s.decode_errors + s.unroutable + s.dropped_sendpressure)
            .sum();
        let mut losses = Self {
            probes: c.datagrams_sent,
            lost,
            retx_live: 0,
            false_verdicts: 0,
            counted,
            undetected: 0,
            detect_ms: Vec::new(),
        };
        for p in &served.cps.probers {
            match (plan.silence_at[p.cp.0 as usize], p.verdict) {
                (None, verdict) => {
                    losses.retx_live += p.stats.retransmissions;
                    losses.false_verdicts += u64::from(verdict.is_some());
                }
                (Some(silent), Some(v)) if v.reason == AbsenceReason::ProbeTimeout => {
                    losses.detect_ms.push(ms_between(v.at, silent));
                }
                (Some(_), _) => losses.undetected += 1,
            }
        }
        losses
    }

    fn failed(&self) -> u64 {
        self.lost + self.retx_live + self.false_verdicts + self.counted
    }
}

fn check(out: &mut Outcome, losses: &Losses) {
    out.attempted += losses.probes;
    out.failed += losses.failed();
    out.check(
        "crashed devices detected",
        losses.undetected == 0,
        format!(
            "{} of {CRASHED} crashed devices reached a ProbeTimeout verdict",
            CRASHED as u64 - losses.undetected
        ),
    );
}

/// `(p50 ms, p_high ms, samples)` of the µs samples `f` picks from every
/// log.
fn percentiles_ms(logs: &[ProberLog], f: fn(&ProberLog) -> &[u32], high: f64) -> (f64, f64, u64) {
    let mut all: Vec<u32> = logs.iter().flat_map(|l| f(l).iter().copied()).collect();
    all.sort_unstable();
    let at = |q: f64| {
        let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len().max(1));
        all.get(rank - 1)
            .map_or(f64::NAN, |&us| f64::from(us) / 1e3)
    };
    (at(0.5), at(high), all.len() as u64)
}

/// The host figures printed beside the gated ones.
fn latency_detail(out: &mut Outcome, served: &Served, losses: &Losses) {
    let (rtt50, rtt99, n) = percentiles_ms(&served.logs, |l| &l.rtt_us, 0.99);
    out.detail("probe_rtt_p50_ms", rtt50, "ms", n);
    out.detail("probe_rtt_p99_ms", rtt99, "ms", n);
    let (late50, late99, n) = percentiles_ms(&served.logs, |l| &l.late_us, 0.99);
    out.detail("timer_late_p50_ms", late50, "ms", n);
    out.detail("timer_late_p99_ms", late99, "ms", n);
    let mut detect = losses.detect_ms.clone();
    let n = detect.len() as u64;
    let (d50, d90) = (percentile(&mut detect, 0.5), percentile(&mut detect, 0.9));
    out.detail("detect_p50_ms", d50, "ms", n);
    out.detail("detect_p90_ms", d90, "ms", n);
    out.detail(
        "fail_frac",
        losses.failed() as f64 / losses.probes.max(1) as f64,
        "ratio",
        losses.probes,
    );
    out.detail("lost", losses.lost as f64, "count", 1);
    out.detail("retx_live", losses.retx_live as f64, "count", 1);
    out.detail("false_verdicts", losses.false_verdicts as f64, "count", 1);
    out.detail("host_counted_drops", losses.counted as f64, "count", 1);
    let dropped = served.cps.stats.dropped() + served.devices.stats.dropped();
    out.detail("shard_stats_dropped", dropped as f64, "count", 1);
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    if args.trace {
        traced(args, &mut out);
        return out;
    }
    let plan = Plan::new(args.seed, args.seconds);
    let mut samples = Samples::default();
    for _ in 0..SETUPS_EACH_SIDE {
        drop(samples.setup(|| build(&plan, false)));
    }
    let served = serve(build(&plan, false), args.seconds, &mut samples);
    for _ in 0..SETUPS_EACH_SIDE {
        drop(samples.setup(|| build(&plan, false)));
    }
    let losses = Losses::new(&served, &plan);
    check(&mut out, &losses);
    samples.report(&mut out);
    out.metric("peak_rss_mb", sys::peak_rss_mb(), 1);
    latency_detail(&mut out, &served, &losses);
    out
}

/// Mean ns to encode and decode one datagram of the observed mix:
/// addressed probes one way, bare DCPP replies the other.
fn codec_ns(probes: u64, replies: u64) -> f64 {
    const N: u64 = 200_000;
    let probe = WireMessage::Probe(Probe {
        cp: CpId(7),
        seq: 123_456,
    });
    let reply = WireMessage::Reply(Reply {
        probe: Probe {
            cp: CpId(7),
            seq: 123_456,
        },
        device: DeviceId(7),
        body: ReplyBody::Dcpp {
            wait: SimDuration::from_millis(10),
        },
    });
    let probe_share = probes as f64 / (probes + replies).max(1) as f64;
    let n_probes = (N as f64 * probe_share) as u64;
    let t = Instant::now();
    for i in 0..N {
        let bytes = if i < n_probes {
            encode_addressed(DeviceId(black_box(7)), black_box(&probe))
        } else {
            encode(black_box(&reply))
        };
        black_box(decode_datagram(&bytes).ok());
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

/// Replays the observed timer mix into a `TimerWheel`: every arm at its
/// observed `after`, the observed share of cancels, due timers popped as
/// the replay clock advances by the observed mean gap. Returns
/// `(ns per op, ops)`.
fn wheel_ns(logs: &[ProberLog], span: f64) -> (f64, u64) {
    let afters: Vec<SimDuration> = logs
        .iter()
        .flat_map(|l| l.timer_afters.iter().copied())
        .collect();
    let cancels: u64 = logs.iter().map(|l| l.timer_cancels).sum();
    if afters.is_empty() {
        return (0.0, 0);
    }
    let every = (afters.len() as u64 / cancels.max(1)).max(1);
    let gap = SimDuration::from_nanos((span * 1e9 / afters.len() as f64) as u64);
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut now = SimTime::ZERO;
    let mut ops = 0u64;
    let t = Instant::now();
    for (i, &after) in afters.iter().enumerate() {
        let key = i as u32 % PAIRS;
        now += gap;
        while let Some(due) = wheel.pop_due(now) {
            black_box(due);
            ops += 1;
        }
        wheel.insert(key, now + after);
        ops += 1;
        if cancels > 0 && (i as u64).is_multiple_of(every) {
            black_box(wheel.cancel(key));
            ops += 1;
        }
    }
    (t.elapsed().as_nanos() as f64 / ops as f64, ops)
}

/// Detection latency the DES oracle predicts for the same population and
/// silence instants (zero network delay, exact timers).
fn oracle_detect_ms(plan: &Plan) -> Vec<f64> {
    let cfg = dcpp_config();
    let last = plan
        .silence_at
        .iter()
        .flatten()
        .max()
        .copied()
        .unwrap_or(SimTime::ZERO);
    let scenario = ConformanceScenario {
        name: "host-fleet",
        cps: (0..PAIRS)
            .map(|d| CpSpec {
                id: CpId(d),
                kind: CpKind::Dcpp(cfg),
                target: DeviceId(d),
                start_at: plan.start_at[d as usize],
            })
            .collect(),
        devices: (0..PAIRS)
            .map(|d| DeviceSpec {
                id: DeviceId(d),
                kind: DeviceKind::Dcpp(cfg),
                silence_at: plan.silence_at[d as usize],
            })
            .collect(),
        // Well past the detection budget TOF + 3·TOS after the last crash.
        horizon: last + SimDuration::from_secs(3),
    };
    run_oracle(&scenario)
        .cps
        .iter()
        .filter_map(|c| {
            let silent = plan.silence_at[c.cp.0 as usize]?;
            c.verdict.map(|v| ms_between(v.at, silent))
        })
        .collect()
}

/// The traced `host-fleet` run: an untraced half for the counters, then a
/// traced half that times every machine call inside the wrapper.
fn traced(args: &Args, out: &mut Outcome) {
    let half = args.seconds / 2.0;
    let plan = Plan::new(args.seed, half);
    let plain = serve(build(&plan, false), half, &mut Samples::default());
    let losses = Losses::new(&plain, &plan);
    check(out, &losses);
    let traced = serve(build(&plan, true), half, &mut Samples::default());
    check(out, &Losses::new(&traced, &plan));

    let delivered = plain.at_end.datagrams_received;
    let logs = &plain.logs;
    let probes: u64 = logs.iter().map(|l| l.probes).sum();
    let replies: u64 = logs.iter().map(|l| l.replies).sum();
    let codec = codec_ns(probes, replies);
    let (wheel, wheel_ops) = wheel_ns(&traced.logs, traced.span);
    let calls: u64 = traced.logs.iter().map(|l| l.calls).sum();
    let step_ns = traced.logs.iter().map(|l| l.call_ns).sum::<u64>() as f64 / calls.max(1) as f64;
    let mut oracle = oracle_detect_ms(&plan);
    let mut host_detect = losses.detect_ms.clone();
    let excess = median(&mut host_detect) - median(&mut oracle);

    let mut layers: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    layers.insert("core.step_ns", (step_ns, calls));
    layers.insert(
        "runtime.dgrams_per_iteration",
        (
            delivered as f64 / plain.iterations.max(1) as f64,
            plain.iterations,
        ),
    );
    layers.insert(
        "runtime.ctx_switches_per_dgram",
        (
            plain.ctx_switches as f64 / delivered.max(1) as f64,
            delivered,
        ),
    );
    layers.insert("runtime.codec_ns_per_dgram", (codec, probes + replies));
    layers.insert("runtime.wheel_ns_per_op", (wheel, wheel_ops));
    layers.insert(
        "runtime.allocs_per_dgram",
        (plain.allocs as f64 / delivered.max(1) as f64, delivered),
    );
    layers.insert("runtime.lost", (losses.lost as f64, 1));
    layers.insert("runtime.retx_live", (losses.retx_live as f64, 1));
    layers.insert("runtime.false_verdicts", (losses.false_verdicts as f64, 1));
    layers.insert(
        "runtime.timers_fired",
        (plain.at_end.timers_fired as f64, 1),
    );
    layers.insert(
        "runtime.detect_excess_ms",
        (excess, losses.detect_ms.len() as u64),
    );
    // Per-op cost model against the CPU the hosts burned: every delivered
    // datagram decoded and encoded once, every timer op, every machine
    // call (CP calls plus one device call per received probe).
    let plain_calls: u64 =
        logs.iter().map(|l| l.calls).sum::<u64>() + plain.devices.stats.datagrams_received;
    let modelled_ns =
        delivered as f64 * codec + wheel_ops as f64 * wheel + plain_calls as f64 * step_ns;
    layers.insert(
        "model.residual_frac",
        (1.0 - modelled_ns / (plain.cpu_s * 1e9), delivered),
    );
    let plain_cpu = plain.cpu_s / delivered as f64;
    let traced_cpu = traced.cpu_s / traced.at_end.datagrams_received as f64;
    layers.insert(
        "trace.overhead_frac",
        (1.0 - plain_cpu / traced_cpu, delivered),
    );
    out.per_layer(&layers);
    latency_detail(out, &plain, &losses);
    out.detail(
        "oracle_detect_p50_ms",
        median(&mut oracle),
        "ms",
        oracle.len() as u64,
    );
}
