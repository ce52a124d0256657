//! Sim/runtime conformance: the DES as an oracle for the UDP host.
//!
//! The repo's central claim is that the *same* sans-io machines run under
//! the simulator and under the wall-clock runtime. This module turns that
//! claim into a checkable property: drive identical machine populations
//!
//! 1. through the discrete-event engine with a zero-delay network
//!    ([`run_oracle`]), and
//! 2. through real loopback UDP sockets under a [`ManualClock`]
//!    ([`run_udp`]),
//!
//! and require verdict-for-verdict agreement — absence reasons, verdict
//! instants, cycle counts, probes sent, probes answered.
//!
//! # Why the two paths must agree exactly
//!
//! The UDP run holds virtual time frozen while datagrams fly: the
//! controller advances the [`ManualClock`] to the next armed timer
//! deadline only once both hosts are provably quiescent, so every
//! message exchange completes "instantaneously" on the virtual time
//! axis — exactly the semantics of the oracle's zero-delay network.
//! With identical inputs at identical virtual instants, the machines
//! (which are deterministic) must produce identical outputs; any
//! disagreement is a runtime bug (mis-armed timer, mis-routed datagram,
//! dropped message), not noise.
//!
//! # The quiescence proof
//!
//! Sampling "no traffic for a while" would race a descheduled shard
//! thread. Instead the controller uses the shards' own counters for a
//! timing-free proof: a host is quiescent once, over two consecutive
//! observation windows, **every** shard completed at least one full
//! loop iteration (socket drained, due timers fired) while the summed
//! activity counters did not move. Any datagram still in a kernel
//! buffer would have been drained by one of those iterations and
//! counted; any due timer would have fired. Three such windows in a row
//! are required for margin.

use crate::clock::{Clock, ManualClock};
use crate::shard::{DeviceHost, HostConfig, HostHandle, ShardedHost};
use presence_core::{
    CpAction, CpId, CpStats, DcppConfig, DcppCp, DcppDevice, DeviceId, Prober, SappConfig, SappCp,
    SappDevice, SappDeviceConfig, TimerToken, Verdict, WireMessage,
};
use presence_des::{Actor, ActorId, Context, EventHandle, SimDuration, SimTime, Simulation};
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which probing protocol a CP speaks.
#[derive(Debug, Clone, Copy)]
pub enum CpKind {
    /// A DCPP control point.
    Dcpp(DcppConfig),
    /// A SAPP control point.
    Sapp(SappConfig),
}

/// Which protocol a device speaks.
#[derive(Debug, Clone, Copy)]
pub enum DeviceKind {
    /// A DCPP device.
    Dcpp(DcppConfig),
    /// A SAPP device.
    Sapp(SappDeviceConfig),
}

/// One control point in a conformance scenario.
#[derive(Debug, Clone, Copy)]
pub struct CpSpec {
    /// Its identity.
    pub id: CpId,
    /// Its protocol and configuration.
    pub kind: CpKind,
    /// The device it watches.
    pub target: DeviceId,
    /// When it starts probing (virtual time).
    pub start_at: SimTime,
}

/// One device in a conformance scenario.
#[derive(Debug, Clone, Copy)]
pub struct DeviceSpec {
    /// Its identity.
    pub id: DeviceId,
    /// Its protocol and configuration.
    pub kind: DeviceKind,
    /// When it goes silent (departs without a Bye), if ever.
    pub silence_at: Option<SimTime>,
}

/// A population of CPs and devices plus a virtual-time horizon.
#[derive(Debug, Clone)]
pub struct ConformanceScenario {
    /// Scenario name (for reports).
    pub name: &'static str,
    /// The control points.
    pub cps: Vec<CpSpec>,
    /// The devices.
    pub devices: Vec<DeviceSpec>,
    /// Virtual end time: timers with deadlines `≤ horizon` fire, matching
    /// `Simulation::run_until`.
    pub horizon: SimTime,
}

/// Final state of one CP, comparable across the two execution paths.
#[derive(Debug, Clone, PartialEq)]
pub struct CpConformance {
    /// The CP.
    pub cp: CpId,
    /// Terminal absence verdict (instant and reason), if reached.
    pub verdict: Option<Verdict>,
    /// Full cycle statistics.
    pub stats: CpStats,
}

/// Final state of one device, comparable across the two execution paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceConformance {
    /// The device.
    pub device: DeviceId,
    /// Probes it answered.
    pub probes_received: u64,
}

/// Everything one execution path reports, sorted by id so reports from
/// the two paths compare with `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceReport {
    /// Per-CP outcomes.
    pub cps: Vec<CpConformance>,
    /// Per-device outcomes.
    pub devices: Vec<DeviceConformance>,
}

fn make_prober(spec: &CpSpec) -> Box<dyn Prober + Send> {
    match spec.kind {
        CpKind::Dcpp(cfg) => Box::new(DcppCp::new(spec.id, cfg)),
        CpKind::Sapp(cfg) => Box::new(SappCp::new(spec.id, cfg)),
    }
}

fn make_device(spec: &DeviceSpec) -> DeviceHost {
    match spec.kind {
        DeviceKind::Dcpp(cfg) => DeviceHost::Dcpp(DcppDevice::new(spec.id, cfg)),
        DeviceKind::Sapp(cfg) => DeviceHost::Sapp(SappDevice::new(spec.id, cfg)),
    }
}

// ---------------------------------------------------------------------
// Oracle path: the DES with a zero-delay network.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum OracleEvent {
    /// Start the CP machine.
    StartCp,
    /// A protocol timer armed by the CP fires.
    CpTimer(TimerToken),
    /// A wire message arrives (zero network delay).
    Net(WireMessage),
    /// The device departs silently.
    Silence,
}

struct OracleCp {
    prober: Box<dyn Prober + Send>,
    device_actor: ActorId,
    timers: HashMap<TimerToken, EventHandle>,
}

impl OracleCp {
    fn execute(&mut self, ctx: &mut Context<'_, OracleEvent>, actions: &mut Vec<CpAction>) {
        for action in actions.drain(..) {
            match action {
                CpAction::SendProbe(p) => {
                    ctx.send_now(self.device_actor, OracleEvent::Net(WireMessage::Probe(p)));
                }
                CpAction::StartTimer { token, after } => {
                    let handle = ctx.set_timer(after, OracleEvent::CpTimer(token));
                    if let Some(old) = self.timers.insert(token, handle) {
                        ctx.cancel(old);
                    }
                }
                CpAction::CancelTimer { token } => {
                    if let Some(handle) = self.timers.remove(&token) {
                        ctx.cancel(handle);
                    }
                }
                CpAction::DeviceAbsent { .. } => {} // read via Prober::verdict
            }
        }
    }
}

impl Actor<OracleEvent> for OracleCp {
    fn on_event(&mut self, ctx: &mut Context<'_, OracleEvent>, event: OracleEvent) {
        let now = ctx.now();
        let mut actions = Vec::new();
        match event {
            OracleEvent::StartCp => self.prober.start(now, &mut actions),
            OracleEvent::CpTimer(token) => {
                self.timers.remove(&token);
                if !self.prober.is_stopped() {
                    self.prober.on_timer(now, token, &mut actions);
                }
            }
            OracleEvent::Net(WireMessage::Reply(reply)) if !self.prober.is_stopped() => {
                self.prober.on_reply(now, &reply, &mut actions);
            }
            OracleEvent::Net(WireMessage::Bye(_)) if !self.prober.is_stopped() => {
                self.prober.on_bye(now, &mut actions);
            }
            OracleEvent::Net(WireMessage::LeaveNotice(_)) if !self.prober.is_stopped() => {
                self.prober.on_leave_notice(now, &mut actions);
            }
            OracleEvent::Net(_) | OracleEvent::Silence => {}
        }
        self.execute(ctx, &mut actions);
    }
}

struct OracleDevice {
    host: DeviceHost,
    silenced: bool,
    /// CP id → CP actor, filled after all actors are spawned (read only
    /// during the run, which starts later).
    route: Arc<Mutex<HashMap<u32, ActorId>>>,
}

impl Actor<OracleEvent> for OracleDevice {
    fn on_event(&mut self, ctx: &mut Context<'_, OracleEvent>, event: OracleEvent) {
        match event {
            OracleEvent::Silence => self.silenced = true,
            OracleEvent::Net(WireMessage::Probe(probe)) if !self.silenced => {
                let reply = self.host.on_probe(ctx.now(), probe);
                let target = self.route.lock().expect("route lock")[&probe.cp.0];
                ctx.send_now(target, OracleEvent::Net(WireMessage::Reply(reply)));
            }
            _ => {}
        }
    }
}

/// Runs the scenario through the discrete-event engine with a zero-delay
/// network. This is the reference semantics.
#[must_use]
pub fn run_oracle(scenario: &ConformanceScenario) -> ConformanceReport {
    let mut sim: Simulation<OracleEvent> = Simulation::new(0);
    let route = Arc::new(Mutex::new(HashMap::new()));

    let mut device_actors: Vec<(DeviceId, ActorId)> = Vec::new();
    let mut by_device: HashMap<u32, ActorId> = HashMap::new();
    for spec in &scenario.devices {
        let id = sim.add_actor(OracleDevice {
            host: make_device(spec),
            silenced: false,
            route: Arc::clone(&route),
        });
        by_device.insert(spec.id.0, id);
        device_actors.push((spec.id, id));
        if let Some(at) = spec.silence_at {
            sim.schedule_at(at, id, OracleEvent::Silence);
        }
    }

    let mut cp_actors: Vec<(CpId, ActorId)> = Vec::new();
    for spec in &scenario.cps {
        let device_actor = by_device[&spec.target.0];
        let id = sim.add_actor(OracleCp {
            prober: make_prober(spec),
            device_actor,
            timers: HashMap::new(),
        });
        route.lock().expect("route lock").insert(spec.id.0, id);
        sim.schedule_at(spec.start_at, id, OracleEvent::StartCp);
        cp_actors.push((spec.id, id));
    }

    sim.run_until(scenario.horizon);

    let mut cps: Vec<CpConformance> = cp_actors
        .iter()
        .map(|&(cp, id)| {
            let actor: &OracleCp = sim.actor(id).expect("cp actor");
            CpConformance {
                cp,
                verdict: actor.prober.verdict(),
                stats: *actor.prober.stats(),
            }
        })
        .collect();
    cps.sort_by_key(|c| c.cp.0);
    let mut devices: Vec<DeviceConformance> = device_actors
        .iter()
        .map(|&(device, id)| {
            let actor: &OracleDevice = sim.actor(id).expect("device actor");
            DeviceConformance {
                device,
                probes_received: actor.host.probes_received(),
            }
        })
        .collect();
    devices.sort_by_key(|d| d.device.0);
    ConformanceReport { cps, devices }
}

// ---------------------------------------------------------------------
// UDP path: real sockets, lockstep virtual clock.
// ---------------------------------------------------------------------

/// Waits until every shard of every host has completed, in each of three
/// consecutive observation windows, at least one full loop iteration with
/// zero activity across all hosts (see the module docs for why this
/// proves no datagram is in flight and no timer is due).
fn wait_quiescent(hosts: &[&HostHandle], guard: Instant) {
    let sample = |hosts: &[&HostHandle]| -> (Vec<Vec<u64>>, u64) {
        (
            hosts.iter().map(|h| h.iterations()).collect(),
            hosts.iter().map(|h| h.activity()).sum(),
        )
    };
    let (mut prev_iters, mut prev_activity) = sample(hosts);
    let mut silent_windows = 0;
    while silent_windows < 3 {
        assert!(
            Instant::now() < guard,
            "conformance controller stalled waiting for quiescence \
             (activity {prev_activity})"
        );
        std::thread::sleep(Duration::from_micros(300));
        let (iters, activity) = sample(hosts);
        let advanced = iters
            .iter()
            .zip(&prev_iters)
            .all(|(now, before)| now.iter().zip(before).all(|(n, b)| n > b));
        if advanced && activity == prev_activity {
            silent_windows += 1;
        } else {
            silent_windows = 0;
        }
        prev_iters = iters;
        prev_activity = activity;
    }
}

/// Advances the shared [`ManualClock`] deadline-by-deadline until every
/// armed timer past `horizon` (or no timers remain).
fn lockstep(clock: &ManualClock, hosts: &[&HostHandle], horizon: SimTime) {
    // Generous wall-clock guard: a conformance run is hundreds of
    // quiescence rounds of a few milliseconds each.
    let guard = Instant::now() + Duration::from_secs(120);
    loop {
        wait_quiescent(hosts, guard);
        let Some(next) = hosts.iter().filter_map(|h| h.next_deadline()).min() else {
            break;
        };
        if next > horizon {
            break;
        }
        // Due entries would have fired (and counted as activity) before
        // quiescence was provable, so the published minimum is strictly
        // in the future.
        assert!(
            next > clock.now(),
            "quiescent host still publishes a due deadline"
        );
        clock.set(next);
    }
}

/// Runs the scenario over real loopback UDP: devices on one sharded host,
/// CPs on another, both on a shared [`ManualClock`] advanced in lockstep
/// with the armed timer deadlines.
pub fn run_udp(scenario: &ConformanceScenario, shards: usize) -> io::Result<ConformanceReport> {
    let config = HostConfig {
        shards,
        bind: "127.0.0.1:0".to_string(),
        recv_batch: 64,
        // A short cap on each wait: advancing the virtual clock wakes no
        // shard, and the controller's quiescence windows wait on full loop
        // iterations, so the cap bounds the per-step latency.
        poll_interval: Duration::from_micros(200),
    };
    let clock = ManualClock::new();
    let shared: Arc<dyn Clock> = Arc::new(clock.clone());

    let mut devices = ShardedHost::bind(&config)?;
    for spec in &scenario.devices {
        devices.add_device(make_device(spec), spec.silence_at);
    }
    let mut cps = ShardedHost::bind(&config)?;
    for spec in &scenario.cps {
        cps.add_prober(
            make_prober(spec),
            devices.addr_of(spec.target),
            spec.target,
            spec.start_at,
        );
    }

    let device_handle = devices.start(Arc::clone(&shared));
    let cp_handle = cps.start(Arc::clone(&shared));

    lockstep(&clock, &[&device_handle, &cp_handle], scenario.horizon);

    let cp_report = cp_handle.join();
    let device_report = device_handle.join();

    let mut cps: Vec<CpConformance> = cp_report
        .probers
        .iter()
        .map(|p| CpConformance {
            cp: p.cp,
            verdict: p.verdict,
            stats: p.stats,
        })
        .collect();
    cps.sort_by_key(|c| c.cp.0);
    let mut devices: Vec<DeviceConformance> = device_report
        .devices
        .iter()
        .map(|d| DeviceConformance {
            device: d.device,
            probes_received: d.probes_received,
        })
        .collect();
    devices.sort_by_key(|d| d.device.0);
    Ok(ConformanceReport { cps, devices })
}

// ---------------------------------------------------------------------
// Standard scenarios.
// ---------------------------------------------------------------------

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn at_ms(v: u64) -> SimTime {
    SimTime::ZERO + ms(v)
}

/// One DCPP CP probing one present device.
#[must_use]
pub fn dcpp_pair() -> ConformanceScenario {
    let mut cfg = DcppConfig::paper_default();
    cfg.delta_min = ms(20);
    cfg.d_min = ms(100);
    ConformanceScenario {
        name: "dcpp-pair",
        cps: vec![CpSpec {
            id: CpId(0),
            kind: CpKind::Dcpp(cfg),
            target: DeviceId(0),
            start_at: SimTime::ZERO,
        }],
        devices: vec![DeviceSpec {
            id: DeviceId(0),
            kind: DeviceKind::Dcpp(cfg),
            silence_at: None,
        }],
        horizon: at_ms(5_000),
    }
}

/// A DCPP fleet with staggered starts and one device departing silently
/// mid-run, so both the steady-state and the timeout-cascade paths are
/// compared.
#[must_use]
pub fn dcpp_fleet(pairs: u32) -> ConformanceScenario {
    let mut cfg = DcppConfig::paper_default();
    cfg.delta_min = ms(20);
    cfg.d_min = ms(100);
    let devices = (0..pairs)
        .map(|d| DeviceSpec {
            id: DeviceId(d),
            kind: DeviceKind::Dcpp(cfg),
            // The last device departs halfway through.
            silence_at: (d == pairs - 1).then(|| at_ms(1_500)),
        })
        .collect();
    let cps = (0..pairs)
        .map(|d| CpSpec {
            id: CpId(d),
            kind: CpKind::Dcpp(cfg),
            target: DeviceId(d),
            start_at: at_ms(u64::from(d) * 7),
        })
        .collect();
    ConformanceScenario {
        name: "dcpp-fleet",
        cps,
        devices,
        horizon: at_ms(3_000),
    }
}

/// One SAPP CP adapting against one SAPP device.
#[must_use]
pub fn sapp_pair() -> ConformanceScenario {
    let cp = SappConfig::paper_default();
    let device = SappDeviceConfig::paper_default();
    ConformanceScenario {
        name: "sapp-pair",
        cps: vec![CpSpec {
            id: CpId(0),
            kind: CpKind::Sapp(cp),
            target: DeviceId(0),
            start_at: SimTime::ZERO,
        }],
        devices: vec![DeviceSpec {
            id: DeviceId(0),
            kind: DeviceKind::Sapp(device),
            silence_at: None,
        }],
        horizon: at_ms(2_000),
    }
}

/// DCPP and SAPP pairs sharing the same two sharded hosts, including a
/// SAPP device that departs.
#[must_use]
pub fn mixed_fleet() -> ConformanceScenario {
    let mut dcpp = DcppConfig::paper_default();
    dcpp.delta_min = ms(20);
    dcpp.d_min = ms(100);
    let sapp_cp = SappConfig::paper_default();
    let sapp_dev = SappDeviceConfig::paper_default();
    ConformanceScenario {
        name: "mixed-fleet",
        cps: vec![
            CpSpec {
                id: CpId(0),
                kind: CpKind::Dcpp(dcpp),
                target: DeviceId(0),
                start_at: SimTime::ZERO,
            },
            CpSpec {
                id: CpId(1),
                kind: CpKind::Sapp(sapp_cp),
                target: DeviceId(1),
                start_at: at_ms(3),
            },
            CpSpec {
                id: CpId(2),
                kind: CpKind::Sapp(sapp_cp),
                target: DeviceId(2),
                start_at: at_ms(6),
            },
        ],
        devices: vec![
            DeviceSpec {
                id: DeviceId(0),
                kind: DeviceKind::Dcpp(dcpp),
                silence_at: None,
            },
            DeviceSpec {
                id: DeviceId(1),
                kind: DeviceKind::Sapp(sapp_dev),
                silence_at: None,
            },
            DeviceSpec {
                id: DeviceId(2),
                kind: DeviceKind::Sapp(sapp_dev),
                silence_at: Some(at_ms(900)),
            },
        ],
        horizon: at_ms(2_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use presence_core::AbsenceReason;

    #[test]
    fn oracle_dcpp_pair_steady_state() {
        let report = run_oracle(&dcpp_pair());
        let cp = &report.cps[0];
        assert!(cp.verdict.is_none(), "false verdict: {:?}", cp.verdict);
        // d_min = 100 ms over a 5 s horizon: roughly one cycle per 100 ms.
        assert!(
            (40..=52).contains(&cp.stats.cycles_succeeded),
            "unexpected cycle count {}",
            cp.stats.cycles_succeeded
        );
        assert_eq!(cp.stats.retransmissions, 0);
        assert_eq!(report.devices[0].probes_received, cp.stats.probes_sent);
    }

    #[test]
    fn oracle_detects_departed_device() {
        let report = run_oracle(&dcpp_fleet(4));
        let departed = report.cps.last().unwrap();
        let v = departed.verdict.expect("departed device never detected");
        assert_eq!(v.reason, AbsenceReason::ProbeTimeout);
        assert!(v.at > at_ms(1_500), "verdict before the device departed");
        assert_eq!(departed.stats.retransmissions, 3);
        for cp in &report.cps[..report.cps.len() - 1] {
            assert!(cp.verdict.is_none(), "false verdict for {:?}", cp.cp);
        }
    }

    #[test]
    fn oracle_sapp_pair_adapts_without_verdict() {
        let report = run_oracle(&sapp_pair());
        let cp = &report.cps[0];
        assert!(cp.verdict.is_none());
        assert!(cp.stats.cycles_succeeded > 5, "SAPP barely cycled");
    }
}
