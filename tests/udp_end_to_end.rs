//! End-to-end tests over real loopback UDP sockets: both protocols, real
//! threads, real timers — the deployment configuration, not the simulator.
//! Each test serves its devices from one one-shard [`ShardedHost`] and its
//! probers from another.

use presence::core::{
    CpId, DcppConfig, DcppCp, DeviceId, ProbeCycleConfig, Prober, SappConfig, SappCp,
    SappDeviceConfig,
};
use presence::des::{SimDuration, SimTime};
use presence::runtime::{Clock, DeviceHost, HostConfig, HostHandle, ShardedHost, SystemClock};
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Starts a device host serving `device` (silent from `silence_at`, if
/// given) and a CP host running `probers` against it, all from t = 0.
/// Returns both handles and the CP host's socket address.
fn serve_pair(
    device: DeviceHost,
    silence_at: Option<SimTime>,
    probers: Vec<Box<dyn Prober + Send>>,
) -> (HostHandle, HostHandle, SocketAddr) {
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let id = device.id();
    let mut devices = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind device");
    devices.add_device(device, silence_at);
    let mut cps = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind cp");
    for prober in probers {
        cps.add_prober(prober, devices.addr_of(id), id, SimTime::ZERO);
    }
    let cp_addr = cps.local_addrs()[0];
    (devices.start(Arc::clone(&clock)), cps.start(clock), cp_addr)
}

#[test]
fn dcpp_over_udp_many_cps() {
    // Scaled-down timing: device takes 100 probes/s, CPs wait ≥ 40 ms.
    let mut cfg = DcppConfig::paper_default();
    cfg.delta_min = SimDuration::from_millis(10);
    cfg.d_min = SimDuration::from_millis(40);

    let probers = (0..5u32)
        .map(|i| Box::new(DcppCp::new(CpId(i), cfg)) as Box<dyn Prober + Send>)
        .collect();
    let (device, cps, _) = serve_pair(
        DeviceHost::Dcpp(presence::core::DcppDevice::new(DeviceId(0), cfg)),
        None,
        probers,
    );

    thread::sleep(Duration::from_millis(800));
    let cps = cps.join();
    let device = device.join();

    let mut total_cycles = 0;
    for p in &cps.probers {
        assert!(p.verdict.is_none(), "false verdict over UDP");
        total_cycles += p.stats.cycles_succeeded;
    }
    assert!(
        total_cycles >= 20,
        "only {total_cycles} cycles across 5 CPs in 800 ms"
    );
    assert!(device.devices[0].probes_received >= total_cycles);
}

#[test]
fn sapp_over_udp_adapts_and_detects_crash() {
    // SAPP CP against a SAPP device; after 500 ms the device dies and the
    // CP must detect within δ + TOF + 3·TOS.
    let cp_cfg = SappConfig {
        // Slow the greedy start slightly so the wall-clock run is gentle.
        initial_delay: SimDuration::from_millis(30),
        delta_min: SimDuration::from_millis(30),
        ..SappConfig::paper_default()
    };
    let dev_cfg = SappDeviceConfig::paper_default();

    let (device, cps, _) = serve_pair(
        DeviceHost::Sapp(presence::core::SappDevice::new(DeviceId(0), dev_cfg)),
        Some(SimTime::from_secs_f64(0.5)),
        vec![Box::new(SappCp::new(CpId(0), cp_cfg))],
    );

    // A live prober always has a timer armed; once it has concluded, the
    // CP host's wheel runs empty.
    let deadline = Instant::now() + Duration::from_secs(10);
    while cps.next_deadline().is_some() && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    let cp = cps.join().probers.remove(0);
    let device = device.join();
    assert!(
        device.devices[0].probes_received > 3,
        "device barely probed"
    );

    let verdict = cp.verdict.expect("CP never noticed the crash");
    assert!(
        verdict.at >= SimTime::from_secs_f64(0.5),
        "verdict before the crash"
    );
    assert!(cp.stats.cycles_succeeded > 3);
}

#[test]
fn udp_cp_survives_garbage_datagrams() {
    // A hostile or buggy peer sprays garbage at the CP's socket; the codec
    // must drop it and the protocol proceed unharmed.
    let mut cfg = DcppConfig::paper_default();
    cfg.delta_min = SimDuration::from_millis(10);
    cfg.d_min = SimDuration::from_millis(30);
    cfg.cycle = ProbeCycleConfig::paper_default();

    let (device, cps, cp_local) = serve_pair(
        DeviceHost::Dcpp(presence::core::DcppDevice::new(DeviceId(0), cfg)),
        None,
        vec![Box::new(DcppCp::new(CpId(0), cfg))],
    );

    // Garbage sprayer.
    let noise = std::net::UdpSocket::bind("127.0.0.1:0").expect("noise socket");
    for i in 0..200u8 {
        let _ = noise.send_to(&[0xff, i, i, i, i, i], cp_local);
        if i % 50 == 0 {
            thread::sleep(Duration::from_millis(10));
        }
    }

    thread::sleep(Duration::from_millis(400));
    let cps = cps.join();
    let _ = device.join();
    let cp = &cps.probers[0];
    assert!(
        cp.verdict.is_none(),
        "garbage datagrams tricked the CP into a verdict"
    );
    assert!(
        cp.stats.cycles_succeeded >= 5,
        "garbage stalled the protocol: {} cycles",
        cp.stats.cycles_succeeded
    );
    assert_eq!(cps.stats.decode_errors, 200, "garbage not all counted");
}
