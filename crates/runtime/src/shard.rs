//! The sharded presence host: a multi-socket UDP event loop serving many
//! device and prober machines from a fixed pool of worker threads.
//!
//! [`ShardedHost`] is the one way the runtime serves the protocol machines,
//! from a single demo pair up to the paper's thousands of devices. It
//! hashes machines across `RUNTIME_SHARDS` worker threads. Each shard owns
//! exactly one UDP socket (no cross-thread socket contention), a
//! [`TimerWheel`] keyed by `(machine, token)`, and a send arena. Each loop
//! iteration drains up to a batch of datagrams non-blockingly and routes
//! each through the [`codec`](crate::codec), then fires every timer now
//! due, flushes the queued sends and republishes its earliest deadline.
//! Then it blocks until a datagram arrives or that deadline comes,
//! whichever is first, but never longer than
//! [`HostConfig::poll_interval`]. The wait is `ppoll(2)` on the shard's
//! socket (`sys.rs`, the crate's only `unsafe`).
//!
//! The order within an iteration follows what ended the wait. A datagram
//! arrived before the next deadline, so the socket is drained first: a
//! reply that reached it while the shard was off its core (and is among
//! the pass's `recv_batch` datagrams) is handled before the timeout it
//! answers can fire, and the stall does not turn an answered probe into a
//! retransmission. A wait that ran out found the socket empty at its
//! deadline, so the timers due then fire before anything received since
//! (the first iteration counts as such a wait). The steady loop allocates
//! nothing: the receive buffer is a stack array, the
//! action scratch is reused, and sends are encoded back to back into one
//! reused arena ([`crate::codec::encode_into`]).
//!
//! Routing on a shared socket:
//!
//! * probes travel in the device-addressed `0x06` frame
//!   ([`crate::codec::encode_addressed`]) — the shard looks the target
//!   device up by id;
//! * replies travel bare and route by `reply.probe.cp`;
//! * `Bye`/`LeaveNotice` route to every hosted prober watching the named
//!   device.
//!
//! Everything the host drops is counted ([`ShardCounters`]), never
//! silently lost, mirroring `FabricStats` in the simulator's network
//! fabric. The counters double as the conformance controller's quiescence
//! instrument: `loop_iterations` proves a shard completed full
//! drain-and-fire passes, `activity()` proves those passes found nothing
//! to do.

use crate::clock::Clock;
use crate::codec::{decode_datagram, encode_addressed_into, encode_into, Datagram, MAX_DATAGRAM};
use crate::stats::{ShardCounters, ShardStats, NO_DEADLINE};
use crate::sys;
use crate::wheel::TimerWheel;
use presence_core::{
    CpAction, CpId, CpStats, DcppConfig, DcppDevice, DeviceId, Probe, Prober, Reply, SappDevice,
    SappDeviceConfig, TimerToken, Verdict, WireMessage,
};
use presence_des::SimTime;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Configuration of a [`ShardedHost`].
///
/// A shard never retries a send: when `send_to` fails (a full socket
/// buffer, an unreachable peer) the datagram is shed and counted in
/// [`ShardCounters::dropped_sendpressure`]. The protocol's own
/// retransmission is the retry — a CP whose probe or reply is lost probes
/// again after its timeout, exactly as over a lossy network.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Worker threads (= sockets). Machines are hashed across shards by
    /// id.
    pub shards: usize,
    /// Bind address for every shard socket (use port `0` to let the OS
    /// pick distinct ports).
    pub bind: String,
    /// Maximum datagrams drained from the socket per loop iteration.
    pub recv_batch: usize,
    /// The longest single wait of a shard between loop iterations. A
    /// shard wakes as soon as a datagram arrives or its next timer is
    /// due; this cap only bounds how late it notices the stop flag, and
    /// how often it re-reads a clock that moves on its own (a
    /// [`ManualClock`](crate::ManualClock) set by another thread).
    pub poll_interval: Duration,
}

impl HostConfig {
    /// Loopback defaults: shard count from the `RUNTIME_SHARDS`
    /// environment variable (falling back to available parallelism,
    /// capped at 4), OS-assigned ports.
    #[must_use]
    pub fn default_loopback() -> Self {
        Self {
            shards: shards_from_env(),
            bind: "127.0.0.1:0".to_string(),
            recv_batch: 64,
            poll_interval: Duration::from_millis(1),
        }
    }

    /// Like [`HostConfig::default_loopback`] with an explicit shard
    /// count.
    #[must_use]
    pub fn loopback(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            ..Self::default_loopback()
        }
    }
}

/// The shard count the environment asks for: `RUNTIME_SHARDS` if set and
/// parseable, else available parallelism capped at 4.
#[must_use]
pub fn shards_from_env() -> usize {
    std::env::var("RUNTIME_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1)
        })
}

/// The shard serving the machine with this device or CP id, out of
/// `shards`. The one home of the hashing rule: [`ShardedHost`] places
/// machines with it and [`HostHandle::addr_of`] finds them with it.
fn shard_of(id: u32, shards: usize) -> usize {
    id as usize % shards
}

/// Cooperative shutdown flag shared by a host's shard threads and its
/// handle.
#[derive(Debug, Clone, Default)]
struct StopFlag(Arc<AtomicBool>);

impl StopFlag {
    fn stop(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    fn is_stopped(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A device machine a [`ShardedHost`] serves.
pub enum DeviceHost {
    /// A SAPP device.
    Sapp(SappDevice),
    /// A DCPP device.
    Dcpp(DcppDevice),
}

impl DeviceHost {
    /// A DCPP device with paper-default configuration.
    #[must_use]
    pub fn dcpp_paper(id: DeviceId) -> Self {
        DeviceHost::Dcpp(DcppDevice::new(id, DcppConfig::paper_default()))
    }

    /// A SAPP device with paper-default configuration.
    #[must_use]
    pub fn sapp_paper(id: DeviceId) -> Self {
        DeviceHost::Sapp(SappDevice::new(id, SappDeviceConfig::paper_default()))
    }

    /// Probes answered so far.
    #[must_use]
    pub fn probes_received(&self) -> u64 {
        match self {
            DeviceHost::Sapp(d) => d.probes_received(),
            DeviceHost::Dcpp(d) => d.probes_received(),
        }
    }

    /// The device's identity.
    #[must_use]
    pub fn id(&self) -> DeviceId {
        match self {
            DeviceHost::Sapp(d) => d.id(),
            DeviceHost::Dcpp(d) => d.id(),
        }
    }

    /// Answers one probe, whichever protocol the device speaks.
    pub fn on_probe(&mut self, now: SimTime, probe: Probe) -> Reply {
        match self {
            DeviceHost::Sapp(d) => d.on_probe(now, probe),
            DeviceHost::Dcpp(d) => d.on_probe(now, probe),
        }
    }
}

/// Timer-wheel key for one shard: which machine, which timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum WheelKey {
    /// Start the prober with this CP id.
    StartProber(u32),
    /// A protocol timer armed by the prober with this CP id.
    ProberTimer(u32, TimerToken),
    /// Silence (depart) the device with this id.
    SilenceDevice(u32),
}

struct DeviceSlot {
    host: DeviceHost,
    /// A silenced device models departure: probes to it are dropped.
    silenced: bool,
}

struct ProberSlot {
    prober: Box<dyn Prober + Send>,
    /// Where this prober's target device is served.
    peer: SocketAddr,
    /// The device the prober watches (for the addressed probe frame).
    target: DeviceId,
    started: bool,
}

/// Final state of one hosted prober.
#[derive(Debug, Clone)]
pub struct ProberReport {
    /// The prober's identity.
    pub cp: CpId,
    /// Terminal absence verdict, if reached.
    pub verdict: Option<Verdict>,
    /// Probe-cycle statistics.
    pub stats: CpStats,
}

/// Final state of one hosted device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceReport {
    /// The device's identity.
    pub device: DeviceId,
    /// Probes it answered.
    pub probes_received: u64,
}

/// Everything a finished host hands back.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Hosted probers, sorted by CP id.
    pub probers: Vec<ProberReport>,
    /// Hosted devices, sorted by device id.
    pub devices: Vec<DeviceReport>,
    /// Summed counters across shards.
    pub stats: ShardStats,
    /// Per-shard counters.
    pub per_shard: Vec<ShardStats>,
}

/// Datagrams queued for the end of a loop iteration, encoded back to
/// back into one reused byte arena.
#[derive(Default)]
struct Outbox {
    bytes: Vec<u8>,
    frames: Vec<(SocketAddr, Range<usize>)>,
}

impl Outbox {
    fn push(&mut self, dest: SocketAddr, encode: impl FnOnce(&mut Vec<u8>)) {
        let start = self.bytes.len();
        encode(&mut self.bytes);
        self.frames.push((dest, start..self.bytes.len()));
    }
}

/// One worker: socket, machines, wheel, counters.
struct Shard {
    socket: UdpSocket,
    counters: Arc<ShardCounters>,
    devices: HashMap<u32, DeviceSlot>,
    probers: HashMap<u32, ProberSlot>,
    wheel: TimerWheel<WheelKey>,
    recv_batch: usize,
    poll_interval: Duration,
    /// Reused action scratch for every machine call.
    actions: Vec<CpAction>,
    outbox: Outbox,
}

impl Shard {
    /// Publishes the earliest armed deadline for controllers and returns
    /// it.
    fn publish_deadline(&mut self) -> Option<SimTime> {
        let next = self.wheel.next_deadline();
        self.counters.next_deadline_nanos.store(
            next.map_or(NO_DEADLINE, SimTime::as_nanos),
            Ordering::Release,
        );
        next
    }

    /// Executes one prober's pending actions. Timers arm relative to
    /// `emitted_at`, the `now` the prober computed them against: a fresh
    /// clock read (after a slow send, or under load) would drift every
    /// deadline late by the handling latency.
    fn execute(&mut self, cp: u32, emitted_at: SimTime, actions: &mut Vec<CpAction>) {
        for action in actions.drain(..) {
            match action {
                CpAction::SendProbe(p) => {
                    let slot = &self.probers[&cp];
                    self.outbox.push(slot.peer, |buf| {
                        encode_addressed_into(slot.target, &WireMessage::Probe(p), buf);
                    });
                }
                CpAction::StartTimer { token, after } => {
                    self.wheel
                        .insert(WheelKey::ProberTimer(cp, token), emitted_at + after);
                }
                CpAction::CancelTimer { token } => {
                    self.wheel.cancel(WheelKey::ProberTimer(cp, token));
                }
                // Verdicts are read back from `Prober::verdict()` at
                // report time.
                CpAction::DeviceAbsent { .. } => {}
            }
        }
    }

    fn fire_due(&mut self, now: SimTime) {
        let mut fired = 0;
        let mut actions = std::mem::take(&mut self.actions);
        while let Some((key, _at)) = self.wheel.pop_due(now) {
            fired += 1;
            match key {
                WheelKey::StartProber(cp) => {
                    if let Some(slot) = self.probers.get_mut(&cp) {
                        slot.started = true;
                        slot.prober.start(now, &mut actions);
                        self.execute(cp, now, &mut actions);
                    }
                }
                WheelKey::ProberTimer(cp, token) => {
                    if let Some(slot) = self.probers.get_mut(&cp) {
                        if !slot.prober.is_stopped() {
                            slot.prober.on_timer(now, token, &mut actions);
                            self.execute(cp, now, &mut actions);
                        }
                    }
                }
                WheelKey::SilenceDevice(dev) => {
                    if let Some(slot) = self.devices.get_mut(&dev) {
                        slot.silenced = true;
                    }
                }
            }
        }
        self.actions = actions;
        self.counters
            .timers_fired
            .fetch_add(fired, Ordering::Release);
    }

    fn handle_datagram(&mut self, now: SimTime, buf: &[u8], from: SocketAddr) {
        let datagram = match decode_datagram(buf) {
            Ok(d) => d,
            Err(_) => {
                self.counters.decode_errors.fetch_add(1, Ordering::Release);
                return;
            }
        };
        self.counters
            .datagrams_received
            .fetch_add(1, Ordering::Release);
        let mut actions = std::mem::take(&mut self.actions);
        match datagram {
            Datagram::Addressed(device, WireMessage::Probe(probe)) => {
                match self.devices.get_mut(&device.0) {
                    Some(slot) if slot.silenced => {
                        self.counters
                            .dropped_departed
                            .fetch_add(1, Ordering::Release);
                    }
                    Some(slot) => {
                        let reply = slot.host.on_probe(now, probe);
                        self.outbox
                            .push(from, |buf| encode_into(&WireMessage::Reply(reply), buf));
                    }
                    None => {
                        self.counters.unroutable.fetch_add(1, Ordering::Release);
                    }
                }
            }
            Datagram::Direct(WireMessage::Reply(reply)) => {
                let cp = reply.probe.cp.0;
                match self.probers.get_mut(&cp) {
                    Some(slot) if slot.started && !slot.prober.is_stopped() => {
                        slot.prober.on_reply(now, &reply, &mut actions);
                        self.execute(cp, now, &mut actions);
                    }
                    Some(_) => {}
                    None => {
                        self.counters.unroutable.fetch_add(1, Ordering::Release);
                    }
                }
            }
            Datagram::Direct(WireMessage::Bye(bye))
            | Datagram::Addressed(_, WireMessage::Bye(bye)) => {
                let watching: Vec<u32> = self
                    .probers
                    .iter()
                    .filter(|(_, s)| s.target == bye.device && s.started && !s.prober.is_stopped())
                    .map(|(&cp, _)| cp)
                    .collect();
                for cp in watching {
                    if let Some(slot) = self.probers.get_mut(&cp) {
                        slot.prober.on_bye(now, &mut actions);
                    }
                    self.execute(cp, now, &mut actions);
                }
            }
            Datagram::Direct(WireMessage::LeaveNotice(notice))
            | Datagram::Addressed(_, WireMessage::LeaveNotice(notice)) => {
                let watching: Vec<u32> = self
                    .probers
                    .iter()
                    .filter(|(_, s)| {
                        s.target == notice.device && s.started && !s.prober.is_stopped()
                    })
                    .map(|(&cp, _)| cp)
                    .collect();
                for cp in watching {
                    if let Some(slot) = self.probers.get_mut(&cp) {
                        slot.prober.on_leave_notice(now, &mut actions);
                    }
                    self.execute(cp, now, &mut actions);
                }
            }
            // A bare probe has no target on a shared socket; an addressed
            // reply makes no sense either.
            Datagram::Direct(WireMessage::Probe(_)) | Datagram::Addressed(_, _) => {
                self.counters.unroutable.fetch_add(1, Ordering::Release);
            }
        }
        self.actions = actions;
    }

    /// Receives up to a batch of datagrams without blocking.
    fn drain(&mut self, clock: &dyn Clock) {
        let mut buf = [0u8; MAX_DATAGRAM];
        for _ in 0..self.recv_batch {
            match self.socket.recv_from(&mut buf) {
                Ok((n, from)) => self.handle_datagram(clock.now(), &buf[..n], from),
                // WouldBlock: the socket is empty. Any other error ends
                // the batch too; the next iteration retries.
                Err(_) => break,
            }
        }
    }

    fn flush(&mut self) {
        for (dest, range) in self.outbox.frames.drain(..) {
            match self.socket.send_to(&self.outbox.bytes[range], dest) {
                Ok(_) => {
                    self.counters.datagrams_sent.fetch_add(1, Ordering::Release);
                }
                Err(_) => {
                    self.counters
                        .dropped_sendpressure
                        .fetch_add(1, Ordering::Release);
                }
            }
        }
        self.outbox.bytes.clear();
    }

    fn run(
        mut self,
        clock: Arc<dyn Clock>,
        stop: StopFlag,
    ) -> (Vec<ProberReport>, Vec<DeviceReport>) {
        let mut woken_by_datagram = false;
        while !stop.is_stopped() {
            // Handle events in the order they happened, as far as the
            // shard can tell. A wait that ran out found the socket empty
            // at its deadline, so the timers due now precede anything
            // received since. A wait a datagram ended came before the next
            // deadline, so the socket is drained first: a reply waiting
            // there must cancel its timeout before that is judged due.
            if !woken_by_datagram {
                self.fire_due(clock.now());
            }
            self.drain(&*clock);
            self.fire_due(clock.now());
            self.flush();
            let now = clock.now();
            let wait = self.publish_deadline().map_or(self.poll_interval, |at| {
                Duration::from_nanos(at.saturating_since(now).as_nanos()).min(self.poll_interval)
            });
            // Count the iteration only once its wait is fixed: a
            // controller that sees the count move knows the shard now
            // waits `wait` from this clock reading unless a datagram
            // wakes it first.
            self.counters
                .loop_iterations
                .fetch_add(1, Ordering::Release);
            woken_by_datagram = sys::wait_readable(&self.socket, wait);
        }

        // Unsorted: `HostHandle::join` sorts the reports of all shards.
        let probers = self.probers.into_values().map(|s| ProberReport {
            cp: s.prober.cp(),
            verdict: s.prober.verdict(),
            stats: *s.prober.stats(),
        });
        let devices = self.devices.into_values().map(|s| DeviceReport {
            device: s.host.id(),
            probes_received: s.host.probes_received(),
        });
        (probers.collect(), devices.collect())
    }
}

/// A multi-socket sharded UDP host, configured between [`bind`] and
/// [`start`].
///
/// [`bind`]: ShardedHost::bind
/// [`start`]: ShardedHost::start
pub struct ShardedHost {
    shards: Vec<Shard>,
    addrs: Vec<SocketAddr>,
    counters: Vec<Arc<ShardCounters>>,
}

impl ShardedHost {
    /// Binds one non-blocking UDP socket per shard.
    pub fn bind(config: &HostConfig) -> io::Result<Self> {
        let n = config.shards.max(1);
        let mut shards = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        let mut counters = Vec::with_capacity(n);
        for _ in 0..n {
            let socket = UdpSocket::bind(&config.bind)?;
            socket.set_nonblocking(true)?;
            addrs.push(socket.local_addr()?);
            let c = Arc::new(ShardCounters::new());
            counters.push(Arc::clone(&c));
            shards.push(Shard {
                socket,
                counters: c,
                devices: HashMap::new(),
                probers: HashMap::new(),
                wheel: TimerWheel::new(),
                recv_batch: config.recv_batch.max(1),
                poll_interval: config.poll_interval,
                actions: Vec::new(),
                outbox: Outbox::default(),
            });
        }
        Ok(Self {
            shards,
            addrs,
            counters,
        })
    }

    /// Adds a device machine, optionally scheduling the instant it goes
    /// silent (models departure without deregistration).
    pub fn add_device(&mut self, host: DeviceHost, silence_at: Option<SimTime>) {
        let id = host.id();
        let idx = shard_of(id.0, self.shards.len());
        let shard = &mut self.shards[idx];
        if let Some(at) = silence_at {
            shard.wheel.insert(WheelKey::SilenceDevice(id.0), at);
        }
        shard.devices.insert(
            id.0,
            DeviceSlot {
                host,
                silenced: false,
            },
        );
    }

    /// Adds a prober watching the device `target` served at `peer`,
    /// starting at `start_at` on the host clock.
    pub fn add_prober(
        &mut self,
        prober: Box<dyn Prober + Send>,
        peer: SocketAddr,
        target: DeviceId,
        start_at: SimTime,
    ) {
        let cp = prober.cp();
        let idx = shard_of(cp.0, self.shards.len());
        let shard = &mut self.shards[idx];
        shard.wheel.insert(WheelKey::StartProber(cp.0), start_at);
        shard.probers.insert(
            cp.0,
            ProberSlot {
                prober,
                peer,
                target,
                started: false,
            },
        );
    }

    /// The socket address serving `device` (valid once the device is
    /// added; stable across [`start`](ShardedHost::start)).
    #[must_use]
    pub fn addr_of(&self, device: DeviceId) -> SocketAddr {
        self.addrs[shard_of(device.0, self.addrs.len())]
    }

    /// All shard socket addresses, in shard order.
    #[must_use]
    pub fn local_addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Spawns the shard threads. The host serves until
    /// [`HostHandle::stop`].
    #[must_use]
    pub fn start(mut self, clock: Arc<dyn Clock>) -> HostHandle {
        let stop = StopFlag::default();
        // Publish each shard's seeded deadline BEFORE its thread exists,
        // so a controller sampling immediately after `start` never sees
        // an empty wheel that is about to become non-empty.
        for shard in &mut self.shards {
            shard.publish_deadline();
        }
        let threads = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let clock = Arc::clone(&clock);
                let stop = stop.clone();
                thread::Builder::new()
                    .name(format!("presence-shard-{i}"))
                    .spawn(move || shard.run(clock, stop))
                    .expect("spawn shard thread")
            })
            .collect();
        HostHandle {
            threads,
            counters: self.counters,
            addrs: self.addrs,
            stop,
        }
    }
}

/// A running [`ShardedHost`]: live counters, shutdown, and the final
/// report.
pub struct HostHandle {
    threads: Vec<JoinHandle<(Vec<ProberReport>, Vec<DeviceReport>)>>,
    counters: Vec<Arc<ShardCounters>>,
    addrs: Vec<SocketAddr>,
    stop: StopFlag,
}

impl HostHandle {
    /// The socket address serving `device`.
    #[must_use]
    pub fn addr_of(&self, device: DeviceId) -> SocketAddr {
        self.addrs[shard_of(device.0, self.addrs.len())]
    }

    /// Summed live counters across shards.
    #[must_use]
    pub fn stats(&self) -> ShardStats {
        self.counters
            .iter()
            .fold(ShardStats::default(), |acc, c| acc.merged(c.snapshot()))
    }

    /// Summed activity across shards (see [`ShardCounters::activity`]).
    #[must_use]
    pub fn activity(&self) -> u64 {
        self.counters.iter().map(|c| c.activity()).sum()
    }

    /// Completed loop iterations, per shard.
    #[must_use]
    pub fn iterations(&self) -> Vec<u64> {
        self.counters
            .iter()
            .map(|c| c.loop_iterations.load(Ordering::Acquire))
            .collect()
    }

    /// Earliest armed timer deadline across shards.
    #[must_use]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.counters
            .iter()
            .map(|c| c.next_deadline_nanos.load(Ordering::Acquire))
            .min()
            .filter(|&n| n != NO_DEADLINE)
            .map(SimTime::from_nanos)
    }

    /// Requests shutdown (idempotent).
    pub fn stop(&self) {
        self.stop.stop();
    }

    /// Stops the host and collects the final report.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a shard thread, after every shard has been
    /// joined: the first in shard order, with its original payload.
    #[must_use]
    pub fn join(self) -> HostReport {
        self.stop.stop();
        let mut probers = Vec::new();
        let mut devices = Vec::new();
        let mut first_panic = None;
        for t in self.threads {
            match t.join() {
                Ok((p, d)) => {
                    probers.extend(p);
                    devices.extend(d);
                }
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        probers.sort_by_key(|r| r.cp.0);
        devices.sort_by_key(|r| r.device.0);
        let per_shard: Vec<ShardStats> = self.counters.iter().map(|c| c.snapshot()).collect();
        let stats = per_shard
            .iter()
            .fold(ShardStats::default(), |acc, s| acc.merged(*s));
        HostReport {
            probers,
            devices,
            stats,
            per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{ManualClock, SystemClock};
    use crate::codec::{encode, encode_addressed};
    use presence_core::{DcppConfig, DcppCp, DcppDevice, Reply};
    use presence_des::SimDuration;

    #[test]
    fn sharded_host_serves_dcpp_pairs_over_loopback() {
        // 8 devices on a 2-shard device host, 8 probers on a 2-shard CP
        // host, real clock, tightened waits so cycles complete quickly.
        let mut cfg = DcppConfig::paper_default();
        cfg.delta_min = presence_des::SimDuration::from_millis(5);
        cfg.d_min = presence_des::SimDuration::from_millis(10);

        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let mut devices = ShardedHost::bind(&HostConfig::loopback(2)).unwrap();
        for d in 0..8u32 {
            devices.add_device(DeviceHost::Dcpp(DcppDevice::new(DeviceId(d), cfg)), None);
        }
        let mut cps = ShardedHost::bind(&HostConfig::loopback(2)).unwrap();
        for d in 0..8u32 {
            cps.add_prober(
                Box::new(DcppCp::new(CpId(d), cfg)),
                devices.addr_of(DeviceId(d)),
                DeviceId(d),
                SimTime::from_nanos(u64::from(d) * 1_000_000),
            );
        }
        let dev_handle = devices.start(Arc::clone(&clock));
        let cp_handle = cps.start(Arc::clone(&clock));

        std::thread::sleep(Duration::from_millis(300));
        // Stop the probers first, then let the device side drain whatever
        // is still in flight before counting.
        let cp_report = cp_handle.join();
        let settle = std::time::Instant::now() + Duration::from_secs(2);
        let mut last = dev_handle.activity();
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let now = dev_handle.activity();
            if now == last || std::time::Instant::now() > settle {
                break;
            }
            last = now;
        }
        let dev_report = dev_handle.join();

        let total_probes: u64 = cp_report.probers.iter().map(|p| p.stats.probes_sent).sum();
        let total_received: u64 = dev_report.devices.iter().map(|d| d.probes_received).sum();
        assert!(total_probes >= 8, "probers barely ran: {total_probes}");
        assert_eq!(total_received, total_probes, "probes lost on loopback");
        for p in &cp_report.probers {
            assert!(p.verdict.is_none(), "false absence verdict for {:?}", p.cp);
            assert!(p.stats.cycles_succeeded >= 2, "{:?} too slow", p.cp);
        }
        assert_eq!(cp_report.stats.dropped(), 0);
        assert_eq!(dev_report.stats.dropped(), 0);
        assert_eq!(dev_report.stats.unroutable, 0);
    }

    #[test]
    fn silenced_device_drops_probes_and_cp_concludes_absence() {
        let cfg = DcppConfig::paper_default();
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let mut devices = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        // Silent from the very start.
        devices.add_device(
            DeviceHost::Dcpp(DcppDevice::new(DeviceId(0), cfg)),
            Some(SimTime::ZERO),
        );
        let mut cps = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        cps.add_prober(
            Box::new(DcppCp::new(CpId(0), cfg)),
            devices.addr_of(DeviceId(0)),
            DeviceId(0),
            SimTime::ZERO,
        );
        let dev_handle = devices.start(Arc::clone(&clock));
        let cp_handle = cps.start(Arc::clone(&clock));

        // TOF + 3·TOS = 85 ms with paper defaults; give it slack.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            std::thread::sleep(Duration::from_millis(10));
            let r = cp_handle.stats();
            if r.datagrams_sent >= 4 || std::time::Instant::now() > deadline {
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
        let cp_report = cp_handle.join();
        let dev_report = dev_handle.join();

        let p = &cp_report.probers[0];
        let v = p.verdict.expect("CP never concluded absence");
        assert_eq!(
            v.reason,
            presence_core::AbsenceReason::ProbeTimeout,
            "wrong reason"
        );
        assert_eq!(p.stats.probes_sent, 4, "initial probe + 3 retransmissions");
        assert_eq!(dev_report.stats.dropped_departed, 4);
        assert_eq!(dev_report.devices[0].probes_received, 0);
    }

    #[test]
    fn unroutable_and_garbage_datagrams_are_counted() {
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let mut host = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        host.add_device(DeviceHost::dcpp_paper(DeviceId(0)), None);
        let addr = host.addr_of(DeviceId(0));
        let handle = host.start(clock);

        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        // Garbage.
        sock.send_to(&[0xff, 0x00], addr).unwrap();
        // Probe addressed to a device this host does not serve.
        let stray = encode_addressed(
            DeviceId(99),
            &WireMessage::Probe(presence_core::Probe {
                cp: CpId(1),
                seq: 1,
            }),
        );
        sock.send_to(&stray, addr).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while std::time::Instant::now() < deadline {
            let s = handle.stats();
            if s.decode_errors >= 1 && s.unroutable >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = handle.join();
        assert_eq!(report.stats.decode_errors, 1);
        assert_eq!(report.stats.unroutable, 1);
        assert_eq!(report.stats.dropped(), 0);
    }

    /// A DCPP prober that panics on its first reply.
    struct ExplodingProber(DcppCp);

    impl Prober for ExplodingProber {
        fn cp(&self) -> CpId {
            self.0.cp()
        }
        fn start(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
            self.0.start(now, out);
        }
        fn on_reply(&mut self, _now: SimTime, _reply: &Reply, _out: &mut Vec<CpAction>) {
            panic!("prober exploded on reply");
        }
        fn on_timer(&mut self, now: SimTime, token: TimerToken, out: &mut Vec<CpAction>) {
            self.0.on_timer(now, token, out);
        }
        fn on_bye(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
            self.0.on_bye(now, out);
        }
        fn on_leave_notice(&mut self, now: SimTime, out: &mut Vec<CpAction>) {
            self.0.on_leave_notice(now, out);
        }
        fn stats(&self) -> &CpStats {
            self.0.stats()
        }
        fn is_stopped(&self) -> bool {
            self.0.is_stopped()
        }
        fn verdict(&self) -> Option<Verdict> {
            self.0.verdict()
        }
        fn current_delay(&self) -> Option<SimDuration> {
            self.0.current_delay()
        }
    }

    #[test]
    fn join_resurfaces_a_shard_panic_with_its_message() {
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let mut devices = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
        devices.add_device(DeviceHost::dcpp_paper(DeviceId(0)), None);
        let mut cps = ShardedHost::bind(&HostConfig::loopback(2)).unwrap();
        cps.add_prober(
            Box::new(ExplodingProber(DcppCp::new(
                CpId(1),
                DcppConfig::paper_default(),
            ))),
            devices.addr_of(DeviceId(0)),
            DeviceId(0),
            SimTime::ZERO,
        );
        let dev_handle = devices.start(Arc::clone(&clock));
        let cp_handle = cps.start(clock);

        // The reply is counted just before it reaches the prober, so once
        // the count moves the shard is bound to panic.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cp_handle.stats().datagrams_received == 0 {
            assert!(std::time::Instant::now() < deadline, "no reply arrived");
            thread::sleep(Duration::from_millis(1));
        }
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| cp_handle.join()))
            .expect_err("join must re-raise the shard's panic");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"prober exploded on reply")
        );
        let _ = dev_handle.join();
    }

    /// A clock that advances a fixed step on every read: a heavily loaded
    /// host where real time passes between a machine emitting an action
    /// and the shard executing it.
    struct TickingClock {
        now: std::sync::Mutex<SimTime>,
        step: SimDuration,
    }

    impl Clock for TickingClock {
        fn now(&self) -> SimTime {
            let mut now = self.now.lock().unwrap();
            *now += self.step;
            *now
        }
    }

    /// A prober that arms one 100 ms timer at start and declares absence
    /// the instant it fires, exposing exactly when the shard fired it.
    #[derive(Default)]
    struct OneShotProber {
        stats: CpStats,
        verdict: Option<Verdict>,
    }

    impl Prober for OneShotProber {
        fn cp(&self) -> CpId {
            CpId(0)
        }
        fn start(&mut self, _now: SimTime, out: &mut Vec<CpAction>) {
            out.push(CpAction::StartTimer {
                token: TimerToken(1),
                after: SimDuration::from_millis(100),
            });
        }
        fn on_reply(&mut self, _: SimTime, _: &Reply, _: &mut Vec<CpAction>) {}
        fn on_timer(&mut self, now: SimTime, token: TimerToken, _: &mut Vec<CpAction>) {
            assert_eq!(token, TimerToken(1));
            self.verdict = Some(Verdict {
                at: now,
                reason: presence_core::AbsenceReason::ProbeTimeout,
            });
        }
        fn on_bye(&mut self, _: SimTime, _: &mut Vec<CpAction>) {}
        fn on_leave_notice(&mut self, _: SimTime, _: &mut Vec<CpAction>) {}
        fn stats(&self) -> &CpStats {
            &self.stats
        }
        fn is_stopped(&self) -> bool {
            self.verdict.is_some()
        }
        fn verdict(&self) -> Option<Verdict> {
            self.verdict
        }
        fn current_delay(&self) -> Option<SimDuration> {
            None
        }
    }

    /// A timer arms relative to the `now` its machine was called with,
    /// not to a later clock read. The clock below moves 10 ms per read and
    /// an idle pass reads it three times (fire, fire, wait), so the
    /// prober starts on the first read and its deadline, ten reads later,
    /// lands on a firing read. Arming at a fresh read would move the
    /// deadline, and the firing, one step later.
    #[test]
    fn timers_arm_at_emission_instant_not_drain_instant() {
        let clock = Arc::new(TickingClock {
            now: std::sync::Mutex::new(SimTime::ZERO),
            step: SimDuration::from_millis(10),
        });
        let config = HostConfig {
            poll_interval: Duration::from_micros(200),
            ..HostConfig::loopback(1)
        };
        let peer = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut cps = ShardedHost::bind(&config).unwrap();
        cps.add_prober(
            Box::new(OneShotProber::default()),
            peer.local_addr().unwrap(),
            DeviceId(0),
            SimTime::ZERO,
        );
        let handle = cps.start(clock);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        // The start entry and the prober's one timer.
        while handle.stats().timers_fired < 2 {
            assert!(std::time::Instant::now() < deadline, "timer never fired");
            thread::sleep(Duration::from_millis(1));
        }
        let report = handle.join();

        // The first read, at 10 ms, started the prober.
        let start = SimTime::from_nanos(10_000_000);
        let verdict = report.probers[0].verdict.expect("timer never fired");
        assert_eq!(
            verdict.at,
            start + SimDuration::from_millis(100),
            "deadline drifted: fired at {} s",
            verdict.at.as_secs_f64()
        );
    }

    /// A reply already waiting in the socket is handled before the
    /// timeout it answers is judged due; otherwise a shard kept off its
    /// core past TOF would retransmit to a live device. A [`ManualClock`]
    /// makes that stall exact: the clock jumps past TOF while the shard
    /// waits, then the reply arrives.
    #[test]
    fn reply_in_the_socket_is_drained_before_its_timeout_fires() {
        let mut cfg = DcppConfig::paper_default();
        cfg.cycle.tof = SimDuration::from_secs(10);
        let clock = ManualClock::new();
        let config = HostConfig {
            // Long enough that only a datagram ends the shard's wait.
            poll_interval: Duration::from_secs(60),
            ..HostConfig::loopback(1)
        };
        let device = UdpSocket::bind("127.0.0.1:0").unwrap();
        device
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut cps = ShardedHost::bind(&config).unwrap();
        cps.add_prober(
            Box::new(DcppCp::new(CpId(0), cfg)),
            device.local_addr().unwrap(),
            DeviceId(0),
            SimTime::ZERO,
        );
        let handle = cps.start(Arc::new(clock.clone()));

        // The first iteration starts the prober and sends its probe.
        let mut buf = [0u8; MAX_DATAGRAM];
        let (n, from) = device.recv_from(&mut buf).expect("no probe sent");
        let Ok(Datagram::Addressed(DeviceId(0), WireMessage::Probe(probe))) =
            decode_datagram(&buf[..n])
        else {
            panic!("expected an addressed probe");
        };
        // Once that iteration is counted its wait is fixed from t = 0:
        // ten seconds, to TOF.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.iterations()[0] == 0 {
            assert!(std::time::Instant::now() < deadline, "shard never iterated");
            thread::sleep(Duration::from_millis(1));
        }
        clock.set(SimTime::from_secs_f64(11.0));
        let reply = DcppDevice::new(DeviceId(0), cfg).on_probe(clock.now(), probe);
        device
            .send_to(&encode(&WireMessage::Reply(reply)), from)
            .unwrap();
        while handle.stats().datagrams_received == 0 {
            assert!(std::time::Instant::now() < deadline, "reply never arrived");
            thread::sleep(Duration::from_millis(1));
        }
        let report = handle.join();

        let stats = report.probers[0].stats;
        assert_eq!(stats.probes_sent, 1, "the stall caused a retransmission");
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.cycles_succeeded, 1);
        assert!(report.probers[0].verdict.is_none());
        device.set_nonblocking(true).unwrap();
        assert!(
            device.recv_from(&mut buf).is_err(),
            "a second probe was sent"
        );
    }
}
