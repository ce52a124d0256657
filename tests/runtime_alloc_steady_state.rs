//! Allocation regression gate for the serving host: the sharded UDP
//! loop must not touch the heap once warm.
//!
//! The runtime twin of `alloc_steady_state.rs`, with the same mechanics:
//! its own test binary with a counting `#[global_allocator]` and exactly
//! one `#[test]`, so no concurrent test can pollute the counter. A
//! one-shard device host and a one-shard CP host serve 64 DCPP pairs over
//! loopback on the wall clock. After a warm-up (socket buffers, timer-wheel
//! and hash-map capacity, the send arena and action scratch at their
//! high-water marks) the allocation counter is read around windows of at
//! least 10k datagrams each, sampling only `HostHandle::stats()`, which
//! does not allocate. Every per-datagram step — recv into a stack buffer,
//! decode, machine step, timer wheel, `encode_into` the reused arena,
//! send — must hold that line.

use presence::core::{CpId, DcppConfig, DcppCp, DcppDevice, DeviceId};
use presence::des::{SimDuration, SimTime};
use presence::runtime::{Clock, DeviceHost, HostConfig, HostHandle, ShardedHost, SystemClock};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts every allocation and reallocation (frees never grow the heap).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// with no aliasing or layout obligations of its own.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const PAIRS: u32 = 64;
const WINDOW_DATAGRAMS: u64 = 10_000;

/// Datagrams received by both hosts so far.
fn received(a: &HostHandle, b: &HostHandle) -> u64 {
    a.stats().datagrams_received + b.stats().datagrams_received
}

/// Sleeps until both hosts together received `count` more datagrams.
fn serve(a: &HostHandle, b: &HostHandle, count: u64) -> u64 {
    let start = received(a, b);
    let guard = Instant::now() + Duration::from_secs(60);
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let delta = received(a, b) - start;
        if delta >= count {
            return delta;
        }
        assert!(
            Instant::now() < guard,
            "hosts moved only {delta} datagrams in 60 s"
        );
    }
}

#[test]
fn steady_state_shard_loop_is_allocation_free() {
    // Fast closed-loop cycles (d_min 10 ms) with a TOF long enough that a
    // descheduled shard does not retransmit to a live device.
    let mut cfg = DcppConfig::paper_default();
    cfg.delta_min = SimDuration::from_millis(1);
    cfg.d_min = SimDuration::from_millis(10);
    cfg.cycle.tof = SimDuration::from_millis(250);
    cfg.cycle.tos = SimDuration::from_millis(250);

    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    let mut devices = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind devices");
    for d in 0..PAIRS {
        devices.add_device(DeviceHost::Dcpp(DcppDevice::new(DeviceId(d), cfg)), None);
    }
    let mut cps = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind cps");
    for d in 0..PAIRS {
        cps.add_prober(
            Box::new(DcppCp::new(CpId(d), cfg)),
            devices.addr_of(DeviceId(d)),
            DeviceId(d),
            SimTime::from_nanos(u64::from(d) * 100_000),
        );
    }
    let dev_handle = devices.start(Arc::clone(&clock));
    let cp_handle = cps.start(clock);

    // Warm-up: more than one TOF of serving, so the timer wheel's stale
    // entries reach their steady population.
    serve(&dev_handle, &cp_handle, 2 * WINDOW_DATAGRAMS);

    // As in `alloc_steady_state.rs`, the libtest harness keeps threads of
    // its own that may allocate at any moment; gating on the quietest of
    // several windows filters that out, while an allocation on the
    // per-datagram (or per-cycle) path shows up in every window,
    // thousands of times.
    let mut min_delta = u64::MAX;
    let mut datagrams = 0;
    for _ in 0..3 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        datagrams += serve(&dev_handle, &cp_handle, WINDOW_DATAGRAMS);
        min_delta = min_delta.min(ALLOCATIONS.load(Ordering::Relaxed) - before);
    }

    let cp_report = cp_handle.join();
    let dev_report = dev_handle.join();
    assert_eq!(
        min_delta, 0,
        "every window of ≥ {WINDOW_DATAGRAMS} datagrams allocated (≥ {min_delta} \
         times; {datagrams} datagrams in all): the shard loop is supposed to \
         be allocation-free — stack receive buffer, reused action scratch, \
         reused send arena"
    );
    assert_eq!(cp_report.stats.dropped() + dev_report.stats.dropped(), 0);
    for p in &cp_report.probers {
        assert!(p.verdict.is_none(), "false absence verdict for {:?}", p.cp);
    }
}
