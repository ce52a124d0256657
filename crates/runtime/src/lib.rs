//! # presence-runtime
//!
//! Wall-clock runtime for the presence protocols. The *same* sans-io state
//! machines that the simulator drives (`presence-core`) run here against
//! real time and real sockets:
//!
//! * [`codec`] — a compact binary wire format (13-byte probes);
//! * [`ShardedHost`] — the serving host: device and prober machines hashed
//!   across worker threads, each shard with one UDP socket and one
//!   [`TimerWheel`];
//! * [`Clock`] — wall-clock ([`SystemClock`]) or hand-cranked
//!   ([`ManualClock`]) time sources;
//! * [`conformance`] — the DES oracle the host is checked against.
//!
//! Because simulation and deployment share one protocol implementation,
//! the behaviours measured in `presence-sim`'s experiments are the
//! behaviours of the deployable code — the property the paper's
//! MODEST-based methodology argues for ("a trustworthy analysis chain").
//!
//! ```no_run
//! use presence_core::{CpId, DcppConfig, DcppCp, DeviceId};
//! use presence_des::SimTime;
//! use presence_runtime::{Clock, DeviceHost, HostConfig, ShardedHost, SystemClock};
//! use std::sync::Arc;
//!
//! let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
//! // Device side: one shard serving device 0 on an OS-assigned port.
//! let mut devices = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
//! devices.add_device(DeviceHost::dcpp_paper(DeviceId(0)), None);
//! // CP side: one prober watching it from the start.
//! let mut cps = ShardedHost::bind(&HostConfig::loopback(1)).unwrap();
//! cps.add_prober(
//!     Box::new(DcppCp::new(CpId(1), DcppConfig::paper_default())),
//!     devices.addr_of(DeviceId(0)),
//!     DeviceId(0),
//!     SimTime::ZERO,
//! );
//! let devices = devices.start(Arc::clone(&clock));
//! let cps = cps.start(clock);
//! std::thread::sleep(std::time::Duration::from_secs(1));
//! let report = cps.join();
//! assert!(report.probers[0].verdict.is_none(), "device is alive");
//! let _ = devices.join();
//! ```

// `deny`, not `forbid`: `sys` is the one module allowed `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod conformance;

mod clock;
mod shard;
mod stats;
#[allow(unsafe_code)]
mod sys;
mod wheel;

pub use clock::{Clock, ManualClock, SystemClock};
pub use shard::{
    shards_from_env, DeviceHost, DeviceReport, HostConfig, HostHandle, HostReport, ProberReport,
    ShardedHost,
};
pub use stats::{ShardCounters, ShardStats, NO_DEADLINE};
pub use wheel::TimerWheel;
