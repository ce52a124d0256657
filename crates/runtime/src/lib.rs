//! # presence-runtime
//!
//! Wall-clock runtime for the presence protocols. The *same* sans-io state
//! machines that the simulator drives (`presence-core`) run here against
//! real time and real sockets:
//!
//! * [`codec`] — a compact binary wire format (13-byte probes);
//! * [`Transport`] — UDP ([`UdpTransport`]) and in-memory
//!   ([`InMemoryTransport`]) message transports;
//! * [`Clock`] — wall-clock ([`SystemClock`]) or hand-cranked
//!   ([`ManualClock`]) time sources;
//! * [`run_device`] / [`run_cp`] — serve loops hosting a device machine or
//!   a [`presence_core::Prober`].
//!
//! Because simulation and deployment share one protocol implementation,
//! the behaviours measured in `presence-sim`'s experiments are the
//! behaviours of the deployable code — the property the paper's
//! MODEST-based methodology argues for ("a trustworthy analysis chain").
//!
//! ```no_run
//! use presence_core::DeviceId;
//! use presence_runtime::{run_device, DeviceHost, StopFlag, SystemClock, UdpTransport};
//!
//! // Device side (one thread / process):
//! let transport = UdpTransport::server("127.0.0.1:7878").unwrap();
//! let stop = StopFlag::new();
//! run_device(
//!     DeviceHost::dcpp_paper(DeviceId(0)),
//!     transport,
//!     &SystemClock::new(),
//!     &stop,
//! );
//! ```

// `deny`, not `forbid`: `sys` is the one module allowed `unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod conformance;

mod clock;
mod host;
mod shard;
mod stats;
#[allow(unsafe_code)]
mod sys;
mod transport;
mod wheel;

pub use clock::{Clock, ManualClock, SystemClock};
pub use host::{run_cp, run_device, CpOutcome, DeviceHost, StopFlag};
pub use shard::{
    shards_from_env, DeviceReport, HostConfig, HostHandle, HostReport, ProberReport, ShardedHost,
};
pub use stats::{ShardCounters, ShardStats, NO_DEADLINE};
pub use transport::{InMemoryTransport, Transport, UdpTransport};
pub use wheel::TimerWheel;
