//! The one system call std does not wrap: block until a socket is
//! readable or a timeout passes, at the timeout's full resolution.
//! (`set_read_timeout` is no substitute: `SO_RCVTIMEO` counts in
//! scheduler ticks, so a sub-millisecond deadline rounds up to a tick.)

use std::net::UdpSocket;
use std::time::Duration;

#[cfg(target_os = "linux")]
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};

#[cfg(target_os = "linux")]
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[cfg(target_os = "linux")]
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        mask: *const c_void,
    ) -> c_int;
}

/// Blocks until `socket` has a datagram to read or `wait` has passed,
/// whichever comes first. Returns `false` when the wait ran out with the
/// socket still empty. An error (an interrupting signal) returns `true`,
/// an early wake-up: the caller re-checks the socket and its timers.
#[cfg(target_os = "linux")]
pub(crate) fn wait_readable(socket: &UdpSocket, wait: Duration) -> bool {
    use std::os::fd::AsRawFd;
    const POLLIN: c_short = 0x1;
    let mut fd = PollFd {
        fd: socket.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: c_long::try_from(wait.as_secs()).unwrap_or(c_long::MAX),
        // Below 10^9, so it fits a 32-bit `c_long` too.
        tv_nsec: wait.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `timeout` are live values with the C layout of
    // `pollfd` and `timespec` for the whole call, `nfds` = 1 matches the
    // one `pollfd`, and a null mask leaves the signal mask unchanged. The
    // kernel writes only `fd.revents`; the socket outlives the call.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    ready != 0
}

/// Portable fallback: sleep out the wait and report it as run out; a
/// datagram is picked up on the next pass.
#[cfg(not(target_os = "linux"))]
pub(crate) fn wait_readable(_socket: &UdpSocket, wait: Duration) -> bool {
    std::thread::sleep(wait);
    false
}
