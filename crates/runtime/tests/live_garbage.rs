//! Garbage input against a live shard: generated batches of hostile
//! datagrams hit one running one-shard host serving `DeviceId(0)`. The
//! shard must never panic and must count every datagram exactly once —
//! as a decode error or as a received datagram (which it then answers,
//! routes, or counts as unroutable).
//!
//! One host serves every case, so state a batch leaves behind meets the
//! next batch; the cases are driven by `proptest::run_cases` rather than
//! `proptest!` so the host outlives them and is joined at the end.

use presence_core::{Bye, CpId, DeviceId, LeaveNotice, Probe, Reply, ReplyBody, WireMessage};
use presence_des::SimDuration;
use presence_runtime::codec::{encode, encode_addressed, MAX_DATAGRAM};
use presence_runtime::{DeviceHost, HostConfig, HostHandle, ShardedHost, SystemClock};
use proptest::prelude::*;
use std::net::UdpSocket;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A well-formed frame: a probe to the served device or to one the host
/// does not serve, a reply for a CP the host does not run, or a bye or
/// leave notice nobody here watches.
fn valid_frame() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        (0u32..4, any::<u32>(), any::<u64>()).prop_map(|(dev, cp, seq)| {
            encode_addressed(
                DeviceId(dev),
                &WireMessage::Probe(Probe { cp: CpId(cp), seq }),
            )
        }),
        (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(cp, seq, wait)| {
            encode(&WireMessage::Reply(Reply {
                probe: Probe { cp: CpId(cp), seq },
                device: DeviceId(0),
                body: ReplyBody::Dcpp {
                    wait: SimDuration::from_nanos(wait),
                },
            }))
        }),
        (0u32..4).prop_map(|d| encode(&WireMessage::Bye(Bye {
            device: DeviceId(d)
        }))),
        (0u32..4, any::<u32>()).prop_map(|(d, r)| {
            encode_addressed(
                DeviceId(0),
                &WireMessage::LeaveNotice(LeaveNotice {
                    device: DeviceId(d),
                    reporter: CpId(r),
                }),
            )
        }),
    ]
}

/// One hostile datagram: random bytes (empty up to past the receive
/// buffer), a valid frame, or a valid frame truncated or with one byte
/// corrupted.
fn datagram() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..MAX_DATAGRAM + 64),
        valid_frame(),
        (valid_frame(), any::<u64>()).prop_map(|(mut f, cut)| {
            f.truncate((cut % f.len() as u64) as usize);
            f
        }),
        (valid_frame(), any::<u64>(), 1u8..=255).prop_map(|(mut f, pos, flip)| {
            let idx = (pos % f.len() as u64) as usize;
            f[idx] ^= flip;
            f
        }),
    ]
}

/// Datagrams the host has counted, one way or the other.
fn counted(handle: &HostHandle) -> u64 {
    let s = handle.stats();
    s.decode_errors + s.datagrams_received
}

#[test]
fn live_shard_counts_every_garbage_datagram() {
    let mut host = ShardedHost::bind(&HostConfig::loopback(1)).expect("bind host");
    host.add_device(DeviceHost::dcpp_paper(DeviceId(0)), None);
    let addr = host.addr_of(DeviceId(0));
    let handle = host.start(Arc::new(SystemClock::new()));
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind sender");
    let batches = prop::collection::vec(datagram(), 1..=64);

    let mut sent = 0u64;
    proptest::run_cases(
        "live_shard_counts_every_garbage_datagram",
        &ProptestConfig::default(),
        |rng| {
            let batch = batches.generate(rng);
            for d in &batch {
                sock.send_to(d, addr).expect("send");
            }
            sent += batch.len() as u64;
            let deadline = Instant::now() + Duration::from_secs(5);
            while counted(&handle) < sent && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
            prop_assert_eq!(counted(&handle), sent, "datagrams lost or double-counted");
            Ok(())
        },
    );

    let report = handle.join();
    assert_eq!(
        report.stats.decode_errors + report.stats.datagrams_received,
        sent
    );
}
