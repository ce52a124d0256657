//! The presence benchmark. One invocation runs one named workload:
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <sim-paper|sim-mega|sim-regions|host-fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! from the repository root. `--trace 0` is the timed run: it prints every
//! end-to-end metric. `--trace 1` is the traced run: it prints every
//! per-layer metric, timed from this program around calls into each
//! crate's public API, plus its own overhead. Both run the workload's
//! correctness checks and exit non-zero when one fails. The last line of
//! standard output is the result object; see `ledger/README.md`, which
//! also says why `BENCHMARK.json` lists every workload but `sim-mega`.

mod alloc;
mod fleet;
mod report;
mod sims;
mod sys;

use std::process::ExitCode;

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// The command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: presence-ledger --workload <sim-paper|sim-mega|sim-regions|host-fleet> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad value {value:?} for {flag}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value {value:?} for --trace")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} is outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("presence-ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // BENCHMARK.json names the metrics every run must print: refuse to
    // run when it disagrees with what this program prints.
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json unreadable ({e}); run from the repository root"))
        .and_then(|text| report::check_benchmark_file(&text));
    if let Err(e) = spec {
        eprintln!("presence-ledger: {e}");
        return ExitCode::from(2);
    }
    let fingerprint = sys::Fingerprint::collect();
    println!(
        "presence-ledger: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("fingerprint {}", fingerprint.to_json());
    let mut outcome = match args.workload.as_str() {
        "sim-paper" => sims::paper(&args),
        "sim-mega" => sims::mega(&args),
        "sim-regions" => sims::regions(&args),
        "host-fleet" => fleet::run(&args),
        other => {
            eprintln!("presence-ledger: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.check_measured();
    outcome.print(&args.workload, args.seed, args.trace, &fingerprint);
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("presence-ledger: a correctness check failed");
        ExitCode::FAILURE
    }
}
