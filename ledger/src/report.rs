//! Result records, the metric tables `BENCHMARK.json` must agree with,
//! and the output format: human-readable lines, one detail JSON line, and
//! the final result line.

use crate::sys::{json_string, Fingerprint};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// `(name, unit, better)` of every end-to-end metric. Each workload
/// reports each one; the timed run (`--trace 0`) prints them.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("events_per_s", "1/s", "higher"),
    ("dgrams_per_s", "1/s", "higher"),
    ("cpu_us_per_dgram", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// `(name, unit, better)` of every per-layer metric, printed by the traced
/// run (`--trace 1`). A layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("des.events", "count", "lower"),
    ("des.dispatches", "count", "lower"),
    ("des.timer_arms", "count", "lower"),
    ("des.timer_cancels", "count", "lower"),
    ("des.timer_fires", "count", "lower"),
    ("des.queue_ns_per_op", "ns", "lower"),
    ("net.samples", "count", "lower"),
    ("net.sample_ns", "ns", "lower"),
    ("core.step_ns", "ns", "lower"),
    ("sim.run_s", "s", "lower"),
    ("sim.collect_s", "s", "lower"),
    ("sim.events_per_delivered_msg", "ratio", "lower"),
    ("sim.allocs_per_event", "ratio", "lower"),
    ("region.windows", "count", "lower"),
    ("region.barrier_exchanges", "count", "lower"),
    ("region.events_per_window", "ratio", "higher"),
    ("region.relays", "count", "lower"),
    ("region.ns_per_window", "ns", "lower"),
    ("runtime.dgrams_per_iteration", "ratio", "higher"),
    ("runtime.ctx_switches_per_dgram", "ratio", "lower"),
    ("runtime.codec_ns_per_dgram", "ns", "lower"),
    ("runtime.wheel_ns_per_op", "ns", "lower"),
    ("runtime.allocs_per_dgram", "ratio", "lower"),
    ("runtime.lost", "count", "lower"),
    ("runtime.retx_live", "count", "lower"),
    ("runtime.false_verdicts", "count", "lower"),
    ("runtime.timers_fired", "count", "lower"),
    ("runtime.detect_excess_ms", "ms", "lower"),
    ("model.residual_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
];

/// One figure with its unit and the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// One correctness check and what it saw.
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything one invocation measured and checked.
pub struct Outcome {
    pub checks: Vec<Check>,
    /// Operations attempted and failed: scenario runs for the sims,
    /// probes for the host (see each workload's definition).
    pub attempted: u64,
    pub failed: u64,
    /// The gated metrics of this mode: every [`END_TO_END`] entry in a
    /// timed run, every [`PER_LAYER`] entry in a traced run.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed beside the gated ones.
    pub detail: Vec<Metric>,
}

impl Outcome {
    pub fn new() -> Self {
        Self {
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            detail: Vec::new(),
        }
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed,
            detail: detail.into(),
        });
    }

    pub fn metric(&mut self, name: &'static str, value: f64, samples: u64) {
        let unit = unit_of(name);
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.detail.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Fills a traced run's metrics from `layers`, in table order; layers
    /// the workload did not set read 0.
    pub fn per_layer(&mut self, layers: &BTreeMap<&'static str, (f64, u64)>) {
        for &(name, unit, _) in PER_LAYER {
            let (value, samples) = layers.get(name).copied().unwrap_or((0.0, 0));
            self.metrics.push(Metric {
                name,
                value,
                unit,
                samples,
            });
        }
    }

    /// Fails the run when a figure could not be measured (NaN or
    /// infinite, e.g. no `/proc` or no samples).
    pub fn check_measured(&mut self) {
        let missing: Vec<&str> = self
            .metrics
            .iter()
            .chain(&self.detail)
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name)
            .collect();
        self.check(
            "figures measured",
            missing.is_empty(),
            if missing.is_empty() {
                "every figure is a finite number".to_string()
            } else {
                format!("not measurable: {missing:?}")
            },
        );
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Prints the report; the last line is the result object.
    pub fn print(&self, workload: &str, seed: u64, trace: bool, fingerprint: &Fingerprint) {
        for c in &self.checks {
            let verdict = if c.passed { "ok  " } else { "FAIL" };
            println!("check  {verdict} {}: {}", c.name, c.detail);
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_frac = {frac:.6} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        for (kind, list) in [("metric", &self.metrics), ("detail", &self.detail)] {
            for m in list {
                println!(
                    "{kind} {:<32} {:>16.6} {:<6} (n={})",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        let entries = |list: &[Metric], with_samples: bool| {
            list.iter()
                .map(|m| {
                    let samples = if with_samples {
                        format!(", \"samples\": {}", m.samples)
                    } else {
                        String::new()
                    };
                    format!(
                        "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                        json_string(m.name),
                        number(m.value),
                        json_string(m.unit)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!(
            "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"fingerprint\": {}, \
             \"fail_frac\": {}, \"metrics\": {{{}}}, \"detail\": {{{}}}}}",
            json_string(workload),
            fingerprint.to_json(),
            number(frac),
            entries(&self.metrics, true),
            entries(&self.detail, true)
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            entries(&self.metrics, false)
        );
    }
}

/// A JSON number; a non-finite value (a measurement that could not be
/// made) prints as -1 and the caller's checks already failed the run.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .map_or_else(|| panic!("metric {name} is in no table"), |&(_, u, _)| u)
}

#[derive(Deserialize)]
struct MetricSpec {
    name: String,
    unit: String,
    better: String,
}

#[derive(Deserialize)]
struct BenchmarkFile {
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

/// Checks that `BENCHMARK.json` lists exactly the metrics this program
/// prints, with the same units and directions.
pub fn check_benchmark_file(text: &str) -> Result<(), String> {
    let file: BenchmarkFile =
        serde_json::from_str(text).map_err(|e| format!("BENCHMARK.json unparseable: {e}"))?;
    for (kind, listed, table) in [
        ("end_to_end", &file.end_to_end, END_TO_END),
        ("per_layer", &file.per_layer, PER_LAYER),
    ] {
        let listed: Vec<(&str, &str, &str)> = listed
            .iter()
            .map(|m| (m.name.as_str(), m.unit.as_str(), m.better.as_str()))
            .collect();
        if listed != table {
            return Err(format!(
                "BENCHMARK.json {kind} differs from the metrics this program prints: {table:?}"
            ));
        }
    }
    Ok(())
}

/// The samples of one timed run, plus the set-ups spread over it.
///
/// Samples fall into classes of like work: one scenario of a round, one
/// slice of a mega run, one window of a served run. Contention on a shared
/// machine only ever slows a sample down. On the 2-core box this was built
/// on, stretches of seconds to about 20 s ran at 0.55–0.65 of full speed,
/// so a median read whichever speed a run landed in. Each class therefore
/// keeps its best sample (the per-scenario best-of `perf_report` used
/// before), and the gated rates are the run's totals as they would be
/// with every class at its best. `setup_s` is the median set-up.
#[derive(Default)]
pub struct Samples {
    classes: Vec<Class>,
    setups: Vec<f64>,
}

/// Totals and best sample of one class.
#[derive(Clone, Copy)]
struct Class {
    events: u64,
    messages: u64,
    samples: u64,
    best_event_rate: f64,
    best_message_rate: f64,
    best_cpu_us_per_message: f64,
}

impl Samples {
    /// One sample of `class`: what it processed in `wall` seconds using
    /// `cpu` seconds of process CPU time.
    pub fn push(&mut self, class: usize, events: u64, messages: u64, wall: f64, cpu: f64) {
        if self.classes.len() <= class {
            self.classes.resize(
                class + 1,
                Class {
                    events: 0,
                    messages: 0,
                    samples: 0,
                    best_event_rate: 0.0,
                    best_message_rate: 0.0,
                    best_cpu_us_per_message: f64::INFINITY,
                },
            );
        }
        let c = &mut self.classes[class];
        c.events += events;
        c.messages += messages;
        c.samples += 1;
        c.best_event_rate = c.best_event_rate.max(events as f64 / wall);
        c.best_message_rate = c.best_message_rate.max(messages as f64 / wall);
        if messages > 0 {
            c.best_cpu_us_per_message = c.best_cpu_us_per_message.min(cpu * 1e6 / messages as f64);
        }
    }

    /// Times one set-up.
    pub fn setup<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let built = build();
        self.add_setup(t.elapsed().as_secs_f64());
        built
    }

    /// Records one set-up that took `seconds`.
    pub fn add_setup(&mut self, seconds: f64) {
        self.setups.push(seconds);
    }

    /// Adds `setup_s`, `events_per_s`, `dgrams_per_s` and
    /// `cpu_us_per_dgram`.
    pub fn report(mut self, out: &mut Outcome) {
        // Total work over the time it takes with every class at its best.
        let rate = |work: fn(&Class) -> u64, best: fn(&Class) -> f64| {
            let (total, time) = self
                .classes
                .iter()
                .filter(|c| work(c) > 0)
                .fold((0.0, 0.0), |(n, t), c| {
                    (n + work(c) as f64, t + work(c) as f64 / best(c))
                });
            total / time
        };
        let messages: u64 = self.classes.iter().map(|c| c.messages).sum();
        let cpu_us: f64 = self
            .classes
            .iter()
            .filter(|c| c.messages > 0)
            .map(|c| c.messages as f64 * c.best_cpu_us_per_message)
            .sum();
        let samples = self.classes.iter().map(|c| c.samples).sum();
        let setups = self.setups.len() as u64;
        out.metric("setup_s", median(&mut self.setups), setups);
        out.metric(
            "events_per_s",
            rate(|c| c.events, |c| c.best_event_rate),
            samples,
        );
        out.metric(
            "dgrams_per_s",
            rate(|c| c.messages, |c| c.best_message_rate),
            samples,
        );
        out.metric("cpu_us_per_dgram", cpu_us / messages as f64, messages);
    }
}

/// Median of `values` (which it sorts); NaN when empty.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values` (which it sorts);
/// NaN when empty.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}
