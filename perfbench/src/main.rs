//! Front-door benchmark of the CONN workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload segment-closed|mixed-open|live-churn \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the system only through `ConnService` + `Query`, `Admission`
//! and `LiveScene`, all on `ConnConfig::default()`. Every answer is
//! checked outside the timed region. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it is the run record (nproc, commit,
//! scale, seed, counts and the sample count behind every percentile).
//! See `perfbench/README.md` for the workloads and metric definitions.

mod live_churn;
mod mixed_open;
mod replay;
mod scene;
mod segment_closed;
mod stats;
mod trace;
mod work;

use std::fmt::Write as _;
use std::process::ExitCode;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SegmentClosed,
    MixedOpen,
    LiveChurn,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "segment-closed" => Some(Workload::SegmentClosed),
            "mixed-open" => Some(Workload::MixedOpen),
            "live-churn" => Some(Workload::LiveChurn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SegmentClosed => "segment-closed",
            Workload::MixedOpen => "mixed-open",
            Workload::LiveChurn => "live-churn",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Paper scale on the command line; the self-tests run at
    /// `Scale::SMOKE`.
    pub scale: conn_bench::Scale,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: conn_bench::Scale::PAPER,
    })
}

/// One named measurement with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

const fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics of one run, reported by every workload with
/// `--trace 0`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub throughput_qps: f64,
    pub goodput_qps: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", "s", self.setup_s),
            metric("p50_ms", "ms", self.p50_ms),
            metric("p90_ms", "ms", self.p90_ms),
            metric("throughput_qps", "1/s", self.throughput_qps),
            metric("goodput_qps", "1/s", self.goodput_qps),
            metric("peak_rss_mb", "MB", self.peak_rss_mb),
        ]
    }
}

/// The per-layer metrics of one traced run, reported by every workload
/// with `--trace 1` (0 where the workload does not cross the layer);
/// counters are per request, or per delta for the `live.*` and write
/// metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    pub index_pages_read: f64,
    pub index_retrieval_ms: f64,
    pub index_write_us: f64,
    pub ior_obstacles_loaded: f64,
    pub rlu_points_evaluated: f64,
    pub rlu_result_tuples: f64,
    pub engine_cpu_ms: f64,
    pub vgraph_nodes: f64,
    pub vgraph_sight_tests: f64,
    pub vgraph_sweep_events: f64,
    pub vgraph_adjacency_ms: f64,
    pub vgraph_dijkstra_ms: f64,
    pub vgraph_replay_sight_tests: f64,
    pub vgraph_label_reuses: f64,
    pub session_obstacles_per_leg: f64,
    pub service_overhead_ms: f64,
    pub admission_wait_p50_ms: f64,
    pub admission_wait_p99_ms: f64,
    pub admission_batch_size: f64,
    pub pool_utilisation: f64,
    pub generator_lag_p99_ms: f64,
    pub live_delta_p50_ms: f64,
    pub live_delta_p95_ms: f64,
    pub live_kept: f64,
    pub live_tuple_patched: f64,
    pub live_kernel_patched: f64,
    pub live_recomputed: f64,
    pub live_labels_invalidated: f64,
    pub live_adjacency_repairs: f64,
    pub epoch_live_max: f64,
    pub epoch_retired: f64,
    pub trace_overhead_pct: f64,
}

impl Layers {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("index.pages_read", "count", self.index_pages_read),
            metric("index.retrieval_ms", "ms", self.index_retrieval_ms),
            metric("index.write_us", "us", self.index_write_us),
            metric("ior.obstacles_loaded", "count", self.ior_obstacles_loaded),
            metric("rlu.points_evaluated", "count", self.rlu_points_evaluated),
            metric("rlu.result_tuples", "count", self.rlu_result_tuples),
            metric("engine.cpu_ms", "ms", self.engine_cpu_ms),
            metric("vgraph.nodes", "count", self.vgraph_nodes),
            metric("vgraph.sight_tests", "count", self.vgraph_sight_tests),
            metric("vgraph.sweep_events", "count", self.vgraph_sweep_events),
            metric("vgraph.adjacency_ms", "ms", self.vgraph_adjacency_ms),
            metric("vgraph.dijkstra_ms", "ms", self.vgraph_dijkstra_ms),
            metric(
                "vgraph.replay_sight_tests",
                "count",
                self.vgraph_replay_sight_tests,
            ),
            metric("vgraph.label_reuses", "count", self.vgraph_label_reuses),
            metric(
                "session.obstacles_per_leg",
                "count",
                self.session_obstacles_per_leg,
            ),
            metric("service.overhead_ms", "ms", self.service_overhead_ms),
            metric("admission.wait_p50_ms", "ms", self.admission_wait_p50_ms),
            metric("admission.wait_p99_ms", "ms", self.admission_wait_p99_ms),
            metric("admission.batch_size", "count", self.admission_batch_size),
            metric("pool.utilisation", "ratio", self.pool_utilisation),
            metric("generator.lag_p99_ms", "ms", self.generator_lag_p99_ms),
            metric("live.delta_p50_ms", "ms", self.live_delta_p50_ms),
            metric("live.delta_p95_ms", "ms", self.live_delta_p95_ms),
            metric("live.kept", "count", self.live_kept),
            metric("live.tuple_patched", "count", self.live_tuple_patched),
            metric("live.kernel_patched", "count", self.live_kernel_patched),
            metric("live.recomputed", "count", self.live_recomputed),
            metric(
                "live.labels_invalidated",
                "count",
                self.live_labels_invalidated,
            ),
            metric(
                "live.adjacency_repairs",
                "count",
                self.live_adjacency_repairs,
            ),
            metric("epoch.live_max", "count", self.epoch_live_max),
            metric("epoch.retired", "count", self.epoch_retired),
            metric("trace.overhead_pct", "%", self.trace_overhead_pct),
        ]
    }
}

/// What a workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (requests, reads and deltas).
    pub attempted: u64,
    /// Errors, `Overloaded` refusals and wrong answers.
    pub failed: u64,
    /// End-to-end metrics; reported by the untraced run.
    pub end_to_end: EndToEnd,
    /// Per-layer metrics; reported by the traced run.
    pub layers: Layers,
    /// Workload-specific run-record fields as `(key, JSON value)`.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a run-record field.
    pub fn note(&mut self, key: &str, json: impl ToString) {
        self.record.push((key.to_string(), json.to_string()));
    }

    /// Adds a percentile with its sample count to the run record.
    pub fn note_pct(&mut self, key: &str, p: stats::Pct) {
        self.note(
            key,
            format!("{{\"value\":{},\"samples\":{}}}", p.value, p.samples),
        );
    }

    /// The metrics this mode reports; every value must be finite.
    pub fn metrics(&self, traced: bool) -> Result<Vec<Metric>, String> {
        let metrics = if traced {
            self.layers.metrics()
        } else {
            self.end_to_end.metrics()
        };
        match metrics.iter().find(|m| !m.value.is_finite()) {
            Some(m) => Err(format!("metric {} is not finite: {}", m.name, m.value)),
            None => Ok(metrics),
        }
    }
}

/// The result line: the run's verdict and its metrics with units.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

fn record_line(args: &Args, outcome: &Outcome) -> String {
    let mut fields = vec![
        (
            "workload".to_string(),
            format!("\"{}\"", args.workload.name()),
        ),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), args.trace.to_string()),
        ("scale".into(), args.scale.0.to_string()),
        ("obstacles".into(), args.scale.obstacles().to_string()),
        ("points".into(), args.scale.obstacles().to_string()),
        ("nproc".into(), stats::nproc().to_string()),
        ("commit".into(), format!("\"{}\"", stats::commit())),
        ("attempted".into(), outcome.attempted.to_string()),
        ("failed".into(), outcome.failed.to_string()),
        (
            "failed_pct".into(),
            (100.0 * stats::per(outcome.failed as f64, outcome.attempted as usize)).to_string(),
        ),
    ];
    fields.extend(outcome.record.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"record\": {{{}}}}}", body.join(", "))
}

/// Where a traced run writes its spans: `perfbench/out/` of the checkout
/// the benchmark was built in.
pub fn spans_path(args: &Args) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ))
}

/// Runs one workload in the requested mode.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let outcome = match args.workload {
        Workload::SegmentClosed => segment_closed::run(args)?,
        Workload::MixedOpen => mixed_open::run(args)?,
        Workload::LiveChurn => live_churn::run(args)?,
    };
    if outcome.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload segment-closed|mixed-open|live-churn \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args).and_then(|o| o.metrics(args.trace).map(|m| (o, m))) {
        Ok((outcome, metrics)) => {
            println!("{}", record_line(&args, &outcome));
            println!("{}", result_line(&outcome, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&argv(
            "--workload mixed-open --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::MixedOpen);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(a.scale, conn_bench::Scale::PAPER);
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload live-churn --seed 1 --seconds 1 --trace 2",
            "--workload live-churn --seed 1 --seconds 0 --trace 0",
            "--workload live-churn --seed 1 --seconds 1",
            "--workload live-churn --seed",
            "--workload live-churn --seed 1 --seconds 1 --trace 0 --scale smoke",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metric_lists_match_the_declarations() {
        let mut outcome = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        outcome.end_to_end.setup_s = 1.5;
        let m = outcome.metrics(false).unwrap();
        assert_eq!(m.len(), 6);
        assert_eq!(outcome.metrics(true).unwrap().len(), 32);
        let line = result_line(&outcome, &m);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        outcome.end_to_end.p50_ms = f64::NAN;
        assert!(outcome.metrics(false).is_err());
    }

    /// Every workload reports every declared metric with its unit, and no
    /// end-to-end metric reads 0.
    #[test]
    fn every_workload_emits_every_metric_with_its_unit() {
        let cases = [
            (Workload::SegmentClosed, 2.0),
            (Workload::LiveChurn, 2.0),
            // the ladder needs 1,000 arrivals per rung for its p99s
            (Workload::MixedOpen, 25.0),
        ];
        for (workload, seconds) in cases {
            let args = Args {
                workload,
                seed: 1,
                seconds,
                trace: true,
                scale: conn_bench::Scale::SMOKE,
            };
            let outcome = run(&args).unwrap();
            assert_eq!(outcome.failed, 0, "{workload:?}");
            for traced in [false, true] {
                let metrics = outcome.metrics(traced).unwrap();
                let line = result_line(&outcome, &metrics);
                for m in &metrics {
                    let (name, unit) = (m.name, m.unit);
                    let entry = format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        m.value
                    );
                    assert!(line.contains(&entry), "{workload:?} lacks {entry}");
                    if !traced {
                        assert!(m.value > 0.0, "{workload:?}: {name} reads {}", m.value);
                    }
                }
            }
        }
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics and workloads this program emits.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<Metric> = EndToEnd::default()
            .metrics()
            .into_iter()
            .chain(Layers::default().metrics())
            .collect();
        for Metric { name, unit, .. } in &declared {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in ["segment-closed", "mixed-open", "live-churn"] {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        assert_eq!(json.matches("\"unit\"").count(), declared.len());
    }
}
