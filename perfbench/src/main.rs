//! End-to-end and per-layer benchmark of the SeDA workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --pin-headline
//! ```
//!
//! Run from the repository root. One run sets its own workload up nine
//! times (the median is `setup_s`), makes one untimed warm-up pass, then
//! times passes for `--seconds`. Every end-to-end metric is reported on
//! every workload, so each run also times companion passes of the other
//! two workloads: after one untimed warm-up pass each, they run between
//! own passes, each kept at half the own time so far. `peak_rss_mb` is
//! read before any companion is built. Every pass checks its outputs; a
//! mismatch is a failed operation and makes the run exit 1. The last line
//! of standard output is the JSON result.
//!
//! With `--trace 1` the run alternates untraced and traced passes of its
//! own workload, records a span around each call into a crate (written to
//! `.bench_out/`), and reports per-layer metrics instead, including the
//! tracing overhead. `--pin-headline` rewrites the pinned per-point
//! digests of the headline sweep from the current code.
//!
//! See `perfbench/README.md` for the metric map.

mod headline;
mod serve;
mod stats;
mod stream;
mod trace;

use stats::Metric;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Time each companion workload gets per second of own-workload time.
const COMPANION_SHARE: f64 = 0.5;

/// End-to-end metrics, in report order.
pub const END_TO_END: [&str; 13] = [
    "setup_s",
    "peak_rss_mb",
    "sweep_s",
    "seal_mb_s",
    "unseal_mb_s",
    "serve_events_per_s",
    "seda_perf_overhead_pct.server",
    "seda_perf_overhead_pct.edge",
    "seda_traffic_overhead_pct.server",
    "seda_traffic_overhead_pct.edge",
    "paper_error_pp",
    "serve_p99_ms",
    "serve_capacity_rps",
];

/// Per-layer metrics, in report order.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "scalesim.simulate_s",
        "scalesim.traces",
        "protect.lower_s",
        "protect.finish_s",
        "dram.replay_s",
        "dram.flush_s",
        "dram.row_hit_rate",
    ]
    .map(String::from)
    .to_vec();
    for scheme in seda::experiment::scheme_names() {
        for m in [
            "protect.lower_ns_per_req",
            "protect.requests",
            "protect.meta_per_demand",
            "dram.replay_ns_per_req",
        ] {
            names.push(format!("{m}.{scheme}"));
        }
    }
    names.extend(
        [
            "crypto.aes_ctr_ns_per_block",
            "crypto.hmac_ns_per_frame",
            "crypto.position_mac_ns_per_block",
            "crypto.share_of_unseal",
            "stream.seal_s",
            "stream.push_s",
            "stream.finish_s",
            "stream.frames",
            "stream.payload_bytes",
            "stream.tamper_rejected",
            "serve.build_s",
            "serve.report_s",
        ]
        .map(String::from),
    );
    for rate in serve::LADDER {
        for m in [
            "serve.simulate_s",
            "serve.events",
            "serve.queue_depth_p99",
            "serve.utilization",
        ] {
            names.push(format!("{m}.r{rate}"));
        }
    }
    names.push("trace.overhead_pct".to_owned());
    names
}

/// One workload's passes and the metrics they yield.
pub trait Workload {
    /// Untimed preparation: references, golden checks, and simulated
    /// results.
    fn prepare(&mut self, checks: &mut Checks);
    /// One checked pass of the workload's work; returns its seconds. The
    /// first pass is untraced.
    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64;
    /// Whether the untraced (`traced == false`) or traced passes stopped
    /// mid-way through a cycle that the metrics need whole.
    fn needs_more(&self, _traced: bool) -> bool {
        false
    }
    /// Drops the host timings recorded so far (after the warm-up pass).
    fn clear_samples(&mut self);
    /// The end-to-end metrics this workload's work produces.
    fn end_to_end(&self) -> Vec<Metric>;
    /// The per-layer metrics, from its traced passes.
    fn per_layer(&self, self_s: &BTreeMap<&str, f64>) -> Vec<Metric>;
}

/// Output checks, counted as operations.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// SplitMix64: the benchmark's input generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn fill(&mut self, out: &mut [u8]) {
        for chunk in out.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Headline,
    Stream,
    Serve,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Headline, Kind::Stream, Kind::Serve];

    fn name(self) -> &'static str {
        match self {
            Kind::Headline => "headline_sweep",
            Kind::Stream => "stream_provision",
            Kind::Serve => "serve_load",
        }
    }

    fn build(self, seed: u64, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::Headline => Box::new(headline::Headline::new()?),
            Kind::Stream => Box::new(stream::Stream::new(seed)?),
            Kind::Serve => Box::new(serve::Serve::new(seed, tr)?),
        })
    }
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <headline_sweep|stream_provision|serve_load> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --pin-headline";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::ALL
                        .into_iter()
                        .find(|k| k.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn load_average_1m() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn run(args: &Args, started: Instant) -> Result<(Checks, Vec<Metric>), String> {
    let mut checks = Checks::default();
    let mut plain = Tracer::new(false);
    let mut traced = Tracer::new(args.trace);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut own = None;
    for i in 0..SETUPS {
        let t = if i == 0 { started } else { Instant::now() };
        own = Some(args.kind.build(args.seed, &mut plain)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut own = own.expect("at least one set-up");
    own.prepare(&mut checks);
    own.pass(&mut plain, &mut checks);
    own.clear_samples();
    // Read before any companion allocates: the own workload's peak.
    let own_peak_mb = peak_rss_mb()?;

    let mut companions = Vec::new();
    for kind in Kind::ALL.into_iter().filter(|&k| k != args.kind) {
        let mut w = kind.build(args.seed, &mut traced)?;
        w.prepare(&mut checks);
        w.pass(&mut plain, &mut checks);
        w.clear_samples();
        companions.push(w);
    }

    // Companions run between own passes, each kept at COMPANION_SHARE of
    // the own time so far, so every metric samples the whole run.
    let budget = Duration::from_secs(args.seconds);
    let mut own_time = Duration::ZERO;
    let mut companion_time = vec![Duration::ZERO; companions.len()];
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    while own_time < budget || plain_s.is_empty() {
        let t = Instant::now();
        plain_s.push(own.pass(&mut plain, &mut checks));
        if args.trace {
            traced_s.push(own.pass(&mut traced, &mut checks));
        }
        own_time += t.elapsed();
        for (w, spent) in companions.iter_mut().zip(&mut companion_time) {
            while *spent < own_time.mul_f64(COMPANION_SHARE) {
                let t = Instant::now();
                w.pass(&mut traced, &mut checks);
                *spent += t.elapsed();
            }
        }
    }
    while own.needs_more(false) {
        plain_s.push(own.pass(&mut plain, &mut checks));
    }
    while own.needs_more(true) {
        traced_s.push(own.pass(&mut traced, &mut checks));
    }
    for w in &mut companions {
        while w.needs_more(args.trace) {
            w.pass(&mut traced, &mut checks);
        }
    }
    let mut workloads = vec![own];
    workloads.append(&mut companions);

    let mut metrics = Vec::new();
    if args.trace {
        let self_s = traced.self_times();
        print_layer_split(&self_s);
        let path = format!(".bench_out/spans-{}-{}.jsonl", args.kind.name(), args.seed);
        traced
            .write(std::path::Path::new(&path))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("spans written to {path}");
        for w in &workloads {
            metrics.extend(w.per_layer(&self_s));
        }
        let overhead = traced_s.iter().sum::<f64>() / plain_s.iter().sum::<f64>() - 1.0;
        metrics.push(Metric::new("trace.overhead_pct", overhead * 100.0, "%"));
    } else {
        metrics.push(Metric::new("setup_s", stats::median(&setup_s), "s"));
        metrics.push(Metric::new("peak_rss_mb", own_peak_mb, "MB"));
        for w in &workloads {
            metrics.extend(w.end_to_end());
        }
    }
    Ok((checks, metrics))
}

/// Prints self time per crate: the span names' first segment.
fn print_layer_split(self_s: &BTreeMap<&str, f64>) {
    let mut by_crate: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, s) in self_s {
        let layer = name.split('.').next().unwrap_or(name);
        *by_crate.entry(layer).or_insert(0.0) += s;
    }
    let total: f64 = by_crate.values().sum();
    println!("self time by layer (all traced passes):");
    for (layer, s) in &by_crate {
        println!("  {layer:<10} {s:>10.4} s {:>6.1}%", 100.0 * s / total);
    }
}

/// Orders `metrics` as `names` lists them, failing on any gap, extra,
/// or non-finite value.
fn ordered(metrics: Vec<Metric>, names: &[String]) -> Result<Vec<Metric>, String> {
    let mut by_name: BTreeMap<String, Metric> =
        metrics.into_iter().map(|m| (m.name.clone(), m)).collect();
    let out: Vec<Metric> = names
        .iter()
        .map(|n| {
            by_name
                .remove(n)
                .ok_or_else(|| format!("metric {n} was not measured"))
        })
        .collect::<Result<_, _>>()?;
    if let Some(extra) = by_name.keys().next() {
        return Err(format!("metric {extra} is not declared"));
    }
    match out.iter().find(|m| !m.value.is_finite()) {
        Some(m) => Err(format!("metric {} is {}", m.name, m.value)),
        None => Ok(out),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--pin-headline"] {
        let text = headline::pin_lines(&headline::Headline::unpinned().engine());
        return match text.and_then(|t| {
            std::fs::write(headline::PINS, t).map_err(|e| format!("{}: {e}", headline::PINS))
        }) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host: cpus={cpus} load1={} workload={} seed={} seconds={} trace={}",
        load_average_1m(),
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let names: Vec<String> = if args.trace {
        per_layer_names()
    } else {
        END_TO_END.map(String::from).to_vec()
    };
    let cap = if args.trace {
        stats::MAX_PER_LAYER
    } else {
        stats::MAX_END_TO_END
    };
    let result = stats::check_names(names.iter().map(String::as_str), cap)
        .and_then(|()| run(&args, started))
        .and_then(|(c, m)| Ok((c, ordered(m, &names)?)));
    match result {
        Ok((checks, metrics)) => {
            println!(
                "{}",
                stats::result_json(checks.attempted, checks.failed, &metrics)
            );
            if checks.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_follow_the_grammar_and_caps() {
        stats::check_names(END_TO_END, stats::MAX_END_TO_END).expect("end-to-end names");
        let layer = per_layer_names();
        stats::check_names(layer.iter().map(String::as_str), stats::MAX_PER_LAYER)
            .expect("per-layer names");
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |name: &str| text.matches(&format!("\"name\": \"{name}\"")).count();
        let layer = per_layer_names();
        for name in END_TO_END
            .iter()
            .copied()
            .chain(layer.iter().map(String::as_str))
        {
            assert_eq!(declared(name), 1, "{name} must be declared once");
        }
        for kind in Kind::ALL {
            assert_eq!(declared(kind.name()), 1, "workload {}", kind.name());
        }
        let all = text.matches("\"name\": ").count();
        assert_eq!(all, END_TO_END.len() + layer.len() + Kind::ALL.len());
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(argv("--workload serve_load --seed 7 --seconds 3 --trace 1").into_iter())
                .expect("valid");
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::Serve, 7, 3, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload serve_load --seed x --seconds 1 --trace 0",
            "--workload serve_load --seconds 1 --trace 0",
            "--workload serve_load --seed 1 --seconds 1 --trace 2",
            "--workload serve_load --seed 1 --seconds",
        ] {
            assert!(parse_args(argv(bad).into_iter()).is_err(), "{bad}");
        }
    }

    #[test]
    fn ordering_rejects_gaps_extras_and_non_finite_values() {
        let names = ["a".to_owned(), "b".to_owned()];
        let m = |n: &str, v: f64| Metric::new(n, v, "s");
        let ok = ordered(vec![m("b", 2.0), m("a", 1.0)], &names).expect("complete");
        assert_eq!(ok[0].name, "a");
        assert!(ordered(vec![m("a", 1.0)], &names).is_err());
        assert!(ordered(vec![m("a", 1.0), m("b", 1.0), m("c", 1.0)], &names).is_err());
        assert!(ordered(vec![m("a", f64::NAN), m("b", 1.0)], &names).is_err());
    }

    #[test]
    fn seeds_drive_the_generator_deterministically() {
        let draw = |seed| {
            let mut r = SplitMix::new(seed);
            let mut b = [0u8; 11];
            r.fill(&mut b);
            (r.next_u64(), b)
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }
}
