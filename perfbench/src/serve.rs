//! `serve_load`: the `serve_mix` tenant lineup, grounded once with
//! `seda_serve::build`, then run open loop through `seda_serve::simulate`
//! and `ServeReport::new` at a fixed ladder of offered rates that spans
//! both sides of saturation.
//!
//! The simulated results come from the scenario exactly as pinned (its
//! own seed and 400 requests) with only the offered rate changed, so they
//! repeat in every run; its 900 rps rung is the pinned golden run. The
//! timed ladder runs ten times the requests under seeds drawn from the
//! benchmark seed.

use crate::stats::{self, Metric, Rung};
use crate::trace::Tracer;
use crate::{Checks, SplitMix, Workload};
use seda_serve::{simulate, ArrivalSim, ServeReport, ServeSetup, SimOutcome, SimSpec};
use std::collections::BTreeMap;

pub const SCENARIO: &str = "serve_mix";
pub const GOLDEN: &str = "tests/fixtures/serve_mix.golden.json";
/// Offered rates in requests per second.
pub const LADDER: [u32; 5] = [600, 900, 1200, 1500, 1800];
const SIMULATE_SPANS: [&str; 5] = [
    "serve.simulate.r600",
    "serve.simulate.r900",
    "serve.simulate.r1200",
    "serve.simulate.r1500",
    "serve.simulate.r1800",
];
/// The rate whose chat-tenant p99 is reported.
const P99_RATE: u32 = 900;
/// Requests per rung of the timed ladder.
const TIMED_REQUESTS: u64 = 4000;
/// Seeds the timed ladder cycles through; repeats must reproduce.
const TIMED_SEEDS: u64 = 2;

pub struct Serve {
    setup: ServeSetup,
    /// Tenant indices: the latency-bound one and the one reported.
    vision: usize,
    chat: usize,
    /// The scenario's own p99 ceiling for vision.
    vision_p99_ceiling_ms: f64,
    build_s: f64,
    seeds: [u64; TIMED_SEEDS as usize],
    passes: u64,
    /// Outcome digest per (rung, seed) from its first timed run.
    seen: BTreeMap<(usize, usize), u64>,
    simulated: Vec<Metric>,
    /// Per-rung (events, queue depth p99, mean utilization) of the
    /// pinned ladder.
    rungs: Vec<(u64, u64, f64)>,
    events: u64,
    secs: f64,
    traced_passes: u32,
}

/// The spec for `rate_rps` with `requests` and `seed`.
fn at_rate(
    base: &SimSpec,
    clock_hz: f64,
    rate_rps: u32,
    requests: Option<u64>,
    seed: u64,
) -> SimSpec {
    let mut spec = base.clone();
    spec.seed = seed;
    if let ArrivalSim::OpenLoop {
        mean_cycles,
        requests: n,
        ..
    } = &mut spec.arrival
    {
        *mean_cycles = clock_hz / f64::from(rate_rps);
        if let Some(r) = requests {
            *n = r;
        }
    }
    spec
}

fn outcome_digest(o: &SimOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let words = [o.events, o.end_cycle, o.completions.len() as u64]
        .into_iter()
        .chain(o.completions.iter().flat_map(|c| [c.id, c.completion]));
    for w in words {
        h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Nearest-rank p99 of the queue depths sampled in `trace`.
fn queue_p99(trace: &[(u64, u64)]) -> u64 {
    let mut depths: Vec<u64> = trace.iter().map(|&(_, d)| d).collect();
    depths.sort_unstable();
    let rank = (depths.len() * 99).div_ceil(100);
    depths.get(rank.saturating_sub(1)).copied().unwrap_or(0)
}

impl Serve {
    pub fn new(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let span = tr.enter("serve.build");
        let scenario = seda::scenario::load(SCENARIO).map_err(|e| e.to_string())?;
        let setup = seda_serve::build(&scenario).map_err(|e| e.to_string())?;
        let build_s = tr.exit(span);
        if !matches!(setup.spec.arrival, ArrivalSim::OpenLoop { .. }) {
            return Err(format!("{SCENARIO} is not an open-loop scenario"));
        }
        let tenant = |name: &str| {
            setup
                .spec
                .tenants
                .iter()
                .position(|t| t.name == name)
                .ok_or_else(|| format!("{SCENARIO} has no tenant {name}"))
        };
        let (vision, chat) = (tenant("vision")?, tenant("chat")?);
        let vision_p99_ceiling_ms = scenario
            .serving
            .as_ref()
            .and_then(|s| s.expect.as_ref())
            .and_then(|e| e.iter().find(|x| x.tenant == "vision"))
            .and_then(|x| x.p99_ms_max)
            .ok_or_else(|| format!("{SCENARIO} sets no p99 ceiling for vision"))?;
        let mut rng = SplitMix::new(seed);
        Ok(Self {
            setup,
            vision,
            chat,
            vision_p99_ceiling_ms,
            build_s,
            seeds: [rng.next_u64(), rng.next_u64()],
            passes: 0,
            seen: BTreeMap::new(),
            simulated: Vec::new(),
            rungs: Vec::new(),
            events: 0,
            secs: 0.0,
            traced_passes: 0,
        })
    }
}

impl Workload for Serve {
    /// Checks the pinned golden run byte for byte and runs the pinned
    /// ladder, which gives the simulated metrics.
    fn prepare(&mut self, checks: &mut Checks) {
        let (vision, chat) = (self.vision, self.chat);
        let golden = std::fs::read_to_string(GOLDEN);
        let native = simulate(&self.setup.spec);
        let snapshot = ServeReport::new(&self.setup, &native).snapshot_json();
        checks.check(
            golden.as_deref().ok() == Some(snapshot.as_str()),
            || match &golden {
                Ok(_) => format!("{SCENARIO} drifted from {GOLDEN}"),
                Err(e) => format!("{GOLDEN}: {e}"),
            },
        );

        let mut rungs = Vec::new();
        let mut p99_chat = 0.0;
        for rate in LADDER {
            let spec = at_rate(
                &self.setup.spec,
                self.setup.clock_hz,
                rate,
                None,
                self.setup.spec.seed,
            );
            let out = simulate(&spec);
            let report = ServeReport::new(&self.setup, &out);
            if rate == P99_RATE {
                p99_chat = report.tenants[chat].p99_ms;
                checks.check(out == native, || {
                    format!("the {rate} rps rung differs from the pinned run")
                });
            }
            let last_arrival = out.completions.iter().map(|c| c.arrival).max().unwrap_or(0);
            rungs.push(Rung {
                rate_rps: rate,
                p99_ms: report.tenants[vision].p99_ms,
                growth: stats::backlog_growth(&out.queue_trace, last_arrival),
            });
            let util = report.npus.iter().map(|n| n.utilization).sum::<f64>()
                / report.npus.len().max(1) as f64;
            self.rungs
                .push((out.events, queue_p99(&out.queue_trace), util));
        }
        let capacity = stats::capacity_rps(&rungs, self.vision_p99_ceiling_ms);
        self.simulated = vec![
            Metric::new("serve_p99_ms", p99_chat, "sim_ms"),
            Metric::new("serve_capacity_rps", f64::from(capacity), "req/s"),
        ];
    }

    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let which = (self.passes % TIMED_SEEDS) as usize;
        self.passes += 1;
        let seed = self.seeds[which];
        let pass = tr.enter("serve.pass");
        for (ri, rate) in LADDER.into_iter().enumerate() {
            let spec = at_rate(
                &self.setup.spec,
                self.setup.clock_hz,
                rate,
                Some(TIMED_REQUESTS),
                seed,
            );
            let span = tr.enter(SIMULATE_SPANS[ri]);
            let out = simulate(&spec);
            let sim_s = tr.exit(span);
            let span = tr.enter("serve.report");
            let report = ServeReport::new(&self.setup, &out);
            let report_s = tr.exit(span);
            self.events += out.events;
            self.secs += sim_s + report_s;

            checks.check(report.completed == TIMED_REQUESTS, || {
                format!(
                    "{rate} rps: {} of {TIMED_REQUESTS} requests completed",
                    report.completed
                )
            });
            let d = outcome_digest(&out);
            let first = *self.seen.entry((ri, which)).or_insert(d);
            checks.check(first == d, || {
                format!("{rate} rps rerun under seed {seed} differs")
            });
        }
        if tr.on() {
            self.traced_passes += 1;
        }
        tr.exit(pass)
    }

    fn clear_samples(&mut self) {
        self.events = 0;
        self.secs = 0.0;
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let mut out = vec![Metric::new(
            "serve_events_per_s",
            self.events as f64 / self.secs,
            "events/s",
        )];
        out.extend(self.simulated.iter().cloned());
        out
    }

    fn per_layer(&self, self_s: &BTreeMap<&str, f64>) -> Vec<Metric> {
        let passes = f64::from(self.traced_passes.max(1));
        let per_pass = |name: &str| self_s.get(name).copied().unwrap_or(0.0) / passes;
        let mut out = vec![
            Metric::new("serve.build_s", self.build_s, "s"),
            Metric::new("serve.report_s", per_pass("serve.report"), "s"),
        ];
        for (ri, rate) in LADDER.into_iter().enumerate() {
            let (events, q99, util) = self.rungs[ri];
            out.extend([
                Metric::new(
                    format!("serve.simulate_s.r{rate}"),
                    per_pass(SIMULATE_SPANS[ri]),
                    "s",
                ),
                Metric::new(format!("serve.events.r{rate}"), events as f64, "count"),
                Metric::new(
                    format!("serve.queue_depth_p99.r{rate}"),
                    q99 as f64,
                    "requests",
                ),
                Metric::new(format!("serve.utilization.r{rate}"), util, "ratio"),
            ]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_ladder_reproduces_the_golden_run_and_its_capacity() {
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).expect("repo root");
        let mut serve = Serve::new(1, &mut Tracer::new(false)).expect("serve_mix grounds");
        let mut checks = Checks::default();
        serve.prepare(&mut checks);
        assert_eq!(checks.failed, 0);
        let value = |name: &str| {
            serve
                .simulated
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
        };
        assert_eq!(value("serve_capacity_rps"), Some(900.0));
        let p99 = value("serve_p99_ms").expect("reported");
        assert!((p99 - 97.6129).abs() < 1e-4, "{p99}");
    }

    #[test]
    fn queue_p99_is_nearest_rank() {
        let trace: Vec<(u64, u64)> = (1..=200).map(|d| (d, d)).collect();
        assert_eq!(queue_p99(&trace), 198);
        assert_eq!(queue_p99(&[]), 0);
    }
}
