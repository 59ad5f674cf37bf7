//! `headline_sweep`: the paper's Fig. 5/6 matrix — 13 zoo models × 6
//! schemes × {server, edge} NPUs, one inference per point — through the
//! sweep engine with one worker and one DRAM replay thread, so a pass
//! measures per-point cost rather than the scheduler.
//!
//! A pass is one (NPU, model) group: a `Sweep` over its six schemes. The
//! groups run in sweep order, and `sweep_s` is the sum over the 26 groups
//! of each group's median time. Short passes let the other workloads'
//! companion passes interleave finely, so every metric samples the whole
//! run. Preparation runs the full matrix as one sweep: the pinned-digest
//! check of all 156 points, the simulated results, and the reference.
//!
//! The traced pass rebuilds its group from the same public calls the
//! engine makes (`simulate_model` → `LoweredTrace::lower` →
//! `DramSim::run_batch_packed` per layer → `ProtectionScheme::finish` +
//! `DramSim::run_batch`), with a span around each, and must reproduce
//! the engine's results bit for bit.

use crate::stats::{self, Metric};
use crate::trace::Tracer;
use crate::{Checks, Workload};
use seda::dram::DramSim;
use seda::experiment::{evaluations_of, scheme_names};
use seda::models::{zoo, Model};
use seda::pipeline::{dram_config_for, LayerTiming, LoweredTrace, RunResult};
use seda::protect::{scheme_by_name, TrafficBreakdown};
use seda::scalesim::{simulate_model, NpuConfig};
use seda::{Sweep, SweepResults};
use std::collections::BTreeMap;

/// Per-point result digests pinned from the seed commit.
pub const PINS: &str = "perfbench/pinned/headline.txt";

const SCHEMES: usize = 6;

pub struct Headline {
    npus: Vec<NpuConfig>,
    models: Vec<Model>,
    pins: BTreeMap<String, u64>,
    /// The full-matrix engine sweep: the traced rebuild's reference.
    reference: Option<SweepResults>,
    simulated: Vec<Metric>,
    /// Next group of the untraced and of the traced passes.
    cursor: [usize; 2],
    /// Timed seconds of each group's untraced passes.
    group_s: Vec<Vec<f64>>,
    layers: LayerTotals,
}

/// Per-scheme totals over the traced passes.
#[derive(Default)]
struct LayerTotals {
    /// Traced groups; 26 make one full sweep.
    groups: u32,
    traces: u64,
    lower_s: [f64; SCHEMES],
    replay_s: [f64; SCHEMES],
    requests: [u64; SCHEMES],
    traffic: [TrafficBreakdown; SCHEMES],
    row_hits: u64,
    accesses: u64,
}

/// Point label `npu/model/scheme`, the key of the pinned digests.
fn label(npu: &str, model: &str, scheme: &str) -> String {
    format!("{npu}/{model}/{scheme}")
}

/// FNV-1a digest of a run's cycles, traffic breakdown, and DRAM stats.
pub fn digest(run: &RunResult) -> u64 {
    let t = &run.traffic;
    let d = &run.dram;
    let words = [run.total_cycles]
        .into_iter()
        .chain(run.layers.iter().map(|l| l.cycles))
        .chain([
            t.demand_read,
            t.demand_write,
            t.overfetch_read,
            t.mac_read,
            t.mac_write,
            t.vn_read,
            t.vn_write,
            t.tree_read,
            t.tree_write,
            t.layer_mac,
        ])
        .chain([
            d.reads,
            d.writes,
            d.row_hits,
            d.row_empties,
            d.row_conflicts,
            d.refresh_stall_cycles,
            d.bus_busy_cycles,
        ]);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every point of `results` in sweep order: its label and outcome.
fn points(
    results: &SweepResults,
) -> impl Iterator<Item = (String, Result<&[RunResult], &seda::SedaError>)> + '_ {
    let (n, m, s) = results.shape();
    (0..n * m * s).map(move |i| {
        let (ni, mi, si) = (i / (m * s), (i / s) % m, i % s);
        let key = label(
            &results.npu_labels()[ni],
            &results.model_labels()[mi],
            &results.scheme_labels()[si],
        );
        (key, results.outcome(ni, mi, si))
    })
}

/// Renders the pin file for `results`: one `label digest` line per point.
pub fn pin_lines(results: &SweepResults) -> Result<String, String> {
    let mut out = String::new();
    for (key, outcome) in points(results) {
        let runs = outcome.map_err(|e| format!("{key} failed: {e}"))?;
        out.push_str(&format!("{key} {:016x}\n", digest(&runs[0])));
    }
    Ok(out)
}

fn add_traffic(t: &mut TrafficBreakdown, b: &TrafficBreakdown) {
    t.demand_read += b.demand_read;
    t.demand_write += b.demand_write;
    t.overfetch_read += b.overfetch_read;
    t.mac_read += b.mac_read;
    t.mac_write += b.mac_write;
    t.vn_read += b.vn_read;
    t.vn_write += b.vn_write;
    t.tree_read += b.tree_read;
    t.tree_write += b.tree_write;
    t.layer_mac += b.layer_mac;
}

fn parse_pins(text: &str) -> Result<BTreeMap<String, u64>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, hex) = l
                .split_once(' ')
                .ok_or_else(|| format!("bad pin line {l:?}"))?;
            let d = u64::from_str_radix(hex.trim(), 16).map_err(|e| format!("{l:?}: {e}"))?;
            Ok((key.to_owned(), d))
        })
        .collect()
}

impl Headline {
    /// The workload with its pinned digests loaded.
    pub fn new() -> Result<Self, String> {
        let text = std::fs::read_to_string(PINS).map_err(|e| format!("{PINS}: {e}"))?;
        Ok(Self {
            pins: parse_pins(&text)?,
            ..Self::unpinned()
        })
    }

    /// The workload without pins: enough to run the engine and pin it.
    pub fn unpinned() -> Self {
        let (npus, models) = (
            vec![NpuConfig::server(), NpuConfig::edge()],
            zoo::all_models(),
        );
        Self {
            group_s: vec![Vec::new(); npus.len() * models.len()],
            npus,
            models,
            pins: BTreeMap::new(),
            reference: None,
            simulated: Vec::new(),
            cursor: [0; 2],
            layers: LayerTotals::default(),
        }
    }

    /// The full matrix as one engine sweep.
    pub fn engine(&self) -> SweepResults {
        Self::sweep(&self.npus, &self.models)
    }

    fn sweep(npus: &[NpuConfig], models: &[Model]) -> SweepResults {
        Sweep::new()
            .npus(npus.iter().cloned())
            .models(models.iter().cloned())
            .schemes(scheme_names())
            .threads(1)
            .dram_replay_threads(1)
            .run()
    }

    /// Checks every point of `results` against its pinned digest.
    fn check_engine(&self, results: &SweepResults, checks: &mut Checks) {
        for (key, outcome) in points(results) {
            let ok = match outcome {
                Ok(runs) => runs.len() == 1 && self.pins.get(&key) == Some(&digest(&runs[0])),
                Err(_) => false,
            };
            checks.check(ok, || format!("{key} differs from its pinned digest"));
        }
    }

    /// SeDA's overheads and the paper error, from an engine result.
    fn simulated_metrics(results: &SweepResults) -> Vec<Metric> {
        let evals = evaluations_of(results);
        // (figure, scheme) -> [server %, edge %]
        let pct = |figure: &str, scheme: &str| -> (f64, f64) {
            let of = |i: usize| {
                let means = if figure == "perf" {
                    evals[i].mean_perf()
                } else {
                    evals[i].mean_traffic()
                };
                means
                    .into_iter()
                    .find(|(s, _)| s == scheme)
                    .map(|(_, v)| (v - 1.0) * 100.0)
                    .expect("scheme in the lineup")
            };
            (of(0), of(1))
        };
        let (perf_server, perf_edge) = pct("perf", "SeDA");
        let (traffic_server, traffic_edge) = pct("traffic", "SeDA");
        vec![
            Metric::new("seda_perf_overhead_pct.server", perf_server, "%"),
            Metric::new("seda_perf_overhead_pct.edge", perf_edge, "%"),
            Metric::new("seda_traffic_overhead_pct.server", traffic_server, "%"),
            Metric::new("seda_traffic_overhead_pct.edge", traffic_edge, "%"),
            Metric::new("paper_error_pp", stats::paper_error_pp(pct), "pp"),
        ]
    }

    /// Rebuilds the points of group (`ni`, `mi`) from public calls, one
    /// span per call, and compares each with the engine's result.
    fn traced_rebuild(&mut self, ni: usize, mi: usize, tr: &mut Tracer, checks: &mut Checks) {
        let reference = self.reference.as_ref().expect("prepare ran");
        let names = scheme_names();
        let lt = &mut self.layers;
        lt.groups += 1;
        let (npu, model) = (&self.npus[ni], &self.models[mi]);
        let span = tr.enter("scalesim.simulate");
        let sim = simulate_model(npu, model);
        tr.exit(span);
        lt.traces += 1;
        for (si, name) in names.iter().enumerate() {
            let mut scheme = scheme_by_name(name).expect("lineup scheme");
            let span = tr.enter("protect.lower");
            let lowered = LoweredTrace::lower(&sim, scheme.as_mut());
            lt.lower_s[si] += tr.exit(span);
            lt.requests[si] += lowered.requests().len() as u64;

            let mut dram = DramSim::new(dram_config_for(npu));
            dram.set_replay_threads(1);
            let mem_clock = dram.config().clock_hz;
            let to_npu = |mem: u64| (mem as f64 / mem_clock * npu.clock_hz).ceil() as u64;
            let mut layers = Vec::with_capacity(sim.layers.len());
            let mut total = 0u64;
            for (li, layer) in sim.layers.iter().enumerate() {
                let start = dram.elapsed_cycles();
                let span = tr.enter("dram.replay");
                dram.run_batch_packed(lowered.layer(li));
                lt.replay_s[si] += tr.exit(span);
                let memory_cycles = to_npu(dram.elapsed_cycles() - start);
                let cycles = layer.compute_cycles.max(memory_cycles);
                total += cycles;
                layers.push(LayerTiming {
                    name: layer.name.clone(),
                    compute_cycles: layer.compute_cycles,
                    memory_cycles,
                    cycles,
                });
            }
            let mut flush = Vec::new();
            let span = tr.enter("protect.finish");
            scheme.finish(&mut |r| flush.push(r));
            tr.exit(span);
            let start = dram.elapsed_cycles();
            let span = tr.enter("dram.flush");
            dram.run_batch(&flush);
            tr.exit(span);
            total += to_npu(dram.elapsed_cycles() - start);

            let run = RunResult {
                model: sim.model.clone(),
                npu: npu.name.clone(),
                clock_hz: npu.clock_hz,
                scheme: scheme.name().to_owned(),
                layers,
                total_cycles: total,
                traffic: scheme.breakdown(),
                dram: *dram.stats(),
            };
            add_traffic(&mut lt.traffic[si], &run.traffic);
            lt.row_hits += run.dram.row_hits;
            lt.accesses += run.dram.accesses();
            let same = reference.outcome(ni, mi, si).ok() == Some(std::slice::from_ref(&run));
            checks.check(same, || {
                format!(
                    "traced rebuild of {} differs from the engine",
                    label(&npu.name, model.name(), name)
                )
            });
        }
    }
}

impl Workload for Headline {
    /// Runs the full matrix once: the pinned-digest check of every point,
    /// the simulated results, and the traced rebuild's reference.
    fn prepare(&mut self, checks: &mut Checks) {
        let results = self.engine();
        self.check_engine(&results, checks);
        let count = points(&results).count();
        checks.check(count == self.pins.len(), || {
            format!("{count} points ran, {} pinned", self.pins.len())
        });
        self.simulated = Self::simulated_metrics(&results);
        self.reference = Some(results);
    }

    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let kind = usize::from(tr.on());
        let g = self.cursor[kind];
        self.cursor[kind] = (g + 1) % self.group_s.len();
        let (ni, mi) = (g / self.models.len(), g % self.models.len());
        let span = tr.enter("headline.pass");
        if tr.on() {
            self.traced_rebuild(ni, mi, tr, checks);
            return tr.exit(span);
        }
        let results = Self::sweep(&self.npus[ni..=ni], &self.models[mi..=mi]);
        let secs = tr.exit(span);
        self.group_s[g].push(secs);
        self.check_engine(&results, checks);
        secs
    }

    fn needs_more(&self, traced: bool) -> bool {
        self.cursor[usize::from(traced)] != 0
    }

    fn clear_samples(&mut self) {
        self.cursor = [0; 2];
        self.group_s.iter_mut().for_each(Vec::clear);
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let sweep_s = self
            .group_s
            .iter()
            .map(|g| {
                if g.is_empty() {
                    f64::NAN
                } else {
                    stats::median(g)
                }
            })
            .sum();
        let mut out = vec![Metric::new("sweep_s", sweep_s, "s")];
        out.extend(self.simulated.iter().cloned());
        out
    }

    fn per_layer(&self, self_s: &BTreeMap<&str, f64>) -> Vec<Metric> {
        let lt = &self.layers;
        let passes = f64::from(lt.groups.max(1)) / self.group_s.len() as f64;
        let per_pass = |name: &str| self_s.get(name).copied().unwrap_or(0.0) / passes;
        let mut out = vec![
            Metric::new("scalesim.simulate_s", per_pass("scalesim.simulate"), "s"),
            Metric::new("scalesim.traces", lt.traces as f64 / passes, "count"),
            Metric::new("protect.lower_s", per_pass("protect.lower"), "s"),
            Metric::new("protect.finish_s", per_pass("protect.finish"), "s"),
            Metric::new("dram.replay_s", per_pass("dram.replay"), "s"),
            Metric::new("dram.flush_s", per_pass("dram.flush"), "s"),
            Metric::new(
                "dram.row_hit_rate",
                lt.row_hits as f64 / lt.accesses.max(1) as f64,
                "ratio",
            ),
        ];
        for (si, name) in scheme_names().into_iter().enumerate() {
            let reqs = lt.requests[si].max(1) as f64;
            let t = &lt.traffic[si];
            let meta = (t.overfetch_read + t.metadata()) as f64 / t.demand().max(1) as f64;
            out.extend([
                Metric::new(
                    format!("protect.lower_ns_per_req.{name}"),
                    lt.lower_s[si] * 1e9 / reqs,
                    "ns",
                ),
                Metric::new(
                    format!("protect.requests.{name}"),
                    lt.requests[si] as f64 / passes,
                    "count",
                ),
                Metric::new(format!("protect.meta_per_demand.{name}"), meta, "ratio"),
                Metric::new(
                    format!("dram.replay_ns_per_req.{name}"),
                    lt.replay_s[si] * 1e9 / reqs,
                    "ns",
                ),
            ]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_matches_the_pins_and_the_seed_headline() {
        std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).expect("repo root");
        let mut h = Headline::new().expect("pins load");
        let mut checks = Checks::default();
        h.prepare(&mut checks);
        assert_eq!((checks.attempted, checks.failed), (157, 0));
        // A pass is one (NPU, model) group; a traced pass rebuilds the
        // same group and must match the engine bit for bit.
        h.pass(&mut Tracer::new(false), &mut checks);
        h.pass(&mut Tracer::new(true), &mut checks);
        assert_eq!((checks.attempted, checks.failed), (157 + 12, 0));
        assert!(h.needs_more(false) && h.needs_more(true));
        let value = |name: &str| h.simulated.iter().find(|m| m.name == name).map(|m| m.value);
        for (name, seed) in [
            ("seda_perf_overhead_pct.server", 0.153),
            ("seda_perf_overhead_pct.edge", 0.770),
            ("seda_traffic_overhead_pct.server", 0.099),
            ("seda_traffic_overhead_pct.edge", 0.098),
            ("paper_error_pp", 10.22),
        ] {
            let v = value(name).expect("reported");
            assert!((v - seed).abs() < 0.005, "{name} = {v}");
        }
    }

    #[test]
    fn pin_lines_parse_back() {
        let pins = parse_pins("# comment\nserver/let/SeDA 00000000000000ff\n\n").expect("valid");
        assert_eq!(pins.get("server/let/SeDA"), Some(&0xff));
        assert!(parse_pins("no-digest-here").is_err());
        assert!(parse_pins("a/b/c zz").is_err());
    }
}
