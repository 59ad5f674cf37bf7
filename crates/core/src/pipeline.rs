//! End-to-end secure-NPU pipeline: model → accelerator simulation →
//! protection-scheme trace transformation → DRAM timing.
//!
//! This is the evaluation flow of §IV-A: SCALE-Sim-style burst traces are
//! rewritten by a memory-protection scheme and replayed through the DRAM
//! simulator; per-layer runtime is the maximum of compute and memory time
//! under double buffering.
//!
//! There are three run entry points. [`run_trace`] is the one fallible
//! kernel: it consumes a pre-simulated trace (`&ModelSim`) and an
//! explicit [`DramSim`], so callers that evaluate many schemes over the
//! same (NPU, model) pair — the [`Sweep`] engine, notably — share one
//! simulation via [`seda_scalesim::TraceCache`]. [`run_spec`] simulates a
//! [`RunSpec`] (single, verifier-modelled, or repeated steady-state runs
//! are the same loop with different spec fields) and calls the kernel on
//! the NPU's derived DRAM system; [`run_model`] is the one-inference
//! shorthand.
//!
//! [`Sweep`]: crate::sweep::Sweep

use crate::error::SedaError;
use seda_dram::{DramConfig, DramSim, DramStats};
use seda_models::Model;
use seda_protect::{HashEngine, ProtectionScheme, TrafficBreakdown};
use seda_scalesim::{simulate_model, LayerSim, ModelSim, NpuConfig};
use serde::{Deserialize, Serialize};

/// The DRAM configuration the pipeline derives for an accelerator:
/// DDR4 timing with the NPU's channel count and aggregate bandwidth.
///
/// Exposed so callers that need a perturbed memory system — the
/// golden-figure sensitivity self-tests, ablation sweeps — can start from
/// the exact configuration the default pipeline would use and hand the
/// modified copy to [`run_trace`] (as a [`DramSim`]) or
/// [`Sweep::dram_map`](crate::sweep::Sweep::dram_map).
pub fn dram_config_for(npu: &NpuConfig) -> DramConfig {
    DramConfig::ddr4_with_bandwidth(npu.dram_channels, npu.dram_bandwidth)
}

/// A scheme-rewritten request stream lowered into one flat buffer with
/// per-layer slice boundaries.
///
/// Lowering runs every burst of a pre-simulated trace through
/// `scheme.transform` once and stores the emitted requests contiguously
/// in *packed* form ([`Request::pack`]: `(block << 1) | is_write`, 8 B
/// per request), so the stream can be replayed through
/// [`DramSim::run_batch_packed`] any number of times *without
/// regenerating it* — the replay benchmarks time the DRAM kernel in
/// isolation this way. Packing matters because both sides of the trace
/// are memory-bound at this scale: lowering writes, and every replay
/// reads, half the bytes a `Vec<Request>` would. The DRAM model is
/// block-granular, so no timing information is lost.
///
/// [`run_trace`] does not keep a whole inference: it lowers one layer at
/// a time into a reused buffer and replays it at once (the same
/// per-layer lowering loop, so the requests are the same). Schemes are
/// stateful — metadata caches warm across inferences, so the rewritten
/// stream of inference *n + 1* differs from inference *n*'s — and the
/// scheme and the DRAM model share no state, so interleaving their work
/// layer by layer changes no result.
///
/// # Examples
///
/// ```
/// use seda::pipeline::LoweredTrace;
/// use seda_dram::Request;
/// use seda_models::zoo;
/// use seda_protect::Unprotected;
/// use seda_scalesim::{simulate_model, NpuConfig};
///
/// let npu = NpuConfig::edge();
/// let sim = simulate_model(&npu, &zoo::lenet());
/// let lowered = LoweredTrace::lower(&sim, &mut Unprotected::new());
/// assert_eq!(lowered.layers(), sim.layers.len());
/// assert!(!lowered.requests().is_empty());
/// // Each packed word unpacks to the original (block-aligned) request.
/// let first = Request::unpack(lowered.requests()[0]);
/// assert_eq!(first.addr % 64, 0);
/// ```
///
/// [`Request::pack`]: seda_dram::Request::pack
#[derive(Debug, Clone, Default)]
pub struct LoweredTrace {
    /// The packed request stream ([`Request::pack`] encoding).
    ///
    /// [`Request::pack`]: seda_dram::Request::pack
    packed: Vec<u64>,
    /// End index (exclusive) of each layer's slice in `packed`.
    layer_ends: Vec<usize>,
}

/// Runs one layer's bursts through `scheme`, appending the rewritten
/// requests to `out` in packed form — the one lowering loop behind both
/// [`LoweredTrace`] and [`run_trace`].
fn lower_layer(layer: &LayerSim, scheme: &mut dyn ProtectionScheme, out: &mut Vec<u64>) {
    for burst in &layer.bursts {
        scheme.transform(burst, &mut |r| out.push(r.pack()));
    }
}

impl LoweredTrace {
    /// Lowers `sim`'s burst trace through `scheme` into a fresh buffer.
    pub fn lower(sim: &ModelSim, scheme: &mut dyn ProtectionScheme) -> Self {
        let mut lowered = Self::default();
        lowered.relower(sim, scheme);
        lowered
    }

    /// Re-lowers into the existing buffer, reusing its allocation: scheme
    /// state advances, but no per-request storage is reallocated.
    pub fn relower(&mut self, sim: &ModelSim, scheme: &mut dyn ProtectionScheme) {
        self.packed.clear();
        self.layer_ends.clear();
        for layer in &sim.layers {
            lower_layer(layer, scheme, &mut self.packed);
            self.layer_ends.push(self.packed.len());
        }
    }

    /// Number of layers in the lowered trace.
    pub fn layers(&self) -> usize {
        self.layer_ends.len()
    }

    /// The packed requests of layer `i`, in issue order — the slice
    /// [`DramSim::run_batch_packed`] replays.
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.layers()`.
    pub fn layer(&self, i: usize) -> &[u64] {
        let start = if i == 0 { 0 } else { self.layer_ends[i - 1] };
        &self.packed[start..self.layer_ends[i]]
    }

    /// The whole flat packed request stream, in issue order. Decode
    /// individual elements with [`Request::unpack`].
    ///
    /// [`Request::unpack`]: seda_dram::Request::unpack
    pub fn requests(&self) -> &[u64] {
        &self.packed
    }
}

/// Per-layer timing outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTiming {
    /// Layer name.
    pub name: String,
    /// Systolic-array compute cycles (accelerator clock).
    pub compute_cycles: u64,
    /// Memory cycles converted into the accelerator clock domain.
    pub memory_cycles: u64,
    /// Layer runtime: `max(compute, memory)` under double buffering.
    pub cycles: u64,
}

/// Result of running one inference of a model under one protection scheme.
/// `PartialEq` is bit-exact (the `f64` clock compares by value, never by
/// tolerance) — the checkpoint journal relies on it to prove resumed runs
/// replay identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Model name.
    pub model: String,
    /// NPU configuration name.
    pub npu: String,
    /// Accelerator clock the run was timed at, in Hz.
    pub clock_hz: f64,
    /// Protection scheme name.
    pub scheme: String,
    /// Per-layer timing.
    pub layers: Vec<LayerTiming>,
    /// Total runtime in accelerator cycles.
    pub total_cycles: u64,
    /// Traffic tally per category, cumulative over the scheme's lifetime
    /// up to (and including) this inference.
    pub traffic: TrafficBreakdown,
    /// DRAM access statistics, cumulative up to this inference.
    pub dram: DramStats,
}

impl RunResult {
    /// Runtime in seconds on the accelerator clock the run was timed at.
    pub fn seconds(&self) -> f64 {
        self.total_cycles as f64 / self.clock_hz
    }
}

/// Everything that defines one pipeline run except the scheme instance:
/// the workload, the accelerator, the optional integrity verifier, and
/// how many back-to-back inferences to model.
///
/// # Examples
///
/// ```
/// use seda::pipeline::{run_spec, RunSpec};
/// use seda_models::zoo;
/// use seda_protect::Unprotected;
/// use seda_scalesim::NpuConfig;
///
/// let npu = NpuConfig::edge();
/// let model = zoo::lenet();
/// let spec = RunSpec::new(&npu, &model).repeats(3);
/// let runs = run_spec(&spec, &mut Unprotected::new()).unwrap();
/// assert_eq!(runs.len(), 3);
/// // Zero inferences is a malformed spec, not a panic.
/// assert!(run_spec(&spec.repeats(0), &mut Unprotected::new()).is_err());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// Accelerator configuration.
    pub npu: &'a NpuConfig,
    /// Workload.
    pub model: &'a Model,
    /// Integrity-verification engine to model, if any.
    pub verifier: Option<HashEngine>,
    /// Number of back-to-back inferences (scheme metadata caches and DRAM
    /// bank state persist across them). Must be at least 1.
    pub repeats: u32,
}

impl<'a> RunSpec<'a> {
    /// A single-inference spec with no verifier.
    pub fn new(npu: &'a NpuConfig, model: &'a Model) -> Self {
        Self {
            npu,
            model,
            verifier: None,
            repeats: 1,
        }
    }

    /// Models the integrity-verification engine during each layer.
    pub fn verifier(mut self, engine: HashEngine) -> Self {
        self.verifier = Some(engine);
        self
    }

    /// Sets the number of back-to-back inferences.
    pub fn repeats(mut self, n: u32) -> Self {
        self.repeats = n;
        self
    }
}

/// Simulates the trace for `spec` and replays it through `scheme` on the
/// DRAM system [`dram_config_for`] derives from the NPU.
///
/// Convenience wrapper over [`run_trace`] for one-off runs; sweep-style
/// callers should simulate once (or use a [`seda_scalesim::TraceCache`])
/// and call [`run_trace`] per scheme.
///
/// # Errors
///
/// Returns [`SedaError::InvalidSpec`] when `spec.repeats == 0`.
pub fn run_spec(
    spec: &RunSpec<'_>,
    scheme: &mut dyn ProtectionScheme,
) -> Result<Vec<RunResult>, SedaError> {
    let sim = simulate_model(spec.npu, spec.model);
    run_trace(
        &sim,
        spec.npu,
        scheme,
        spec.verifier.as_ref(),
        spec.repeats,
        DramSim::new(dram_config_for(spec.npu)),
    )
}

/// The single simulation kernel behind every run entry point.
///
/// Replays `repeats` back-to-back inferences of a pre-simulated burst
/// trace through `scheme` and `dram`, returning one [`RunResult`] per
/// inference. Per layer, runtime is `max(compute, memory)` under double
/// buffering; with a `verifier`, every fetched byte additionally streams
/// through the hash engine, so an undersized verifier (throughput below
/// memory bandwidth) becomes the layer bottleneck and each layer pays the
/// engine's drain latency once. Scheme metadata caches and DRAM bank
/// state persist across inferences (steady-state behaviour); the final
/// metadata flush is charged to the last inference.
///
/// The simulator is taken fully constructed, which makes it the injection
/// point for memory-system ablations: a perturbed [`DramConfig`] (the
/// golden-figure sensitivity self-tests add one cycle of burst length) or
/// a simulator-level knob such as the batched replay's worker cap
/// ([`DramSim::set_replay_threads`], which
/// [`Sweep::dram_replay_threads`](crate::sweep::Sweep::dram_replay_threads)
/// threads through here). It should be freshly constructed; pre-existing
/// bank or clock state would be charged to this run.
///
/// The kernel lowers and replays one layer at a time: each layer's bursts
/// go through the scheme into a reused packed buffer, which
/// [`DramSim::run_batch_packed`] replays before the next layer is
/// lowered. The results are those of lowering a whole [`LoweredTrace`]
/// first, with peak memory bounded by the largest layer. The [`Sweep`]
/// engine calls it directly, so a bad point degrades into a captured
/// error rather than tearing down the whole evaluation.
///
/// # Examples
///
/// ```
/// use seda::pipeline::{dram_config_for, run_trace};
/// use seda_dram::DramSim;
/// use seda_models::zoo;
/// use seda_protect::Unprotected;
/// use seda_scalesim::{simulate_model, NpuConfig};
///
/// let npu = NpuConfig::edge();
/// let sim = simulate_model(&npu, &zoo::lenet());
/// // One simulation, many replays: each scheme reuses `sim`.
/// let dram = DramSim::new(dram_config_for(&npu));
/// let runs = run_trace(&sim, &npu, &mut Unprotected::new(), None, 2, dram).unwrap();
/// assert_eq!(runs.len(), 2);
/// assert!(runs[0].total_cycles > 0);
/// ```
///
/// # Errors
///
/// Returns [`SedaError::InvalidSpec`] when `repeats == 0`.
///
/// [`Sweep`]: crate::sweep::Sweep
pub fn run_trace(
    sim: &ModelSim,
    npu: &NpuConfig,
    scheme: &mut dyn ProtectionScheme,
    verifier: Option<&HashEngine>,
    repeats: u32,
    mut dram: DramSim,
) -> Result<Vec<RunResult>, SedaError> {
    if repeats == 0 {
        return Err(SedaError::InvalidSpec {
            reason: "need at least one inference (repeats == 0)".to_owned(),
        });
    }
    let mem_clock = dram.config().clock_hz;

    let mut packed = Vec::new();
    let mut results = Vec::with_capacity(repeats as usize);
    for _ in 0..repeats {
        let mut layers = Vec::with_capacity(sim.layers.len());
        let mut total = 0u64;
        for layer in &sim.layers {
            packed.clear();
            lower_layer(layer, scheme, &mut packed);
            let start = dram.elapsed_cycles();
            let requests = packed.len() as u64;
            dram.run_batch_packed(&packed);
            let mem_cycles_mem_domain = dram.elapsed_cycles() - start;
            let memory_cycles =
                (mem_cycles_mem_domain as f64 / mem_clock * npu.clock_hz).ceil() as u64;
            let mut cycles = layer.compute_cycles.max(memory_cycles);
            if let Some(engine) = verifier {
                let verify_stream = engine.stream_cycles(requests * 64);
                cycles = cycles.max(verify_stream) + engine.layer_check_exposure();
            }
            total += cycles;
            seda_telemetry::record("pipeline.layer_cycles", cycles);
            layers.push(LayerTiming {
                name: layer.name.clone(),
                compute_cycles: layer.compute_cycles,
                memory_cycles,
                cycles,
            });
        }
        seda_telemetry::counter_add("pipeline.inferences", 1);
        results.push(RunResult {
            model: sim.model.clone(),
            npu: npu.name.clone(),
            clock_hz: npu.clock_hz,
            scheme: scheme.name().to_owned(),
            layers,
            total_cycles: total,
            traffic: scheme.breakdown(),
            dram: *dram.stats(),
        });
    }

    // Flush dirty metadata at end of the run; the drain is exposed time,
    // charged to the last inference.
    let start = dram.elapsed_cycles();
    let mut flush = Vec::new();
    scheme.finish(&mut |r| flush.push(r));
    dram.run_batch(&flush);
    let drain = dram.elapsed_cycles() - start;
    // Invariant: `repeats > 0` was checked at entry, so at least one
    // result exists.
    #[allow(clippy::expect_used)]
    let last = results.last_mut().expect("repeats > 0");
    last.total_cycles += (drain as f64 / mem_clock * npu.clock_hz).ceil() as u64;
    last.traffic = scheme.breakdown();
    last.dram = *dram.stats();
    // One flush per run keeps the per-access DRAM loop free of telemetry
    // dispatch; the counters still sum correctly across runs and sweeps.
    dram.emit_telemetry();

    Ok(results)
}

/// Runs `model` on `npu` under `scheme` and reports traffic and runtime.
///
/// # Examples
///
/// ```
/// use seda::pipeline::run_model;
/// use seda_models::zoo;
/// use seda_protect::Unprotected;
/// use seda_scalesim::NpuConfig;
///
/// let r = run_model(&NpuConfig::edge(), &zoo::lenet(), &mut Unprotected::new());
/// assert!(r.total_cycles > 0);
/// ```
pub fn run_model(npu: &NpuConfig, model: &Model, scheme: &mut dyn ProtectionScheme) -> RunResult {
    // Invariant: a one-inference spec is well formed, and the kernel
    // returns exactly one result per inference.
    #[allow(clippy::expect_used)]
    let result = run_spec(&RunSpec::new(npu, model), scheme)
        .expect("repeats == 1")
        .pop()
        .expect("kernel returns one result per inference");
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_models::zoo;
    use seda_protect::{BlockMacKind, BlockMacScheme, LayerMacStore, SedaScheme, Unprotected};

    /// The kernel on the NPU's derived DRAM system.
    fn replay(
        sim: &ModelSim,
        npu: &NpuConfig,
        scheme: &mut dyn ProtectionScheme,
        repeats: u32,
    ) -> Result<Vec<RunResult>, SedaError> {
        let dram = DramSim::new(dram_config_for(npu));
        run_trace(sim, npu, scheme, None, repeats, dram)
    }

    #[test]
    fn protected_runs_are_never_faster() {
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let base = run_model(&npu, &m, &mut Unprotected::new());
        let sgx = run_model(
            &npu,
            &m,
            &mut BlockMacScheme::new(BlockMacKind::Sgx, 64, 16 << 30),
        );
        assert!(sgx.total_cycles >= base.total_cycles);
        assert!(sgx.traffic.total() > base.traffic.total());
    }

    #[test]
    fn seda_overhead_is_tiny() {
        let npu = NpuConfig::edge();
        let m = zoo::alexnet();
        let base = run_model(&npu, &m, &mut Unprotected::new());
        let seda = run_model(
            &npu,
            &m,
            &mut SedaScheme::new(LayerMacStore::OffChip, 16 << 30),
        );
        let traffic_overhead = seda.traffic.total() as f64 / base.traffic.total() as f64 - 1.0;
        assert!(traffic_overhead < 0.005, "SeDA traffic +{traffic_overhead}");
        let perf_overhead = seda.total_cycles as f64 / base.total_cycles as f64 - 1.0;
        assert!(perf_overhead < 0.02, "SeDA perf +{perf_overhead}");
    }

    #[test]
    fn layer_count_matches_model() {
        let npu = NpuConfig::server();
        let m = zoo::lenet();
        let r = run_model(&npu, &m, &mut Unprotected::new());
        assert_eq!(r.layers.len(), m.layers().len());
        assert_eq!(
            r.total_cycles,
            r.layers.iter().map(|l| l.cycles).sum::<u64>()
        );
    }

    #[test]
    fn memory_and_compute_bound_layers_exist() {
        // AlexNet on edge: fc layers are memory-bound, convs compute-bound.
        let npu = NpuConfig::edge();
        let r = run_model(&npu, &zoo::alexnet(), &mut Unprotected::new());
        assert!(r.layers.iter().any(|l| l.memory_cycles > l.compute_cycles));
        assert!(r.layers.iter().any(|l| l.compute_cycles > l.memory_cycles));
    }

    #[test]
    fn seconds_uses_recorded_clock() {
        let npu = NpuConfig::edge();
        let r = run_model(&npu, &zoo::lenet(), &mut Unprotected::new());
        assert_eq!(r.clock_hz, npu.clock_hz);
        let expect = r.total_cycles as f64 / npu.clock_hz;
        assert!((r.seconds() - expect).abs() < 1e-15);
    }

    #[test]
    fn zero_repeats_is_a_typed_error() {
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let spec = RunSpec::new(&npu, &m).repeats(0);
        let err = run_spec(&spec, &mut Unprotected::new()).expect_err("zero repeats is malformed");
        assert!(matches!(err, SedaError::InvalidSpec { .. }));
        assert!(err.to_string().contains("repeats"));
        let sim = simulate_model(&npu, &m);
        let kernel_err = replay(&sim, &npu, &mut Unprotected::new(), 0).expect_err("kernel too");
        assert_eq!(kernel_err, err);
    }

    #[test]
    fn lowered_trace_slices_partition_the_stream() {
        let npu = NpuConfig::edge();
        let sim = simulate_model(&npu, &zoo::lenet());
        let lowered = LoweredTrace::lower(&sim, &mut Unprotected::new());
        assert_eq!(lowered.layers(), sim.layers.len());
        let total: usize = (0..lowered.layers()).map(|i| lowered.layer(i).len()).sum();
        assert_eq!(total, lowered.requests().len());
        // Slices are contiguous and in issue order.
        let flat: Vec<_> = (0..lowered.layers())
            .flat_map(|i| lowered.layer(i).iter().copied())
            .collect();
        assert_eq!(flat, lowered.requests());
    }

    #[test]
    fn relowering_a_stateless_scheme_is_idempotent() {
        let npu = NpuConfig::edge();
        let sim = simulate_model(&npu, &zoo::lenet());
        let mut scheme = Unprotected::new();
        let mut lowered = LoweredTrace::lower(&sim, &mut scheme);
        let first = lowered.requests().to_vec();
        lowered.relower(&sim, &mut scheme);
        assert_eq!(lowered.requests(), first);
    }

    #[test]
    fn explicit_default_dram_config_matches_derived() {
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let implicit =
            run_spec(&RunSpec::new(&npu, &m).repeats(2), &mut Unprotected::new()).unwrap();
        let sim = simulate_model(&npu, &m);
        let explicit = replay(&sim, &npu, &mut Unprotected::new(), 2).unwrap();
        let cycles = |rs: &[RunResult]| rs.iter().map(|r| r.total_cycles).collect::<Vec<_>>();
        assert_eq!(cycles(&implicit), cycles(&explicit));
        assert_eq!(implicit.last().unwrap().dram, explicit.last().unwrap().dram);
    }

    #[test]
    fn one_cycle_dram_perturbation_changes_the_run() {
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let sim = simulate_model(&npu, &m);
        let base = replay(&sim, &npu, &mut Unprotected::new(), 1).unwrap();
        let mut cfg = dram_config_for(&npu);
        cfg.t_bl += 1;
        let slower = run_trace(
            &sim,
            &npu,
            &mut Unprotected::new(),
            None,
            1,
            DramSim::new(cfg),
        )
        .unwrap();
        assert!(
            slower[0].total_cycles > base[0].total_cycles,
            "a longer burst must slow the memory-bound layers"
        );
    }

    #[test]
    fn run_trace_shares_a_simulation_across_schemes() {
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let sim = simulate_model(&npu, &m);
        let direct = run_model(&npu, &m, &mut Unprotected::new());
        let traced = replay(&sim, &npu, &mut Unprotected::new(), 1)
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(direct.total_cycles, traced.total_cycles);
        assert_eq!(direct.traffic.total(), traced.traffic.total());
    }
}

#[cfg(test)]
mod verifier_tests {
    use super::*;
    use seda_models::zoo;
    use seda_protect::{BlockMacKind, BlockMacScheme, HashEngine, Unprotected};

    /// Total cycles of each inference `spec` describes.
    fn totals(spec: &RunSpec<'_>, scheme: &mut dyn ProtectionScheme) -> Vec<u64> {
        let runs = run_spec(spec, scheme).unwrap();
        runs.iter().map(|r| r.total_cycles).collect()
    }

    #[test]
    fn adequate_verifier_adds_only_drain_latency() {
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let plain = run_model(&npu, &m, &mut Unprotected::new());
        let engine = HashEngine::default();
        let verified = totals(
            &RunSpec::new(&npu, &m).verifier(engine),
            &mut Unprotected::new(),
        )[0];
        let max_extra = m.layers().len() as u64 * engine.layer_check_exposure();
        assert!(verified >= plain.total_cycles);
        assert!(
            verified <= plain.total_cycles + max_extra,
            "a well-sized verifier must stay off the critical path"
        );
    }

    #[test]
    fn undersized_verifier_becomes_the_bottleneck() {
        let npu = NpuConfig::edge();
        let m = zoo::alexnet();
        let fast = RunSpec::new(&npu, &m).verifier(HashEngine::new(32.0, 80));
        let slow = RunSpec::new(&npu, &m).verifier(HashEngine::new(0.25, 80));
        let quick = totals(&fast, &mut Unprotected::new())[0];
        let choked = totals(&slow, &mut Unprotected::new())[0];
        assert!(
            choked > 2 * quick,
            "0.25 B/cycle must choke a 10 GB/s stream: {choked} vs {quick}"
        );
    }

    #[test]
    fn repeated_runs_accept_a_verifier() {
        // The pre-unification pipeline could not model a verifier during
        // steady-state runs; the unified kernel must.
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let spec = RunSpec::new(&npu, &m).repeats(3);
        let sgx = || BlockMacScheme::new(BlockMacKind::Sgx, 64, 16 << 30);
        let choked = totals(&spec.verifier(HashEngine::new(0.25, 80)), &mut sgx());
        let plain = totals(&spec, &mut sgx());
        assert_eq!(choked.len(), 3);
        for (c, p) in choked.iter().zip(&plain) {
            assert!(c > p, "verifier must slow every inference: {c} vs {p}");
        }
    }
}

#[cfg(test)]
mod repeated_tests {
    use super::*;
    use seda_models::zoo;
    use seda_protect::{BlockMacKind, BlockMacScheme, Unprotected};

    /// Total cycles of `n` back-to-back inferences of `model`.
    fn repeated(
        npu: &NpuConfig,
        model: &Model,
        scheme: &mut dyn ProtectionScheme,
        n: u32,
    ) -> Vec<u64> {
        let runs = run_spec(&RunSpec::new(npu, model).repeats(n), scheme).unwrap();
        runs.iter().map(|r| r.total_cycles).collect()
    }

    #[test]
    fn steady_state_is_no_slower_than_cold_start() {
        let npu = NpuConfig::edge();
        let m = zoo::ncf();
        let mut sgx = BlockMacScheme::new(BlockMacKind::Sgx, 64, 16 << 30);
        let totals = repeated(&npu, &m, &mut sgx, 4);
        assert_eq!(totals.len(), 4);
        // The first inference runs with cold (empty) caches and defers its
        // dirty evictions; steady state pays those writebacks, so later
        // inferences are a few percent slower but must stabilize — not
        // grow without bound. (The last one also absorbs the final drain.)
        let growth = totals[2] as f64 / totals[1] as f64;
        assert!(
            (0.95..1.15).contains(&growth),
            "steady state must stabilize: {totals:?}"
        );
    }

    #[test]
    fn baseline_is_stable_across_inferences() {
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let totals = repeated(&npu, &m, &mut Unprotected::new(), 3);
        assert_eq!(totals[1], totals[2], "no state to warm up: {totals:?}");
    }

    #[test]
    fn repeated_first_inference_matches_single_run() {
        // One kernel for all entry points: the first of n inferences must
        // be bit-identical to a standalone run before the final drain,
        // which only the standalone run's total absorbs.
        let npu = NpuConfig::edge();
        let m = zoo::lenet();
        let sgx = || BlockMacScheme::new(BlockMacKind::Sgx, 64, 16 << 30);
        let single = run_model(&npu, &m, &mut sgx());
        let runs = run_spec(&RunSpec::new(&npu, &m).repeats(3), &mut sgx()).unwrap();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].layers, single.layers);
        let layer_sum: u64 = single.layers.iter().map(|l| l.cycles).sum();
        assert_eq!(runs[0].total_cycles, layer_sum);
        assert!(single.total_cycles >= layer_sum);
    }
}
