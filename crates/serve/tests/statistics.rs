//! Statistical property tests for the serving simulator's stochastic
//! machinery: the seeded Poisson process must actually be Poisson, the
//! closed loop must actually be closed, and seeds must pin everything.

use seda_adversary::Rng;
use seda_serve::spec::STREAM_ARRIVALS;
use seda_serve::{simulate, Arrival, ArrivalSim, Scheduler, SimOutcome, SimSpec, TenantSim};

fn tenant(name: &str, layers: Vec<u64>, weight: u64) -> TenantSim {
    TenantSim {
        name: name.to_owned(),
        profiles: vec![layers],
        sla_cycles: None,
        weight,
    }
}

/// Exponential interarrival draws over 100k samples must match the
/// distribution's moments within Chernoff-style concentration bounds.
///
/// For n iid Exp(1/m) draws, the sample mean concentrates around m with
/// standard error m/sqrt(n) ≈ 0.32% of m at n = 100_000; a 2% band is
/// ~6 standard errors, so a seeded failure means the generator is
/// wrong, not unlucky. The sample variance concentrates around m² with
/// standard error sqrt(8/n)·m² ≈ 0.9%; we allow 6%.
#[test]
fn poisson_interarrivals_match_exponential_moments() {
    const N: usize = 100_000;
    let mean = 40.0;
    let mut rng = Rng::derive(0xD15EA5E, STREAM_ARRIVALS);
    let draws: Vec<f64> = (0..N).map(|_| rng.exp(mean)).collect();
    let sample_mean = draws.iter().sum::<f64>() / N as f64;
    let sample_var = draws.iter().map(|d| (d - sample_mean).powi(2)).sum::<f64>() / (N - 1) as f64;
    assert!(
        (sample_mean - mean).abs() / mean < 0.02,
        "sample mean {sample_mean} strays from {mean}"
    );
    assert!(
        (sample_var - mean * mean).abs() / (mean * mean) < 0.06,
        "sample variance {sample_var} strays from {}",
        mean * mean
    );
    // Memorylessness fingerprint: P(X > m) = 1/e for an exponential.
    let over_mean = draws.iter().filter(|d| **d > mean).count() as f64 / N as f64;
    assert!(
        (over_mean - (-1.0f64).exp()).abs() < 0.01,
        "tail mass {over_mean} strays from 1/e"
    );
}

/// Counting the open-loop trace in fixed windows must show Poisson
/// statistics: the dispersion index (variance of window counts over
/// their mean) is 1 for a Poisson process.
#[test]
fn open_loop_window_counts_are_poisson_dispersed() {
    let spec = SimSpec {
        seed: 0xACC01ADE,
        scheduler: Scheduler::Fcfs,
        replicas: 1,
        max_batch: 1,
        tenants: vec![tenant("a", vec![1], 1)],
        arrival: ArrivalSim::OpenLoop {
            mean_cycles: 25.0,
            requests: 100_000,
            burst: None,
            diurnal: None,
        },
        swaps: vec![],
    };
    let trace = seda_serve::open_loop_trace(&spec);
    let window = 1000u64; // expect ~40 arrivals per window
    let horizon = trace.last().expect("nonempty").cycle;
    let mut counts = vec![0u64; (horizon / window + 1) as usize];
    for a in &trace {
        counts[(a.cycle / window) as usize] += 1;
    }
    counts.pop(); // the last window is truncated
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    let var = counts
        .iter()
        .map(|c| (*c as f64 - mean).powi(2))
        .sum::<f64>()
        / (n - 1.0);
    let dispersion = var / mean;
    assert!(
        (0.9..1.1).contains(&dispersion),
        "dispersion index {dispersion} is not Poisson-like (mean {mean}, var {var})"
    );
}

/// In a closed loop, a client cannot have two requests in flight: the
/// number of requests with `arrival <= t < completion` can never exceed
/// the client population, at any instant.
#[test]
fn closed_loop_in_flight_never_exceeds_the_client_population() {
    let clients = 7u32;
    let spec = SimSpec {
        seed: 0xC105ED,
        scheduler: Scheduler::Edf { preempt: true },
        replicas: 3,
        max_batch: 2,
        tenants: vec![tenant("a", vec![30, 20], 2), tenant("b", vec![55], 1)],
        arrival: ArrivalSim::ClosedLoop {
            clients,
            think_cycles: 12.0,
            requests: 5_000,
        },
        swaps: vec![],
    };
    let out = simulate(&spec);
    assert_eq!(out.completions.len(), 5_000);
    // Sweep the interval endpoints: +1 at each arrival, -1 at each
    // completion; completions at t free the slot before arrivals after t
    // (think times are clamped >= 1, so reuse is never same-instant).
    let mut deltas: Vec<(u64, i64)> = Vec::with_capacity(out.completions.len() * 2);
    for c in &out.completions {
        deltas.push((c.arrival, 1));
        deltas.push((c.completion, -1));
    }
    deltas.sort_by_key(|&(t, delta)| (t, delta));
    let mut in_flight = 0i64;
    for (t, delta) in deltas {
        in_flight += delta;
        assert!(
            in_flight <= i64::from(clients),
            "{in_flight} requests in flight at cycle {t} with only {clients} clients"
        );
    }
    assert_eq!(in_flight, 0, "every request must close its interval");
}

fn demanding_spec(seed: u64) -> SimSpec {
    SimSpec {
        seed,
        scheduler: Scheduler::Edf { preempt: true },
        replicas: 2,
        max_batch: 3,
        tenants: vec![
            tenant("a", vec![18, 9], 3),
            tenant("b", vec![40], 1),
            tenant("c", vec![7, 7, 7], 2),
        ],
        arrival: ArrivalSim::OpenLoop {
            mean_cycles: 11.0,
            requests: 20_000,
            burst: None,
            diurnal: None,
        },
        swaps: vec![],
    }
}

/// Identical seeds must give identical event sequences no matter how
/// many threads run simulations concurrently, and across re-runs.
#[test]
fn identical_seeds_are_identical_across_threads_and_reruns() {
    let spec = demanding_spec(0x5EED);
    let baseline = simulate(&spec);
    let rerun = simulate(&spec);
    assert_eq!(baseline, rerun, "sequential re-run diverged");
    let racing: Vec<SimOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| simulate(&spec))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    for out in racing {
        assert_eq!(out, baseline, "a racing simulation diverged");
    }
}

/// Different seeds must actually change the arrival process — a seed
/// that does nothing would make every determinism test vacuous.
#[test]
fn different_seeds_diverge() {
    let a = simulate(&demanding_spec(1));
    let b = simulate(&demanding_spec(2));
    assert_ne!(a, b, "seeds 1 and 2 produced identical outcomes");
    let ta: Vec<Arrival> = seda_serve::open_loop_trace(&demanding_spec(1));
    let tb: Vec<Arrival> = seda_serve::open_loop_trace(&demanding_spec(2));
    assert_ne!(ta, tb, "seeds 1 and 2 produced identical traces");
}
