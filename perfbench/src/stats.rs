//! Pure helpers: metric records and their name grammar, order
//! statistics, the paper-error arithmetic, and the serving-capacity rule.

/// Most end-to-end metrics a benchmark may declare.
pub const MAX_END_TO_END: usize = 16;
/// Most per-layer metrics a benchmark may declare.
pub const MAX_PER_LAYER: usize = 128;

/// One reported metric: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Checks a metric list against the grammar, uniqueness, and `cap`.
pub fn check_names<'a>(names: impl IntoIterator<Item = &'a str>, cap: usize) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for name in names {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} breaks the grammar"));
        }
        if !seen.insert(name) {
            return Err(format!("metric name {name:?} is used twice"));
        }
    }
    if seen.len() > cap {
        return Err(format!("{} metrics exceed the cap of {cap}", seen.len()));
    }
    Ok(())
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A paper-reported headline cell: `(figure, scheme, server %, edge %)`.
/// `None` marks the Fig. 6 SeDA cells, which the paper gives only as
/// "less than 1%".
pub type PaperCell = (&'static str, &'static str, Option<f64>, Option<f64>);

/// The paper's Fig. 5 / Fig. 6 average overheads over the unprotected
/// baseline, in percent (the headline table of EXPERIMENTS.md).
pub const PAPER: [PaperCell; 10] = [
    ("traffic", "SGX-64B", Some(30.00), Some(28.29)),
    ("traffic", "MGX-64B", Some(12.51), Some(12.63)),
    ("traffic", "SGX-512B", Some(22.17), Some(23.16)),
    ("traffic", "MGX-512B", Some(8.92), Some(10.24)),
    ("traffic", "SeDA", Some(0.12), Some(0.03)),
    ("perf", "SGX-64B", Some(22.04), Some(21.10)),
    ("perf", "MGX-64B", Some(10.93), Some(10.95)),
    ("perf", "SGX-512B", Some(8.49), Some(5.84)),
    ("perf", "MGX-512B", Some(4.28), Some(2.90)),
    ("perf", "SeDA", None, None),
];

/// Error of one cell in percentage points. A "less than 1%" paper cell
/// (`None`) costs nothing while ours stays below 1%, and the excess over
/// 1% otherwise.
pub fn cell_error_pp(paper: Option<f64>, ours: f64) -> f64 {
    match paper {
        Some(p) => (ours - p).abs(),
        None => (ours - 1.0).max(0.0),
    }
}

/// Mean absolute error in percentage points over the 20 headline cells.
/// `ours(figure, scheme)` returns our `(server %, edge %)` overheads.
pub fn paper_error_pp(ours: impl Fn(&str, &str) -> (f64, f64)) -> f64 {
    let mut sum = 0.0;
    for (figure, scheme, server, edge) in PAPER {
        let (s, e) = ours(figure, scheme);
        sum += cell_error_pp(server, s) + cell_error_pp(edge, e);
    }
    sum / (2 * PAPER.len()) as f64
}

/// A backlog grows when the mean queue depth over the second half of
/// the arrival window exceeds the first half's by more than this factor.
/// A stable queue gives about 1; the rungs past saturation give 2 and
/// more.
pub const BACKLOG_GROWTH_LIMIT: f64 = 1.5;

/// Ratio of the mean queue depth over the second half of the arrival
/// window `[0, last_arrival]` to the mean over the first half, from
/// `(cycle, depth)` samples. An empty first half with a non-empty second
/// one counts as unbounded growth.
pub fn backlog_growth(queue_trace: &[(u64, u64)], last_arrival: u64) -> f64 {
    let mid = last_arrival / 2;
    let mean = |lo: u64, hi: u64| {
        let (sum, n) = queue_trace
            .iter()
            .filter(|&&(c, _)| c >= lo && c <= hi)
            .fold((0u64, 0u64), |(s, n), &(_, d)| (s + d, n + 1));
        sum as f64 / n.max(1) as f64
    };
    let (first, second) = (mean(0, mid), mean(mid + 1, last_arrival));
    if first == 0.0 {
        if second == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        second / first
    }
}

/// One rung of the offered-rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rate_rps: u32,
    /// The latency-bound tenant's simulated p99.
    pub p99_ms: f64,
    /// [`backlog_growth`] of the rung's queue.
    pub growth: f64,
}

/// The highest offered rate whose p99 meets `p99_ceiling_ms` without a
/// growing backlog; 0 when no rung does.
pub fn capacity_rps(rungs: &[Rung], p99_ceiling_ms: f64) -> u32 {
    rungs
        .iter()
        .filter(|r| r.p99_ms <= p99_ceiling_ms && r.growth <= BACKLOG_GROWTH_LIMIT)
        .map(|r| r.rate_rps)
        .max()
        .unwrap_or(0)
}

/// The last line the benchmark prints: outcome counts and metrics.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Our headline overheads at the pinned commit, in percent, as the
    /// EXPERIMENTS.md table prints them: (figure, scheme, server, edge).
    const OURS: [(&str, &str, f64, f64); 10] = [
        ("traffic", "SGX-64B", 30.72, 32.82),
        ("traffic", "MGX-64B", 14.20, 14.64),
        ("traffic", "SGX-512B", 18.70, 23.38),
        ("traffic", "MGX-512B", 2.17, 5.20),
        ("traffic", "SeDA", 0.10, 0.10),
        ("perf", "SGX-64B", 50.48, 76.05),
        ("perf", "MGX-64B", 14.00, 18.33),
        ("perf", "SGX-512B", 37.27, 56.44),
        ("perf", "MGX-512B", 2.03, 7.35),
        ("perf", "SeDA", 0.15, 0.77),
    ];

    fn ours(figure: &str, scheme: &str) -> (f64, f64) {
        OURS.iter()
            .find(|(f, s, _, _)| *f == figure && *s == scheme)
            .map(|&(_, _, a, b)| (a, b))
            .expect("cell present")
    }

    #[test]
    fn paper_error_of_the_pinned_table_is_10_22_pp() {
        let err = paper_error_pp(ours);
        assert!((err - 10.222).abs() < 1e-9, "{err}");
    }

    #[test]
    fn less_than_one_percent_cells_cost_only_their_excess() {
        assert_eq!(cell_error_pp(None, 0.77), 0.0);
        assert!((cell_error_pp(None, 1.5) - 0.5).abs() < 1e-12);
        assert!((cell_error_pp(Some(2.0), 0.5) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_the_highest_rung_meeting_both_conditions() {
        // The serve_mix ladder at the pinned commit: every rung meets the
        // 12 ms vision ceiling, but the queue grows from 1200 rps up.
        let rungs = [
            Rung {
                rate_rps: 600,
                p99_ms: 1.525,
                growth: 0.41,
            },
            Rung {
                rate_rps: 900,
                p99_ms: 3.050,
                growth: 0.84,
            },
            Rung {
                rate_rps: 1200,
                p99_ms: 3.050,
                growth: 1.95,
            },
            Rung {
                rate_rps: 1500,
                p99_ms: 1.525,
                growth: 2.81,
            },
            Rung {
                rate_rps: 1800,
                p99_ms: 0.763,
                growth: 3.24,
            },
        ];
        assert_eq!(capacity_rps(&rungs, 12.0), 900);
        // A latency miss disqualifies a rung even with a stable queue.
        let mut strict = rungs;
        strict[1].p99_ms = 12.5;
        assert_eq!(capacity_rps(&strict, 12.0), 600);
        assert_eq!(capacity_rps(&rungs[2..], 12.0), 0);
    }

    #[test]
    fn backlog_growth_compares_the_halves_of_the_arrival_window() {
        let steady = [(0, 4), (10, 4), (60, 4), (100, 4)];
        assert_eq!(backlog_growth(&steady, 100), 1.0);
        let growing = [(0, 2), (40, 2), (60, 6), (100, 6), (150, 90)];
        // Samples after the last arrival (the drain) do not count.
        assert_eq!(backlog_growth(&growing, 100), 3.0);
        assert_eq!(backlog_growth(&[(80, 1)], 100), f64::INFINITY);
        assert_eq!(backlog_growth(&[], 100), 1.0);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in ["setup_s", "protect.lower_ns_per_req.SGX-64B", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "-lead",
            "has space",
            "slash/x",
            "ü",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn name_checks_enforce_uniqueness_and_caps() {
        assert!(check_names(["a", "b"], 2).is_ok());
        assert!(check_names(["a", "a"], 2).is_err());
        assert!(check_names(["a", "b", "c"], 2).is_err());
        assert!(check_names(["a b"], 2).is_err());
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(3, 0, &[Metric::new("setup_s", 0.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(result_json(3, 1, &[]).starts_with("{\"correct\": false"));
    }
}
