//! Throughput benchmark for the `seda-stream` provisioning pipeline.
//!
//! Seals a zoo model (default: the 37-layer transformer, tiled by
//! `--layers`) into an authenticated provisioning stream, then
//! unseals it twice through [`seda_stream::measure`] — frame
//! verification, then DRAM replay of the layer write-out. The two
//! unseals must land on bit-identical images (root and ciphertext;
//! wall-clock is allowed to differ), and the second run's sustained
//! GB/s is recorded in `BENCH_stream.json` so CI can archive the
//! provisioning-path throughput over time.
//!
//! With `--min-gbps <g>` the run additionally acts as a regression
//! gate: sustained throughput below the floor fails the process
//! (exit 1). A missing or malformed flag value, an unknown model, or a
//! tiling past the stream's layer ceiling exits 2 with the usage line.
//!
//! Usage: `cargo run --release -p seda-bench --bin stream_bench --
//! [out.json] [--model <name>] [--layers <n>] [--min-gbps <g>]`

use seda::models::zoo;
use seda_adversary::ProtectConfig;
use seda_bench::round6;
use seda_stream::{measure, model_lens, seal, StreamSpec, MAX_LAYERS};
use serde::Serialize;

/// Machine-readable record of one stream-bench run.
#[derive(Serialize)]
struct BenchRecord {
    /// Model whose sealed geometry was streamed.
    model: String,
    /// Protection configuration of the sealed image.
    config: String,
    /// Layer regions in the stream.
    layers: usize,
    /// Ciphertext payload bytes provisioned.
    payload_bytes: u64,
    /// Authenticated 64-byte blocks verified.
    blocks: u64,
    /// Sustained payload throughput of verification plus replay, GB/s.
    gbps_sustained: f64,
    /// DRAM memory-clock cycles the layer write-out replay consumed.
    replay_cycles: u64,
    /// Whether the two unseals produced bit-identical images.
    deterministic: bool,
}

const USAGE: &str =
    "usage: stream_bench [out.json] [--model <name>] [--layers <n>] [--min-gbps <g>]";

/// Ends the process with exit 2: the problem, then the usage line.
fn usage_error(problem: &str) -> ! {
    eprintln!("stream_bench: {problem}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The value after `flag`, or a usage error naming what it wants.
fn flag_value(args: &mut impl Iterator<Item = String>, flag: &str, want: &str) -> String {
    args.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs {want}")))
}

fn main() {
    let mut out_path = "BENCH_stream.json".to_owned();
    let mut min_gbps: Option<f64> = None;
    let mut model_name = "trf".to_owned();
    let mut repeat_layers = 4usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--min-gbps" => {
                let want = "a non-negative number of GB/s";
                let v = flag_value(&mut args, "--min-gbps", want);
                match v.parse::<f64>() {
                    Ok(g) if g.is_finite() && g >= 0.0 => min_gbps = Some(g),
                    _ => usage_error(&format!("--min-gbps wants {want}, got {v:?}")),
                }
            }
            "--model" => model_name = flag_value(&mut args, "--model", "a zoo model name"),
            "--layers" => {
                let v = flag_value(&mut args, "--layers", "a tile count");
                repeat_layers = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--layers wants a tile count, got {v:?}"))
                });
            }
            other => out_path = other.to_owned(),
        }
    }

    let Some(model) = zoo::by_name(&model_name) else {
        usage_error(&format!(
            "unknown model {model_name:?} (try `seda_cli workloads`)"
        ))
    };
    // Tile the model's sealed geometry `repeat_layers` times so the
    // stream is long enough to time steadily.
    let base = model_lens(&model);
    let tiles = repeat_layers.max(1);
    let regions = tiles.saturating_mul(base.len());
    if regions > MAX_LAYERS {
        usage_error(&format!(
            "--layers {tiles} tiles {regions} layer regions of {model_name}, \
             over the {MAX_LAYERS}-layer stream ceiling"
        ));
    }
    let lens: Vec<usize> = std::iter::repeat_n(base, tiles).flatten().collect();
    let spec = StreamSpec {
        stream_id: 0x5EDA_BE7C,
        key_epoch: 1,
        config: ProtectConfig::matrix()[2],
        lens,
        enc_key: [0x11; 16],
        mac_key: [0x22; 16],
        transport_key: [0x33; 16],
    };
    let plains: Vec<Vec<u8>> = spec
        .lens
        .iter()
        .enumerate()
        .map(|(layer, &len)| {
            (0..len)
                .map(|i| (i as u8).wrapping_mul(29) ^ (layer as u8))
                .collect()
        })
        .collect();
    let stream = seal(&spec, &plains).expect("sealing a valid spec succeeds");
    let dram = seda::dram::DramConfig::ddr4_with_bandwidth(1, 16.0e9);

    // Warm-up run doubles as the determinism pin: the image is a pure
    // function of the stream, so both unseals must agree bit for bit
    // (wall-clock, of course, will not).
    let warm = measure(&spec, stream.bytes(), &dram).expect("clean stream unseals");
    let timed = measure(&spec, stream.bytes(), &dram).expect("clean stream unseals");
    let deterministic = warm.image.model_root() == timed.image.model_root()
        && warm.image.offchip_bytes() == timed.image.offchip_bytes();
    assert!(
        deterministic,
        "two unseals of the same stream must install bit-identical images"
    );

    let record = BenchRecord {
        model: model.name().to_owned(),
        config: spec.config.name.to_owned(),
        layers: spec.lens.len(),
        payload_bytes: timed.payload_bytes,
        blocks: timed.blocks,
        gbps_sustained: round6(timed.gbps_sustained),
        replay_cycles: timed.replay_cycles,
        deterministic,
    };
    println!(
        "stream unseal: {} x{} layers, {} payload bytes in {} blocks under {}",
        record.model, record.layers, record.payload_bytes, record.blocks, record.config
    );
    println!(
        "{:.3} GB/s sustained, {} DRAM replay cycles; images bit-identical across unseals",
        record.gbps_sustained, record.replay_cycles
    );
    let json = serde_json::to_string_pretty(&record).expect("record serializes");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("recorded to {out_path}");
    if let Some(floor) = min_gbps {
        if record.gbps_sustained < floor {
            eprintln!(
                "REGRESSION: stream unseal sustained {:.4} GB/s, under the {floor:.4} GB/s floor",
                record.gbps_sustained
            );
            std::process::exit(1);
        }
        println!("above the {floor:.4} GB/s floor");
    }
}
