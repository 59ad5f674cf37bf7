//! The provisioning path: verify a stream, then replay its write-out.
//!
//! Unsealing a stream has two stages: the chained-MAC verification plus
//! pad removal (crypto engines), and the write-out of each verified
//! layer to off-chip memory (the DRAM channel, modeled by [`DramSim`]'s
//! packed batch replay). [`measure`] runs them back to back — the whole
//! stream is verified before a single write is replayed — and reports
//! the sustained payload throughput.

use crate::seal::StreamSpec;
use crate::unseal::StreamUnsealer;
use seda::SedaError;
use seda_adversary::{ProtectedImage, BLOCK};
use seda_dram::{DramConfig, DramSim, Request};
use std::time::Instant;

/// Stream bytes handed to the unsealer per push — a line-rate NIC
/// burst's worth of frames.
pub const CHUNK_BYTES: usize = 4096;

/// A completed unseal with its throughput measurement.
#[derive(Debug)]
pub struct UnsealRun {
    /// The verified, installed image.
    pub image: ProtectedImage,
    /// Ciphertext payload bytes provisioned.
    pub payload_bytes: u64,
    /// Protection blocks verified.
    pub blocks: u64,
    /// Sustained payload throughput of verification plus replay, in GB/s.
    pub gbps_sustained: f64,
    /// DRAM memory-clock cycles the replay consumed.
    pub replay_cycles: u64,
}

/// Packed 64-byte write requests covering one layer region.
fn layer_writes(pa0: u64, len: usize) -> Vec<u64> {
    (0..len / BLOCK)
        .map(|i| Request::write(pa0 + (i * BLOCK) as u64).pack())
        .collect()
}

/// Unseals `stream` in [`CHUNK_BYTES`] pushes, then replays every
/// layer's write-out back to back, and summarizes throughput. The image
/// is bit-identical to a one-shot [`crate::unseal()`].
///
/// # Errors
///
/// Propagates every unsealer violation (see [`StreamUnsealer`]).
pub fn measure(
    spec: &StreamSpec,
    stream: &[u8],
    dram: &DramConfig,
) -> Result<UnsealRun, SedaError> {
    let started = Instant::now();
    let mut unsealer = StreamUnsealer::new(spec.clone())?;
    for chunk in stream.chunks(CHUNK_BYTES) {
        unsealer.push(chunk)?;
    }
    let image = unsealer.finish()?;
    let mut sim = DramSim::new(dram.clone());
    for (&pa0, &len) in spec.layer_pas().iter().zip(&spec.lens) {
        sim.run_batch_packed(&layer_writes(pa0, len));
    }
    let seconds = started.elapsed().as_secs_f64();
    let payload_bytes = spec.total_bytes() as u64;
    Ok(UnsealRun {
        image,
        payload_bytes,
        blocks: spec.total_blocks(),
        gbps_sustained: payload_bytes as f64 / seconds.max(1e-9) / 1e9,
        replay_cycles: sim.elapsed_cycles(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seal::seal;
    use seda_adversary::ProtectConfig;

    fn spec() -> StreamSpec {
        StreamSpec {
            stream_id: 42,
            key_epoch: 1,
            config: ProtectConfig::matrix()[2],
            lens: vec![1024, 512, 2048],
            enc_key: [4; 16],
            mac_key: [5; 16],
            transport_key: [6; 16],
        }
    }

    fn dram() -> DramConfig {
        DramConfig::ddr4_with_bandwidth(1, 16.0e9)
    }

    #[test]
    fn chunked_measure_matches_one_shot_unseal() {
        let sp = spec();
        let plains: Vec<Vec<u8>> = sp
            .lens
            .iter()
            .enumerate()
            .map(|(i, &len)| vec![i as u8 + 1; len])
            .collect();
        let stream = seal(&sp, &plains).expect("seal");
        let run = measure(&sp, stream.bytes(), &dram()).expect("measure");
        assert_eq!(run.blocks, (1024 + 512 + 2048) / 64);
        assert_eq!(run.payload_bytes, 1024 + 512 + 2048);
        assert!(run.gbps_sustained > 0.0);
        assert!(run.replay_cycles > 0);
        let one_shot = crate::unseal(&sp, stream.bytes()).expect("one-shot");
        assert_eq!(run.image.offchip_bytes(), one_shot.offchip_bytes());
        assert_eq!(run.image.model_root(), one_shot.model_root());
        assert_eq!(
            run.image.read_model().expect("verifies"),
            plains,
            "chunked unseal round-trips the plaintext"
        );
    }

    #[test]
    fn measure_propagates_tamper_errors() {
        let sp = spec();
        let plains: Vec<Vec<u8>> = sp.lens.iter().map(|&len| vec![7u8; len]).collect();
        let mut stream = seal(&sp, &plains).expect("seal");
        stream.flip_bit(stream.frame_offset(10) + 20, 3);
        let err = measure(&sp, stream.bytes(), &dram()).expect_err("tamper detected");
        assert!(matches!(err, SedaError::Tag(_)), "{err:?}");
    }
}
