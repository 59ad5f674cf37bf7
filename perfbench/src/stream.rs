//! `stream_provision`: seal and unseal of a sealed `trf` provisioning
//! stream tiled to megabytes, with payload and keys drawn from the seed.
//!
//! A pass seals the payload (`seda_stream::seal`) and unseals it through
//! `StreamUnsealer::push` in 64 KiB chunks, then `finish`. Every unsealed
//! image must equal an at-rest sealing of the same plaintext, and a
//! stream with one flipped bit must be rejected with a typed error.

use crate::stats::Metric;
use crate::trace::Tracer;
use crate::{Checks, SplitMix, Workload};
use seda::crypto::ctr::{AesCtr, CounterSeed};
use seda::crypto::mac::{BlockPosition, PositionBoundMac};
use seda::crypto::sha256::hmac_sha256;
use seda::models::zoo;
use seda::SedaError;
use seda_adversary::{ProtectConfig, ProtectedImage, BLOCK};
use seda_stream::{model_lens, seal, SealedStream, StreamSpec, StreamUnsealer, FRAME_BYTES};
use std::collections::BTreeMap;
use std::hint::black_box;

/// How many copies of the `trf` image geometry make up the stream
/// (about 2.4 MB of payload).
const TILES: usize = 16;
/// Bytes handed to each `StreamUnsealer::push`.
const CHUNK: usize = 64 * 1024;

pub struct Stream {
    spec: StreamSpec,
    plains: Vec<Vec<u8>>,
    payload: u64,
    tamper_seed: u64,
    /// Root and ciphertext of the at-rest sealing, and the first sealed
    /// stream: every later pass must reproduce them.
    reference: Option<(ProtectedImage, Vec<u8>)>,
    seal: Sample,
    unseal: Sample,
    layers: LayerTotals,
}

#[derive(Default)]
struct Sample {
    secs: f64,
    bytes: u64,
}

#[derive(Default)]
struct LayerTotals {
    passes: u32,
    frames: u64,
    tamper_rejected: u64,
    aes_ns_per_block: Vec<f64>,
    hmac_ns_per_frame: Vec<f64>,
    position_mac_ns_per_block: Vec<f64>,
    unseal_s: f64,
}

impl Stream {
    pub fn new(seed: u64) -> Result<Self, String> {
        let trf = zoo::by_name("trf").ok_or("zoo has no trf model")?;
        let base = model_lens(&trf);
        let lens: Vec<usize> = std::iter::repeat_n(base, TILES).flatten().collect();
        let mut rng = SplitMix::new(seed);
        let mut key = || {
            let mut k = [0u8; 16];
            rng.fill(&mut k);
            k
        };
        let (enc_key, mac_key, transport_key) = (key(), key(), key());
        let spec = StreamSpec {
            stream_id: rng.next_u64(),
            key_epoch: 1,
            config: ProtectConfig::by_name("layer-mac").ok_or("no layer-mac config")?,
            lens,
            enc_key,
            mac_key,
            transport_key,
        };
        let plains: Vec<Vec<u8>> = spec
            .lens
            .iter()
            .map(|&len| {
                let mut layer = vec![0u8; len];
                rng.fill(&mut layer);
                layer
            })
            .collect();
        Ok(Self {
            payload: spec.total_bytes() as u64,
            spec,
            plains,
            tamper_seed: rng.next_u64(),
            reference: None,
            seal: Sample::default(),
            unseal: Sample::default(),
            layers: LayerTotals::default(),
        })
    }

    /// Times the crypto kernels the stream runs on, over this pass's own
    /// frames: AES-CTR per 64 B block, HMAC-SHA256 per 88 B frame, and the
    /// position-bound MAC per block.
    fn time_kernels(&mut self, tr: &mut Tracer, sealed: &SealedStream) {
        let frames: Vec<&[u8]> = sealed.bytes()[sealed.header_len()..]
            .chunks_exact(FRAME_BYTES)
            .collect();
        let n = frames.len() as f64;
        let ct = |f: &[u8]| {
            let mut b = [0u8; BLOCK];
            b.copy_from_slice(&f[16..16 + BLOCK]);
            b
        };

        let aes = AesCtr::new(self.spec.enc_key);
        let span = tr.enter("crypto.aes_ctr");
        for (i, f) in frames.iter().enumerate() {
            let mut block = ct(f);
            aes.apply_keystream(CounterSeed::new(i as u64 * BLOCK as u64, 1), &mut block);
            black_box(&block);
        }
        let secs = tr.exit(span);
        self.layers.aes_ns_per_block.push(secs * 1e9 / n);

        let span = tr.enter("crypto.hmac");
        for f in &frames {
            black_box(hmac_sha256(&self.spec.transport_key, f));
        }
        let secs = tr.exit(span);
        self.layers.hmac_ns_per_frame.push(secs * 1e9 / n);

        let mac = PositionBoundMac::new(self.spec.mac_key);
        let span = tr.enter("crypto.position_mac");
        for (i, f) in frames.iter().enumerate() {
            let pos = BlockPosition::new(0, 0, i as u32);
            black_box(mac.tag(&ct(f), i as u64 * BLOCK as u64, 1, pos));
        }
        let secs = tr.exit(span);
        self.layers.position_mac_ns_per_block.push(secs * 1e9 / n);
    }

    fn unseal_stream(
        &self,
        tr: &mut Tracer,
        bytes: &[u8],
    ) -> (Result<ProtectedImage, SedaError>, f64) {
        let span = tr.enter("stream.push");
        let pushed = StreamUnsealer::new(self.spec.clone()).and_then(|mut u| {
            bytes.chunks(CHUNK).try_for_each(|c| u.push(c))?;
            Ok(u)
        });
        let mut secs = tr.exit(span);
        let span = tr.enter("stream.finish");
        let image = pushed.and_then(StreamUnsealer::finish);
        secs += tr.exit(span);
        (image, secs)
    }
}

impl Workload for Stream {
    /// Seals the plaintext at rest — the reference every unseal must
    /// reproduce — and checks that a one-bit flip is rejected.
    fn prepare(&mut self, checks: &mut Checks) {
        let mut at_rest = ProtectedImage::new(
            self.spec.config,
            &self.spec.lens,
            self.spec.enc_key,
            self.spec.mac_key,
        )
        .expect("valid geometry");
        for (layer, plain) in self.plains.iter().enumerate() {
            at_rest
                .write_layer(layer, plain)
                .expect("layer fits its region");
        }
        let sealed = seal(&self.spec, &self.plains).expect("valid stream spec");

        let mut tampered = sealed.clone();
        let frame = (self.tamper_seed % sealed.frame_count() as u64) as usize;
        let offset = sealed.frame_offset(frame) + (self.tamper_seed >> 32) as usize % FRAME_BYTES;
        tampered.flip_bit(offset, (self.tamper_seed >> 8) as u8 % 8);
        let (verdict, _) = self.unseal_stream(&mut Tracer::new(false), tampered.bytes());
        let rejected = verdict.is_err();
        checks.check(rejected, || {
            format!("a bit flip at stream byte {offset} was accepted")
        });
        self.layers.tamper_rejected += u64::from(rejected);
        self.reference = Some((at_rest, sealed.into_bytes()));
    }

    fn pass(&mut self, tr: &mut Tracer, checks: &mut Checks) -> f64 {
        let pass = tr.enter("stream.pass");
        let span = tr.enter("stream.seal");
        let sealed = seal(&self.spec, &self.plains);
        let seal_s = tr.exit(span);
        let Ok(sealed) = sealed else {
            checks.check(false, || "sealing a valid spec failed".to_owned());
            return tr.exit(pass);
        };
        let (image, unseal_s) = self.unseal_stream(tr, sealed.bytes());
        let wall = tr.exit(pass);

        let (at_rest, first) = self.reference.as_ref().expect("prepare ran");
        checks.check(sealed.bytes() == first.as_slice(), || {
            "sealing is not deterministic".to_owned()
        });
        let same = image.as_ref().is_ok_and(|img| {
            img.model_root() == at_rest.model_root()
                && img.offchip_bytes() == at_rest.offchip_bytes()
        });
        checks.check(same, || match &image {
            Ok(_) => "unsealed image differs from the at-rest sealing".to_owned(),
            Err(e) => format!("clean stream rejected: {e}"),
        });

        self.seal.secs += seal_s;
        self.seal.bytes += self.payload;
        self.unseal.secs += unseal_s;
        self.unseal.bytes += self.payload;
        if tr.on() {
            self.layers.passes += 1;
            self.layers.frames += sealed.frame_count() as u64;
            self.layers.unseal_s += unseal_s;
            self.time_kernels(tr, &sealed);
        }
        wall
    }

    fn clear_samples(&mut self) {
        self.seal = Sample::default();
        self.unseal = Sample::default();
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let mb_s = |s: &Sample| s.bytes as f64 / 1e6 / s.secs;
        vec![
            Metric::new("seal_mb_s", mb_s(&self.seal), "MB/s"),
            Metric::new("unseal_mb_s", mb_s(&self.unseal), "MB/s"),
        ]
    }

    fn per_layer(&self, self_s: &BTreeMap<&str, f64>) -> Vec<Metric> {
        let lt = &self.layers;
        let passes = f64::from(lt.passes.max(1));
        let per_pass = |name: &str| self_s.get(name).copied().unwrap_or(0.0) / passes;
        let med = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                crate::stats::median(xs)
            }
        };
        let (aes, hmac, pmac) = (
            med(&lt.aes_ns_per_block),
            med(&lt.hmac_ns_per_frame),
            med(&lt.position_mac_ns_per_block),
        );
        // Unseal verifies each frame's chained transport MAC (an HMAC over
        // the ciphertext and position) and recomputes the block's storage
        // MAC (a position-bound MAC): estimated from the kernel costs.
        let est_crypto_s = lt.frames as f64 * (hmac + pmac) * 1e-9;
        vec![
            Metric::new("crypto.aes_ctr_ns_per_block", aes, "ns"),
            Metric::new("crypto.hmac_ns_per_frame", hmac, "ns"),
            Metric::new("crypto.position_mac_ns_per_block", pmac, "ns"),
            Metric::new(
                "crypto.share_of_unseal",
                est_crypto_s / lt.unseal_s.max(f64::MIN_POSITIVE),
                "ratio_est",
            ),
            Metric::new("stream.seal_s", per_pass("stream.seal"), "s"),
            Metric::new("stream.push_s", per_pass("stream.push"), "s"),
            Metric::new("stream.finish_s", per_pass("stream.finish"), "s"),
            Metric::new("stream.frames", lt.frames as f64 / passes, "count"),
            Metric::new("stream.payload_bytes", self.payload as f64, "bytes"),
            Metric::new("stream.tamper_rejected", lt.tamper_rejected as f64, "count"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_matches_the_at_rest_sealing_and_a_bit_flip_is_rejected() {
        let mut s = Stream::new(9).expect("trf geometry");
        let mut checks = Checks::default();
        s.prepare(&mut checks);
        s.pass(&mut Tracer::new(false), &mut checks);
        assert_eq!((checks.attempted, checks.failed), (3, 0));
        assert_eq!(s.layers.tamper_rejected, 1);
        assert!(s.payload > 2_000_000);

        // A payload that drifts from the reference must fail the checks.
        s.plains[0][0] ^= 1;
        s.pass(&mut Tracer::new(false), &mut checks);
        assert_eq!(checks.failed, 2);
    }
}
