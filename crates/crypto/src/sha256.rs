//! SHA-256 (FIPS-180-4), used as the hash primitive of the integrity
//! verification engine.
//!
//! Secure-accelerator papers describe the MAC unit generically as a keyed
//! "Hash function"; we instantiate it with HMAC-SHA-256 truncated to the
//! 64-bit MACs the evaluation assumes (8 B MAC per protected block).

/// SHA-256 digest size in bytes.
pub const DIGEST_BYTES: usize = 32;

/// SHA-256 block size in bytes.
pub const BLOCK_BYTES: usize = 64;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_BYTES];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use seda_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let d = h.finalize();
/// assert_eq!(d[0], 0xba);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_BYTES],
    buffered: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0; BLOCK_BYTES],
            buffered: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buffered > 0 {
            let take = (BLOCK_BYTES - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered < BLOCK_BYTES {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        let (blocks, rest) = input.as_chunks::<BLOCK_BYTES>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    ///
    /// The padding (`0x80`, zeros, the 64-bit bit length) is written into
    /// the buffered block directly, spilling into a second block only when
    /// fewer than 9 bytes of the first remain.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buffered;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= BLOCK_BYTES - 8 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0; BLOCK_BYTES];
        }
        self.buffer[BLOCK_BYTES - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; DIGEST_BYTES];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }
}

/// The SHA-256 compression function: folds one 64-byte block into `state`.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_BYTES]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// An HMAC-SHA-256 (RFC 2104) key with its pads pre-absorbed.
///
/// [`new`](Self::new) hashes the key's ipad and opad blocks once and
/// keeps the two SHA-256 midstates, so each [`mac`](Self::mac) pays only
/// the compressions of the message and the outer digest: 3 instead of 5
/// for the 92–100 B messages the block and frame MACs sign.
///
/// # Examples
///
/// ```
/// use seda_crypto::sha256::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"Jefe");
/// let split = key.mac(&[b"what do ya ", b"want for nothing?"]);
/// assert_eq!(split, hmac_sha256(b"Jefe", b"what do ya want for nothing?"));
/// ```
#[derive(Debug, Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Derives the inner and outer midstates of `key` (a key longer than
    /// one block is hashed first, as RFC 2104 specifies).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_BYTES];
        if key.len() > BLOCK_BYTES {
            key_block[..DIGEST_BYTES].copy_from_slice(&Sha256::digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let pad = |byte: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|k| k ^ byte));
            h
        };
        Self {
            inner: pad(0x36),
            outer: pad(0x5c),
        }
    }

    /// HMAC over the concatenation of `parts`, absorbed in order without
    /// copying them into one buffer.
    pub fn mac(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// HMAC-SHA-256 (RFC 2104) over `data` under `key`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Digest {
    HmacKey::new(key).mac(&[data])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..300).map(|i| i as u8).collect();
        for split in [0usize, 1, 55, 56, 63, 64, 65, 128, 299] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    /// Checks one RFC 4231 case through both [`hmac_sha256`] and
    /// [`HmacKey`] (whole and byte-by-byte). `expected` may be a prefix of
    /// the digest, for the truncated case 5.
    fn rfc4231(key: &[u8], data: &[u8], expected: &str) {
        let one_shot = hex(&hmac_sha256(key, data));
        assert!(one_shot.starts_with(expected), "hmac_sha256: {one_shot}");
        let hk = HmacKey::new(key);
        assert_eq!(hex(&hk.mac(&[data])), one_shot, "HmacKey::mac");
        let bytes: Vec<&[u8]> = data.chunks(1).collect();
        assert_eq!(hex(&hk.mac(&bytes)), one_shot, "byte-by-byte parts");
    }

    /// RFC 4231 test case 1.
    #[test]
    fn hmac_rfc4231_case1() {
        rfc4231(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    /// RFC 4231 test case 2 (key shorter than the output).
    #[test]
    fn hmac_rfc4231_case2() {
        rfc4231(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    /// RFC 4231 test case 3 (50 bytes of 0xdd).
    #[test]
    fn hmac_rfc4231_case3() {
        rfc4231(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    /// RFC 4231 test case 4 (25-byte counting key).
    #[test]
    fn hmac_rfc4231_case4() {
        let key: Vec<u8> = (1..=25).collect();
        rfc4231(
            &key,
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        );
    }

    /// RFC 4231 test case 5 (output truncated to 128 bits).
    #[test]
    fn hmac_rfc4231_case5() {
        rfc4231(
            &[0x0c; 20],
            b"Test With Truncation",
            "a3b6167473100ee06e0c796c2955552b",
        );
    }

    /// RFC 4231 test case 6 (key longer than one block).
    #[test]
    fn hmac_rfc4231_case6() {
        rfc4231(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    /// RFC 4231 test case 7 (key and data both longer than one block).
    #[test]
    fn hmac_rfc4231_case7() {
        rfc4231(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    /// Message bytes for the boundary sweeps below: their prefixes of
    /// length 0..=200 cross the 55/56/63/64 padding edges three times.
    fn sweep_data() -> Vec<u8> {
        (0..200usize)
            .map(|i| (i as u8).wrapping_mul(31) ^ 0x6b)
            .collect()
    }

    /// Textbook RFC 2104 over the bare hasher: re-derives both pads per
    /// call and hashes one contiguous message, independent of `HmacKey`.
    fn reference_hmac(key: &[u8], data: &[u8]) -> Digest {
        let mut block = [0u8; BLOCK_BYTES];
        if key.len() > BLOCK_BYTES {
            block[..DIGEST_BYTES].copy_from_slice(&Sha256::digest(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&block.map(|k| k ^ 0x36));
        inner.update(data);
        let mut outer = Sha256::new();
        outer.update(&block.map(|k| k ^ 0x5c));
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// SHA-256 of the digests of every prefix length 0..=200, pinned from
    /// an independent implementation (Python `hashlib`), so a padding
    /// error at any length changes it.
    #[test]
    fn every_length_to_200_matches_pinned_digests() {
        let data = sweep_data();
        let mut all = Sha256::new();
        for n in 0..=data.len() {
            all.update(&Sha256::digest(&data[..n]));
        }
        assert_eq!(
            hex(&all.finalize()),
            "8b41a14f19b3f65a5ff776449109236064e195fc75e7dd757fc4f6dd6fe08291"
        );
    }

    /// The same sweep through HMAC under a short, a block-sized, and a
    /// hashed (over-long) key, pinned from Python `hmac`.
    #[test]
    fn hmac_every_length_to_200_matches_pinned_tags() {
        let data = sweep_data();
        for (key_len, expected) in [
            (
                16,
                "2bae3ee7c1634e5af326ca43417a9278df24d21321c733544ccbe67a71007019",
            ),
            (
                64,
                "2f0c894c9a2d3bbc9ae51fec80176a3c8db4ab56cd9b28aec6db62c97070feb0",
            ),
            (
                100,
                "a89a226f90054c40117222a6194fbc13e10d5075439a519ef7d58fb9cd649b09",
            ),
        ] {
            let key = vec![0x0f; key_len];
            let mut all = Sha256::new();
            for n in 0..=data.len() {
                all.update(&hmac_sha256(&key, &data[..n]));
            }
            assert_eq!(hex(&all.finalize()), expected, "{key_len}-byte key");
        }
    }

    /// Multi-part `HmacKey::mac` equals the one-shot reference for every
    /// message length 0..=200 split at every offset (and a three-way split
    /// through the middle of the tail).
    #[test]
    fn split_messages_match_the_one_shot_reference() {
        let data = sweep_data();
        let key = HmacKey::new(&[0x42; 16]);
        for len in 0..=data.len() {
            let msg = &data[..len];
            let want = reference_hmac(&[0x42; 16], msg);
            assert_eq!(key.mac(&[msg]), want, "len {len}");
            for split in 0..=len {
                let (head, tail) = msg.split_at(split);
                assert_eq!(key.mac(&[head, tail]), want, "len {len} split {split}");
                let (mid, last) = tail.split_at(tail.len() / 2);
                assert_eq!(
                    key.mac(&[head, mid, last]),
                    want,
                    "len {len} splits {split}/{}",
                    split + mid.len()
                );
            }
        }
    }
}
