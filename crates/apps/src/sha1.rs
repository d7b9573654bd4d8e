//! SHA-1, implemented from the FIPS 180-1 specification.
//!
//! UTS (§V-C) generates its unbalanced tree on the fly with SHA-1 as the
//! splittable random stream: each tree node owns a 20-byte digest, and child
//! `i`'s digest is `SHA1(parent_digest ‖ i)`. The hash quality is what makes
//! the tree both deterministic and statistically well-behaved, so we
//! implement the real function rather than substituting a toy mixer.
//!
//! There is one `compress`, over a block already split into sixteen
//! big-endian words: the 80-word message schedule is a rolling 16-word
//! window, and the four 20-round stages are four loops, each with its own
//! boolean function and constant. [`sha1`] feeds it whole blocks and the
//! padded tail. [`sha1_child`] — the UTS kernel, one call per tree node —
//! skips the byte staging: its 24-byte message always pads to the same
//! single block,
//!
//! ```text
//! w[0..5] = parent digest   w[5] = index   w[6] = 0x8000_0000
//! w[7..15] = 0              w[15] = 192 (the message length in bits)
//! ```

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 20;

/// A SHA-1 digest.
pub type Digest = [u8; DIGEST_LEN];

const H0: [u32; 5] = [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0];

/// Compress one 16-word block into the state.
///
/// The message schedule is a rolling window: `w[t & 15]` holds `W[t]` once
/// round `t` has run, so `W[t] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16])`
/// reads slots `t+13`, `t+8`, `t+2` and `t` (mod 16) and overwrites the last.
fn compress(state: &mut [u32; 5], mut w: [u32; 16]) {
    let [mut a, mut b, mut c, mut d, mut e] = *state;
    // Twenty rounds of one stage: `$f` is the stage's boolean function of
    // (b, c, d), `$k` its constant.
    macro_rules! stage {
        ($rounds:expr, $k:expr, $f:expr) => {
            for t in $rounds {
                if t >= 16 {
                    w[t & 15] = (w[(t + 13) & 15] ^ w[(t + 8) & 15] ^ w[(t + 2) & 15] ^ w[t & 15])
                        .rotate_left(1);
                }
                let f: u32 = $f;
                let tmp = a
                    .rotate_left(5)
                    .wrapping_add(f)
                    .wrapping_add(e)
                    .wrapping_add($k)
                    .wrapping_add(w[t & 15]);
                e = d;
                d = c;
                c = b.rotate_left(30);
                b = a;
                a = tmp;
            }
        };
    }
    stage!(0..20, 0x5A82_7999, (b & c) | (!b & d));
    stage!(20..40, 0x6ED9_EBA1, b ^ c ^ d);
    stage!(40..60, 0x8F1B_BCDC, (b & c) | (b & d) | (c & d));
    stage!(60..80, 0xCA62_C1D6, b ^ c ^ d);
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// The big-endian words of up to 64 bytes (a multiple of four), zero-filled
/// to a block.
fn be_words(bytes: &[u8]) -> [u32; 16] {
    let mut w = [0u32; 16];
    for (wi, chunk) in w.iter_mut().zip(bytes.chunks_exact(4)) {
        *wi = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    w
}

fn digest_of(state: [u32; 5]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, s) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&s.to_be_bytes());
    }
    out
}

/// SHA-1 of an arbitrary message.
pub fn sha1(msg: &[u8]) -> Digest {
    let mut state = H0;
    let mut chunks = msg.chunks_exact(64);
    for block in &mut chunks {
        compress(&mut state, be_words(block));
    }
    // Padding: 0x80, zeros, 64-bit big-endian bit length.
    let rem = chunks.remainder();
    let bitlen = (msg.len() as u64) * 8;
    let mut last = [0u8; 128];
    last[..rem.len()].copy_from_slice(rem);
    last[rem.len()] = 0x80;
    let blocks = if rem.len() + 9 <= 64 { 1 } else { 2 };
    last[blocks * 64 - 8..blocks * 64].copy_from_slice(&bitlen.to_be_bytes());
    for block in last[..blocks * 64].chunks_exact(64) {
        compress(&mut state, be_words(block));
    }
    digest_of(state)
}

/// The UTS child-derivation hash: `SHA1(parent ‖ child_index_be32)`, exactly
/// one compression. The 24-byte message pads to one fixed block, written
/// here as words: the digest, the index, the `0x80` terminator, zeros, and
/// the bit length 192.
pub fn sha1_child(parent: &Digest, index: u32) -> Digest {
    let mut w = be_words(parent);
    w[5] = index;
    w[6] = 0x8000_0000;
    w[15] = 24 * 8;
    let mut state = H0;
    compress(&mut state, w);
    digest_of(state)
}

/// Interpret the first 8 digest bytes as a uniform value in `[0, 1)`.
pub fn digest_to_unit(d: &Digest) -> f64 {
    let x = u64::from_be_bytes(d[..8].try_into().expect("8 bytes"));
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-1 / RFC 3174 test vectors.
    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(
            hex(&sha1(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
        assert_eq!(
            hex(&sha1(&[0x61u8; 1_000_000])),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn padding_boundaries() {
        // 55, 56 and 64 bytes exercise the 1-vs-2 padding block cases.
        for len in [55usize, 56, 63, 64, 65, 119, 120] {
            let msg = vec![0x5au8; len];
            let d = sha1(&msg);
            // Self-consistency: same input, same output; different length,
            // different output.
            assert_eq!(d, sha1(&msg));
            assert_ne!(d, sha1(&vec![0x5au8; len + 1]));
        }
    }

    #[test]
    fn child_derivation_differs_by_index() {
        let root = sha1(b"root");
        let c0 = sha1_child(&root, 0);
        let c1 = sha1_child(&root, 1);
        assert_ne!(c0, c1);
        // Deterministic.
        assert_eq!(c0, sha1_child(&root, 0));
    }

    /// `sha1_child` builds its padded block by hand; `sha1` over the same
    /// 24 bytes goes through the general padding.
    fn child_by_bytes(parent: &Digest, index: u32) -> Digest {
        let mut msg = [0u8; 24];
        msg[..20].copy_from_slice(parent);
        msg[20..].copy_from_slice(&index.to_be_bytes());
        sha1(&msg)
    }

    #[test]
    fn child_equals_sha1_of_parent_and_index_along_a_chain() {
        let mut d = sha1(b"chain");
        for step in 0..5000u32 {
            let index = step.wrapping_mul(0x9E37_79B9) >> (step % 32);
            let child = sha1_child(&d, index);
            assert_eq!(
                child,
                child_by_bytes(&d, index),
                "step {step}, index {index}"
            );
            d = child;
        }
    }

    proptest! {
        #[test]
        fn child_equals_sha1_of_parent_and_index(
            hi in 0u64..u64::MAX,
            mid in 0u64..u64::MAX,
            lo in 0u32..u32::MAX,
            index in 0u32..u32::MAX,
        ) {
            let mut d = [0u8; DIGEST_LEN];
            d[..8].copy_from_slice(&hi.to_be_bytes());
            d[8..16].copy_from_slice(&mid.to_be_bytes());
            d[16..].copy_from_slice(&lo.to_be_bytes());
            for index in [index, !index, 0, u32::MAX] {
                prop_assert_eq!(sha1_child(&d, index), child_by_bytes(&d, index));
            }
        }
    }

    #[test]
    fn unit_conversion_in_range_and_uniformish() {
        let mut d = sha1(b"seed");
        let mut sum = 0.0;
        for _ in 0..2000 {
            let u = digest_to_unit(&d);
            assert!((0.0..1.0).contains(&u));
            sum += u;
            d = sha1_child(&d, 7);
        }
        let mean = sum / 2000.0;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
    }
}
