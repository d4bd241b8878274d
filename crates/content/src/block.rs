//! Per-block integrity digests (data-plane verification).
//!
//! Bullet's data plane assumes cooperative peers: nothing in the paper
//! checks that a block a peer forwards actually carries the source's
//! bytes. This module adds the minimal primitive an integrity layer
//! needs — a deterministic per-block digest the source seals into every
//! data packet and every receiver can recompute and compare.
//!
//! The simulator carries no payload bytes (packets are sized, not
//! filled), so the digest is a keyed hash of the block's *identity* (its
//! sequence number) standing in for a content hash: a node that holds
//! the genuine block knows the sealed digest, a node relaying tampered
//! data carries a digest that differs from it. The mix is an
//! FxHash-style multiply-xor, seeded so a digest is never equal to its
//! own sequence number and cannot be forged by accident.

/// Computes the sealed digest of block `seq` — the value the source
/// stamps into every data packet carrying the block and every verifier
/// recomputes.
///
/// Deterministic, RNG-free and cheap (two rounds of an FxHash-style
/// rotate-xor-multiply), so verification can run on every received
/// packet without perturbing simulation behaviour.
pub fn block_digest(seq: u64) -> u64 {
    const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ seq.rotate_left(17);
    h = (h.rotate_left(5) ^ seq).wrapping_mul(K);
    h = (h.rotate_left(5) ^ seq.rotate_left(32)).wrapping_mul(K);
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The source and every verifier compute the same sealed digest, on
    /// any host: the values are pinned.
    #[test]
    fn sealed_meta_verifies() {
        for (seq, digest) in [
            (0, 0xf123_837e_42e2_b4f1),
            (1, 0x45d1_8e05_f373_b279),
            (7, 0x7a07_7467_d284_16a6),
            (1_000_000, 0xa950_6eeb_9112_e641),
            (u64::MAX, 0xbd5f_baca_95fb_407a),
        ] {
            assert_eq!(block_digest(seq), digest, "seq {seq}");
        }
    }

    /// A digest copied from a *different* block never verifies: no two
    /// blocks of a long stream share one, so there is no cross-block replay.
    #[test]
    fn tampered_digests_fail_verification() {
        let digests: std::collections::HashSet<u64> = (0..100_000u64).map(block_digest).collect();
        assert_eq!(digests.len(), 100_000);
    }

    #[test]
    fn digests_are_never_trivial() {
        for seq in 0..10_000u64 {
            let digest = block_digest(seq);
            assert_ne!(digest, seq, "digest equals its own seq");
            assert_ne!(digest, 0, "zero digest would be forgeable by default");
        }
    }
}
