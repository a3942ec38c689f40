//! Shared by the integration tests that hand-craft or reseal snapshot
//! bytes: the v3 checksum written out from the pseudocode in
//! `docs/SNAPSHOT_FORMAT.md` — one word at a time by byte index, nothing
//! shared with the crate's implementation — so a checksum bug cannot hide
//! by agreeing with itself, and a v3 twin of the hand-rolled 3-node
//! snapshot the equivalence suites load.
#![allow(dead_code)] // each test binary uses its own subset

/// `checksum64` of `docs/SNAPSHOT_FORMAT.md`.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const K1: u64 = 0x9E37_79B1_85EB_CA87;
    const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const K3: u64 = 0x1656_67B1_9E37_79F9;
    // The little-endian word at `at`, zero-extended past the end of input.
    let word = |at: usize| -> u64 {
        (0..8).filter(|i| at + i < bytes.len()).map(|i| u64::from(bytes[at + i]) << (8 * i)).sum()
    };
    let mix = |acc: u64, w: u64| (acc ^ w).wrapping_mul(K1).rotate_left(31);
    let mut lanes: [u64; 4] = [
        0x6A09_E667_F3BC_C908,
        0xBB67_AE85_84CA_A73B,
        0x3C6E_F372_FE94_F82B,
        0xA54F_F53A_5F1D_36F1,
    ];
    let striped = bytes.len() / 32 * 32;
    for at in (0..striped).step_by(8) {
        let lane = at / 8 % 4;
        lanes[lane] = mix(lanes[lane], word(at));
    }
    let mut h = lanes[0];
    for lane in &lanes[1..] {
        h = mix(h, *lane);
    }
    for at in (striped..bytes.len()).step_by(8) {
        h = mix(h, word(at));
    }
    h = mix(h, bytes.len() as u64);
    h = (h ^ (h >> 32)).wrapping_mul(K2);
    h = (h ^ (h >> 29)).wrapping_mul(K3);
    h ^ (h >> 32)
}

/// Recomputes a v3 snapshot's checksum over everything after the fixed 80
/// bytes (shard fields included) and stores it, so that only structural
/// validation can catch what a test forged.
pub fn reseal(bytes: &mut [u8]) {
    let sum = checksum64(&bytes[80..]);
    bytes[72..80].copy_from_slice(&sum.to_le_bytes());
}

/// The v3 snapshot bytes for the 3-node path `0 — 1 — 2` with edge weights
/// `w01`, `w12`, `k = 1` (singleton balls) and node 1 the only landmark,
/// written section by section from the format document: the only route for
/// the pair `(0, 2)` is the landmark sum `w01 + w12`.
pub fn near_max_snapshot_v3(w01: u64, w12: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    // u64 sections: columns (3×1), nearest-landmark distances, ball
    // distances (each node's singleton {self: 0}).
    for x in [w01, 0, w12, w01, 0, w12, 0, 0, 0] {
        payload.extend_from_slice(&x.to_le_bytes());
    }
    // u32 sections: landmarks [1]; nearest-landmark indices [0, 0, 0];
    // ball offsets [0, 1, 2, 3]; ball ids [0, 1, 2].
    for x in [1u32, 0, 0, 0, 0, 1, 2, 3, 0, 1, 2] {
        payload.extend_from_slice(&x.to_le_bytes());
    }

    let mut bytes = Vec::with_capacity(80 + payload.len());
    bytes.extend_from_slice(b"CCOS");
    bytes.extend_from_slice(&3u32.to_le_bytes());
    let sum = checksum64(&payload);
    for field in [3u64, 1, 0.25f64.to_bits(), 1, 0, 0, 0, payload.len() as u64, sum] {
        bytes.extend_from_slice(&field.to_le_bytes());
    }
    bytes.extend_from_slice(&payload);
    bytes
}
