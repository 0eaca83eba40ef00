//! Property-based tests for the coding stack.

use proptest::prelude::*;
use sos_ecc::{crc32, BchCode};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Systematic encoding: the parity depends only on the data, and
    /// encode is deterministic.
    #[test]
    fn bch_encode_is_deterministic(data in proptest::collection::vec(any::<u8>(), 1..200)) {
        let code = BchCode::new(13, 4);
        prop_assert_eq!(code.encode(&data), code.encode(&data));
    }

    /// Any error pattern of weight <= t is corrected exactly, wherever it
    /// lands (data or parity).
    #[test]
    fn bch_corrects_weight_le_t(
        data in proptest::collection::vec(any::<u8>(), 1..128),
        raw_positions in proptest::collection::hash_set(0usize..1500, 0..4),
    ) {
        let code = BchCode::new(13, 4);
        let parity = code.encode(&data);
        let total_bits = data.len() * 8 + code.parity_bits();
        let positions: Vec<usize> =
            raw_positions.into_iter().map(|p| p % total_bits).collect::<std::collections::HashSet<_>>().into_iter().collect();
        let mut rdata = data.clone();
        let mut rparity = parity.clone();
        for &p in &positions {
            if p < code.parity_bits() {
                rparity[p / 8] ^= 1 << (p % 8);
            } else {
                let q = p - code.parity_bits();
                rdata[q / 8] ^= 1 << (q % 8);
            }
        }
        let corrected = code.decode(&mut rdata, &mut rparity).expect("within t");
        prop_assert_eq!(corrected, positions.len());
        prop_assert_eq!(rdata, data);
        prop_assert_eq!(rparity, parity);
    }

    /// CRC32 is invariant under concatenation splits (incremental == one
    /// shot) and detects any single-bit flip.
    #[test]
    fn crc_incremental_and_sensitivity(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        split in 0usize..512,
        flip in 0usize..4096,
    ) {
        let split = split % data.len();
        let mut incremental = sos_ecc::Crc32::new();
        incremental.update(&data[..split]);
        incremental.update(&data[split..]);
        prop_assert_eq!(incremental.finalize(), crc32(&data));

        let mut corrupted = data.clone();
        let bit = flip % (data.len() * 8);
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(crc32(&corrupted), crc32(&data));
    }
}
