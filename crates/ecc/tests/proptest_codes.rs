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

    /// Linearity, the identity parity on demand rests on: decoding a
    /// received word `c ⊕ e` and decoding the error pattern `e` alone
    /// return the same result and flip the same bits, for weights up to
    /// 3t — uncorrectable words and miscorrections included. So does
    /// `decode_pattern` on `e`'s raw position list, where a position
    /// listed twice cancels.
    #[test]
    fn bch_decode_of_error_pattern_matches_received_word(
        strong in any::<bool>(),
        data in proptest::collection::vec(any::<u8>(), 1..=512),
        weight_seed in any::<usize>(),
        raw_positions in proptest::collection::vec(any::<usize>(), 54),
        repeats in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let t = if strong { 18 } else { 8 };
        let code = BchCode::new(13, t);
        let p = code.parity_bits();
        let total_bits = data.len() * 8 + p;
        let weight = weight_seed % (3 * t + 1);
        let mut list: Vec<usize> =
            raw_positions.iter().take(weight).map(|&r| r % total_bits).collect();
        for &r in &repeats {
            if !list.is_empty() {
                list.push(list[r % list.len()]);
            }
        }
        let flip = |data: &mut [u8], parity: &mut [u8], pos: usize| {
            if pos < p {
                parity[pos / 8] ^= 1 << (pos % 8);
            } else {
                data[(pos - p) / 8] ^= 1 << ((pos - p) % 8);
            }
        };
        // The received word c ⊕ e and the pattern e.
        let parity = code.encode(&data);
        let (mut rdata, mut rparity) = (data.clone(), parity.clone());
        let mut edata = vec![0u8; data.len()];
        let mut eparity = vec![0u8; parity.len()];
        for &pos in &list {
            flip(&mut rdata, &mut rparity, pos);
            flip(&mut edata, &mut eparity, pos);
        }
        let (rdata_in, rparity_in) = (rdata.clone(), rparity.clone());
        let (edata_in, eparity_in) = (edata.clone(), eparity.clone());
        let received = code.decode(&mut rdata, &mut rparity);
        let pattern = code.decode(&mut edata, &mut eparity);
        prop_assert_eq!(received, pattern);
        let flips = |out: &[u8], input: &[u8]| -> Vec<u8> {
            out.iter().zip(input).map(|(a, b)| a ^ b).collect()
        };
        prop_assert_eq!(flips(&rdata, &rdata_in), flips(&edata, &edata_in));
        prop_assert_eq!(flips(&rparity, &rparity_in), flips(&eparity, &eparity_in));
        // The position list, repeats included, decoded directly.
        let (mut pdata, mut pparity) = (vec![0u8; data.len()], vec![0u8; parity.len()]);
        let listed = code.decode_pattern(&list, data.len() * 8, |pos| {
            flip(&mut pdata, &mut pparity, pos)
        });
        prop_assert_eq!(listed, received);
        prop_assert_eq!(pdata, flips(&rdata, &rdata_in));
        prop_assert_eq!(pparity, flips(&rparity, &rparity_in));
    }

    /// CRC-32 detects any single-bit flip.
    #[test]
    fn crc_detects_any_single_bit_flip(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        flip in 0usize..4096,
    ) {
        let mut corrupted = data.clone();
        let bit = flip % (data.len() * 8);
        corrupted[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(crc32(&corrupted), crc32(&data));
    }
}
