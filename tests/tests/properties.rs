//! Property-based integration tests: randomised invariants across the
//! stack (proptest).

use proptest::prelude::*;
use sos_ecc::{BchCode, EccScheme, PageCodec, PageStatus};
use sos_flash::{CellDensity, DeviceConfig, OobMeta, ProgramMode};
use sos_ftl::{Ftl, FtlConfig, FtlError, WearLevelingConfig};
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BCH corrects any error pattern within t, for arbitrary payloads.
    #[test]
    fn bch_roundtrip_any_payload(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        positions in proptest::collection::hash_set(0usize..2048, 0..5),
    ) {
        let code = BchCode::new(13, 8);
        let parity = code.encode(&payload);
        let mut data = payload.clone();
        let mut rparity = parity.clone();
        let bits = payload.len() * 8;
        let applied: Vec<usize> = positions.into_iter().filter(|&p| p < bits).collect();
        for &p in &applied {
            data[p / 8] ^= 1 << (p % 8);
        }
        let corrected = code.decode(&mut data, &mut rparity).expect("within t");
        prop_assert_eq!(corrected, applied.len());
        prop_assert_eq!(data, payload);
    }

    /// The page codec roundtrips arbitrary payload sizes cleanly for
    /// every scheme.
    #[test]
    fn page_codec_clean_roundtrip(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<u8> = (0..2048).map(|_| rng.gen()).collect();
        for scheme in [
            EccScheme::None,
            EccScheme::DetectOnly,
            EccScheme::Bch { t: 8 },
            EccScheme::PrioritySplit { t: 8, protected_chunks: 1 },
        ] {
            let codec = PageCodec::new(scheme, 2048, 128).expect("fits");
            let raw = codec.encode(&data).expect("encodes");
            let report = codec.decode(&raw).expect("decodes");
            prop_assert_eq!(report.status, PageStatus::Intact);
            prop_assert_eq!(&report.data, &data);
        }
    }

    /// FTL behaves like a map under arbitrary write/trim/overwrite
    /// sequences (on TLC, where fresh reads are error-free).
    #[test]
    fn ftl_is_a_linearisable_map(
        ops in proptest::collection::vec((0u8..3, 0u64..64, any::<u8>()), 1..120),
    ) {
        let mut config = FtlConfig::conventional(ProgramMode::native(CellDensity::Tlc));
        config.ecc = EccScheme::DetectOnly;
        config.wear_leveling = WearLevelingConfig::disabled();
        let mut ftl = Ftl::new(&DeviceConfig::tiny(CellDensity::Tlc), config);
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for (kind, lpn, value) in ops {
            match kind {
                0 => {
                    let page = vec![value; ftl.page_bytes()];
                    ftl.write(lpn, &page).expect("write");
                    reference.insert(lpn, value);
                }
                1 => {
                    ftl.trim(lpn).expect("trim");
                    reference.remove(&lpn);
                }
                _ => match (ftl.read(lpn), reference.get(&lpn)) {
                    (Ok(result), Some(&expected)) => {
                        prop_assert_eq!(result.data, vec![expected; 2048]);
                    }
                    (Err(FtlError::NotWritten(_)), None) => {}
                    (got, want) => {
                        return Err(TestCaseError::fail(format!(
                            "lpn {lpn}: ftl {got:?} vs reference {want:?}"
                        )));
                    }
                },
            }
        }
        // Final sweep: every mapping agrees.
        for (&lpn, &value) in &reference {
            let result = ftl.read(lpn).expect("mapped");
            prop_assert_eq!(result.data, vec![value; 2048]);
        }
    }

    /// Workload generation is deterministic and fill never exceeds
    /// capacity by more than one day's writes.
    #[test]
    fn workload_fill_is_bounded(seed in any::<u64>(), days in 1u32..20) {
        use sos_workload::{DeviceLife, UsageProfile, WorkloadConfig};
        let capacity = 64u64 << 20;
        let config = WorkloadConfig::phone(capacity, UsageProfile::Heavy, seed);
        let mut life = DeviceLife::new(config);
        for _ in 0..days {
            life.next_day();
            prop_assert!(
                life.fill_bytes() < capacity,
                "fill {} exceeded capacity", life.fill_bytes()
            );
        }
    }

    /// Hostfs shrink never loses readable data when it reports success.
    #[test]
    fn hostfs_shrink_preserves_data(
        sizes in proptest::collection::vec(1usize..2048, 1..8),
        shrink_to in 24u64..64,
    ) {
        use sos_hostfs::{HostFs, MemStore};
        let mut fs = HostFs::format(MemStore::new(64, 256));
        let mut files = Vec::new();
        for (index, &size) in sizes.iter().enumerate() {
            let id = fs.create(&format!("/f{index}"), 0).expect("create");
            let content = vec![(index as u8).wrapping_add(1); size];
            if fs.write(id, 0, &content).is_ok() {
                files.push((id, content));
            }
        }
        match fs.shrink(shrink_to) {
            Ok(_) => {
                prop_assert!(fs.capacity_pages() == shrink_to);
                for (id, content) in &files {
                    let read = fs.read(*id, 0, content.len()).expect("readable");
                    prop_assert_eq!(&read, content);
                }
            }
            Err(_) => {
                // Shrink refused: everything still intact at old size.
                for (id, content) in &files {
                    let read = fs.read(*id, 0, content.len()).expect("readable");
                    prop_assert_eq!(&read, content);
                }
            }
        }
    }

    /// The OOB seal's own bitwise CRC equals `sos_ecc::crc32` over the
    /// record's 18-byte layout (LE `lpn`, LE `seq`, `stream`, kind byte
    /// 0 for data and 1 for checkpoint), so folding it into the ECC
    /// crate changes no stored seal.
    #[test]
    fn oob_seal_is_the_ecc_crc32(lpn in any::<u64>(), seq in any::<u64>(), stream in any::<u8>()) {
        for (meta, kind) in [
            (OobMeta::data(lpn, seq, stream), 0u8),
            (OobMeta::checkpoint(lpn, seq, stream), 1u8),
        ] {
            let mut layout = Vec::with_capacity(18);
            layout.extend_from_slice(&lpn.to_le_bytes());
            layout.extend_from_slice(&seq.to_le_bytes());
            layout.extend_from_slice(&[stream, kind]);
            prop_assert_eq!(meta.crc, sos_ecc::crc32(&layout));
        }
    }
}
