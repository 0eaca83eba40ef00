//! Zoned (ZNS-style) host-managed interface.
//!
//! §4.3: "the device can manage data cooperatively with the host OS
//! through SSD-specific abstractions, such as multi-stream or zoned
//! interfaces, where the host is responsible for placing data blocks in
//! relevant streams/zones with different management policies". The
//! multi-stream path is the FDP-style placement API
//! ([`crate::placement`]: reclaim units addressed through
//! [`crate::placement::PlacementHandle`]); this
//! module is the zoned alternative: fixed zones of physical blocks,
//! append-only write pointers, explicit resets — and, as the SOS twist,
//! a per-zone *program mode* chosen at reset time, so the host can run
//! pseudo-QLC zones next to native-PLC zones on the same die.

use sos_ecc::{CodecError, DecodeReport, PageCodec};
use sos_flash::{DeviceConfig, FlashDevice, FlashError, PageAddr, ProgramMode};

/// State of one zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneState {
    /// Erased, nothing written.
    Empty,
    /// Partially written; appends allowed at the write pointer.
    Open,
    /// Explicitly finished or full; read-only until reset.
    Full,
    /// Taken out of service (block failures).
    Offline,
}

/// Errors from zoned operations.
#[derive(Debug, Clone, PartialEq)]
pub enum ZnsError {
    /// Zone id beyond the device.
    BadZone(u32),
    /// Operation not allowed in the zone's state.
    WrongState {
        /// The zone.
        zone: u32,
        /// Its current state.
        state: ZoneState,
    },
    /// Append past the zone capacity.
    ZoneFull(u32),
    /// Read at/after the write pointer.
    BeyondWritePointer {
        /// The zone.
        zone: u32,
        /// Current write pointer (pages).
        write_pointer: u64,
    },
    /// Payload must be exactly one page.
    WrongDataLength {
        /// Expected bytes.
        expected: usize,
        /// Got bytes.
        got: usize,
    },
    /// Underlying flash failure.
    Device(FlashError),
    /// Codec configuration failure.
    Codec(CodecError),
}

impl std::fmt::Display for ZnsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZnsError::BadZone(z) => write!(f, "zone {z} out of range"),
            ZnsError::WrongState { zone, state } => {
                write!(
                    f,
                    "zone {zone} in state {state:?} does not allow this operation"
                )
            }
            ZnsError::ZoneFull(z) => write!(f, "zone {z} full"),
            ZnsError::BeyondWritePointer {
                zone,
                write_pointer,
            } => {
                write!(
                    f,
                    "read beyond write pointer {write_pointer} in zone {zone}"
                )
            }
            ZnsError::WrongDataLength { expected, got } => {
                write!(f, "wrong data length: expected {expected}, got {got}")
            }
            ZnsError::Device(e) => write!(f, "device: {e}"),
            ZnsError::Codec(e) => write!(f, "codec: {e}"),
        }
    }
}

impl std::error::Error for ZnsError {}

impl From<FlashError> for ZnsError {
    fn from(e: FlashError) -> Self {
        ZnsError::Device(e)
    }
}

#[derive(Debug, Clone)]
struct ZoneInfo {
    state: ZoneState,
    mode: ProgramMode,
    /// Next page offset to append (in zone-relative pages).
    write_pointer: u64,
    /// First physical block of the zone.
    first_block: u64,
}

/// A zoned device: physical blocks grouped into host-managed zones.
#[derive(Debug)]
pub struct ZonedDevice {
    device: FlashDevice,
    codec: PageCodec,
    zones: Vec<ZoneInfo>,
    blocks_per_zone: u32,
}

impl ZonedDevice {
    /// Creates a zoned device with `blocks_per_zone` physical blocks per
    /// zone and the given page ECC scheme.
    ///
    /// # Panics
    ///
    /// Panics if `blocks_per_zone` is zero or the ECC does not fit the
    /// spare area (configuration errors). Use [`ZonedDevice::try_new`]
    /// to handle these as errors instead.
    pub fn new(config: &DeviceConfig, blocks_per_zone: u32, ecc: sos_ecc::EccScheme) -> Self {
        match Self::try_new(config, blocks_per_zone, ecc) {
            Ok(device) => device,
            Err(e) => panic!("invalid zoned-device configuration: {e}"),
        }
    }

    /// Creates a zoned device, reporting ECC/spare-area configuration
    /// mismatches as errors rather than panicking.
    pub fn try_new(
        config: &DeviceConfig,
        blocks_per_zone: u32,
        ecc: sos_ecc::EccScheme,
    ) -> Result<Self, ZnsError> {
        assert!(blocks_per_zone >= 1);
        let device = FlashDevice::new(config);
        let geometry = *device.geometry();
        let codec = PageCodec::new(
            ecc,
            geometry.page_bytes as usize,
            geometry.spare_bytes as usize,
        )
        .map_err(ZnsError::Codec)?;
        let zone_count = geometry.total_blocks() / blocks_per_zone as u64;
        let mode = ProgramMode::native(device.physical_density());
        let zones = (0..zone_count)
            .map(|z| ZoneInfo {
                state: ZoneState::Empty,
                mode,
                write_pointer: 0,
                first_block: z * blocks_per_zone as u64,
            })
            .collect();
        Ok(ZonedDevice {
            device,
            codec,
            zones,
            blocks_per_zone,
        })
    }

    /// Number of zones.
    pub fn zone_count(&self) -> u32 {
        u32::try_from(self.zones.len()).unwrap_or(u32::MAX)
    }

    /// Page payload size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.codec.data_bytes()
    }

    /// Capacity of a zone in pages under its current program mode.
    pub fn zone_capacity(&self, zone: u32) -> Result<u64, ZnsError> {
        let info = self.info(zone)?;
        let usable = self
            .device
            .usable_pages(info.first_block)
            .map_err(ZnsError::from)?;
        Ok(usable as u64 * self.blocks_per_zone as u64)
    }

    /// A zone's state.
    pub fn zone_state(&self, zone: u32) -> Result<ZoneState, ZnsError> {
        Ok(self.info(zone)?.state)
    }

    /// A zone's write pointer (pages appended so far).
    pub fn write_pointer(&self, zone: u32) -> Result<u64, ZnsError> {
        Ok(self.info(zone)?.write_pointer)
    }

    /// A zone's program mode.
    pub fn zone_mode(&self, zone: u32) -> Result<ProgramMode, ZnsError> {
        Ok(self.info(zone)?.mode)
    }

    /// Advances the simulated clock.
    pub fn advance_days(&mut self, days: f64) {
        self.device.advance_days(days);
    }

    fn info(&self, zone: u32) -> Result<&ZoneInfo, ZnsError> {
        self.zones.get(zone as usize).ok_or(ZnsError::BadZone(zone))
    }

    /// Maps a zone-relative page offset to a physical address.
    fn page_addr(&self, info: &ZoneInfo, offset: u64) -> Result<PageAddr, ZnsError> {
        let usable = self.device.usable_pages(info.first_block)? as u64;
        let block = info.first_block + offset.checked_div(usable).unwrap_or(0);
        let page = u32::try_from(offset.checked_rem(usable).unwrap_or(0)).unwrap_or(u32::MAX);
        Ok(self
            .device
            .geometry()
            .page_addr(block * self.device.geometry().pages_per_block as u64 + page as u64))
    }

    /// Appends one page to a zone, returning its zone-relative offset.
    pub fn append(&mut self, zone: u32, data: &[u8]) -> Result<u64, ZnsError> {
        if data.len() != self.page_bytes() {
            return Err(ZnsError::WrongDataLength {
                expected: self.page_bytes(),
                got: data.len(),
            });
        }
        let capacity = self.zone_capacity(zone)?;
        let info = self.info(zone)?.clone();
        match info.state {
            ZoneState::Empty | ZoneState::Open => {}
            state => return Err(ZnsError::WrongState { zone, state }),
        }
        if info.write_pointer >= capacity {
            return Err(ZnsError::ZoneFull(zone));
        }
        let raw = self.codec.encode(data).map_err(ZnsError::Codec)?;
        let addr = self.page_addr(&info, info.write_pointer)?;
        match self.device.program(addr, &raw) {
            Ok(_) => {}
            Err(FlashError::ProgramFailed(_)) | Err(FlashError::BadBlock(_)) => {
                self.zones[zone as usize].state = ZoneState::Offline;
                return Err(ZnsError::WrongState {
                    zone,
                    state: ZoneState::Offline,
                });
            }
            Err(e) => return Err(e.into()),
        }
        let info = &mut self.zones[zone as usize];
        info.write_pointer += 1;
        info.state = if info.write_pointer >= capacity {
            ZoneState::Full
        } else {
            ZoneState::Open
        };
        Ok(info.write_pointer - 1)
    }

    /// Reads a page at a zone-relative offset.
    pub fn read(&mut self, zone: u32, offset: u64) -> Result<DecodeReport, ZnsError> {
        let info = self.info(zone)?.clone();
        if info.state == ZoneState::Offline {
            return Err(ZnsError::WrongState {
                zone,
                state: ZoneState::Offline,
            });
        }
        if offset >= info.write_pointer {
            return Err(ZnsError::BeyondWritePointer {
                zone,
                write_pointer: info.write_pointer,
            });
        }
        let addr = self.page_addr(&info, offset)?;
        let outcome = self.device.read(addr)?;
        self.codec
            .decode_with_dirty(&outcome.data, &outcome.injected_positions)
            .map_err(ZnsError::Codec)
    }

    /// Finishes a zone: no more appends until reset.
    pub fn finish(&mut self, zone: u32) -> Result<(), ZnsError> {
        let state = self.zone_state(zone)?;
        match state {
            ZoneState::Empty | ZoneState::Open | ZoneState::Full => {
                self.zones[zone as usize].state = ZoneState::Full;
                Ok(())
            }
            ZoneState::Offline => Err(ZnsError::WrongState { zone, state }),
        }
    }

    /// Resets a zone (erases its blocks), optionally changing its
    /// program mode — the SOS §4.3 hook: worn zones step down to
    /// pseudo-density on reset.
    pub fn reset(&mut self, zone: u32, mode: Option<ProgramMode>) -> Result<(), ZnsError> {
        let info = self.info(zone)?.clone();
        if info.state == ZoneState::Offline {
            return Err(ZnsError::WrongState {
                zone,
                state: ZoneState::Offline,
            });
        }
        for block in info.first_block..info.first_block + self.blocks_per_zone as u64 {
            match self.device.erase(block) {
                Ok(_) => {}
                Err(FlashError::EraseFailed(_)) | Err(FlashError::BadBlock(_)) => {
                    self.zones[zone as usize].state = ZoneState::Offline;
                    return Err(ZnsError::WrongState {
                        zone,
                        state: ZoneState::Offline,
                    });
                }
                Err(e) => return Err(e.into()),
            }
            if let Some(new_mode) = mode {
                self.device.set_block_mode(block, new_mode)?;
            }
        }
        let info = &mut self.zones[zone as usize];
        info.state = ZoneState::Empty;
        info.write_pointer = 0;
        if let Some(new_mode) = mode {
            info.mode = new_mode;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sos_ecc::EccScheme;
    use sos_flash::CellDensity;

    fn zoned() -> ZonedDevice {
        // Corrective ECC: fresh PLC throws the occasional bit error and
        // these tests assert bit-exact roundtrips.
        ZonedDevice::new(
            &DeviceConfig::tiny(CellDensity::Plc),
            4,
            EccScheme::Bch { t: 18 },
        )
    }

    fn page(device: &ZonedDevice, byte: u8) -> Vec<u8> {
        vec![byte; device.page_bytes()]
    }

    #[test]
    fn zones_partition_the_device() {
        let device = zoned();
        // tiny = 64 blocks, 4 per zone.
        assert_eq!(device.zone_count(), 16);
        assert_eq!(device.zone_capacity(0).unwrap(), 4 * 32);
    }

    #[test]
    fn append_read_roundtrip_and_write_pointer() {
        let mut device = zoned();
        let a = page(&device, 1);
        let b = page(&device, 2);
        assert_eq!(device.append(0, &a).unwrap(), 0);
        assert_eq!(device.append(0, &b).unwrap(), 1);
        assert_eq!(device.write_pointer(0).unwrap(), 2);
        assert_eq!(device.zone_state(0).unwrap(), ZoneState::Open);
        assert_eq!(device.read(0, 0).unwrap().data, a);
        assert_eq!(device.read(0, 1).unwrap().data, b);
    }

    #[test]
    fn reads_beyond_write_pointer_fail() {
        let mut device = zoned();
        device.append(0, &page(&device, 1)).unwrap();
        assert!(matches!(
            device.read(0, 1).unwrap_err(),
            ZnsError::BeyondWritePointer {
                write_pointer: 1,
                ..
            }
        ));
    }

    #[test]
    fn zone_fills_and_rejects_appends() {
        let mut device = zoned();
        let data = page(&device, 7);
        let capacity = device.zone_capacity(3).unwrap();
        for _ in 0..capacity {
            device.append(3, &data).unwrap();
        }
        assert_eq!(device.zone_state(3).unwrap(), ZoneState::Full);
        assert!(matches!(
            device.append(3, &data).unwrap_err(),
            ZnsError::WrongState {
                state: ZoneState::Full,
                ..
            }
        ));
    }

    #[test]
    fn finish_freezes_a_zone() {
        let mut device = zoned();
        device.append(2, &page(&device, 5)).unwrap();
        device.finish(2).unwrap();
        assert_eq!(device.zone_state(2).unwrap(), ZoneState::Full);
        assert!(device.append(2, &page(&device, 6)).is_err());
        // Data still readable.
        assert_eq!(device.read(2, 0).unwrap().data, page(&device, 5));
    }

    #[test]
    fn reset_erases_and_optionally_remodes() {
        let mut device = zoned();
        let data = page(&device, 9);
        device.append(1, &data).unwrap();
        let native_capacity = device.zone_capacity(1).unwrap();
        // Reset into pseudo-TLC: capacity drops to 3/5.
        device
            .reset(
                1,
                Some(ProgramMode::pseudo(CellDensity::Plc, CellDensity::Tlc)),
            )
            .unwrap();
        assert_eq!(device.zone_state(1).unwrap(), ZoneState::Empty);
        assert_eq!(device.write_pointer(1).unwrap(), 0);
        let pseudo_capacity = device.zone_capacity(1).unwrap();
        assert_eq!(pseudo_capacity, native_capacity * 3 / 5);
        // Old data unreadable; new appends work at the new density.
        assert!(device.read(1, 0).is_err());
        device.append(1, &data).unwrap();
        assert_eq!(device.read(1, 0).unwrap().data, data);
    }

    #[test]
    fn per_zone_modes_coexist() {
        let mut device = zoned();
        device
            .reset(
                0,
                Some(ProgramMode::pseudo(CellDensity::Plc, CellDensity::Qlc)),
            )
            .unwrap();
        device.reset(1, None).unwrap();
        assert!(device.zone_mode(0).unwrap().is_pseudo());
        assert!(!device.zone_mode(1).unwrap().is_pseudo());
        assert!(device.zone_capacity(0).unwrap() < device.zone_capacity(1).unwrap());
    }

    #[test]
    fn wrong_page_size_rejected() {
        let mut device = zoned();
        assert!(matches!(
            device.append(0, &[1, 2, 3]).unwrap_err(),
            ZnsError::WrongDataLength { .. }
        ));
    }

    #[test]
    fn bad_zone_id_rejected() {
        let device = zoned();
        assert!(matches!(
            device.zone_state(99).unwrap_err(),
            ZnsError::BadZone(99)
        ));
    }
}
