//! Memory-mapped configuration registers of the accelerator socket.
//!
//! Register offsets follow the ESP socket layout, extended by the two
//! registers ESP4ML defines for every accelerator: the read-only
//! `LOCATION_REG` exposing the tile's x-y coordinates to the operating
//! system, and the `P2P_REG` holding the p2p configuration (store/load
//! enables, number of source tiles, and their coordinates).

use esp4ml_noc::Coord;
use serde::{Deserialize, Serialize};

/// `CMD_REG`: writing [`CMD_START`] launches the configured batch.
pub const REG_CMD: u64 = 0;
/// `STATUS_REG`: [`STATUS_IDLE`], [`STATUS_RUNNING`] or [`STATUS_DONE`].
pub const REG_STATUS: u64 = 1;
/// `CONF_SIZE_REG`: input values per frame (the paper's `conf_size`).
pub const REG_CONF_SIZE: u64 = 2;
/// `SRC_OFFSET_REG`: input base offset in the accelerator VA space.
pub const REG_SRC_OFFSET: u64 = 3;
/// `DST_OFFSET_REG`: output base offset in the accelerator VA space.
pub const REG_DST_OFFSET: u64 = 4;
/// `LOCATION_REG` (read-only): the tile's x-y coordinates.
pub const REG_LOCATION: u64 = 5;
/// `P2P_REG`: p2p configuration, see [`P2pConfig`].
pub const REG_P2P: u64 = 6;
/// `N_FRAMES_REG`: invocations to run back-to-back in one batch.
pub const REG_N_FRAMES: u64 = 7;
/// `CONF_OUT_SIZE_REG`: output values per frame.
pub const REG_CONF_OUT_SIZE: u64 = 8;
/// `FLAGS_REG`: wrapper feature flags (see [`FLAG_DOUBLE_BUFFER`]).
pub const REG_FLAGS: u64 = 9;
/// `DVFS_REG`: clock divider of the accelerator datapath (0 or 1 = full
/// speed, `k` = the kernel computes at `f_noc / k`). The socket and its
/// NoC interface always run at the NoC clock, as in ESP's fine-grained
/// DVFS infrastructure.
pub const REG_DVFS: u64 = 10;
/// `FRAME_BASE_REG`: global frame id of the batch's first frame. The
/// socket stamps frame `i` of the batch as `base + i * stride` on its
/// trace events and outgoing NoC packets, giving every frame a
/// run-unique id for causal span assembly.
pub const REG_FRAME_BASE: u64 = 11;
/// `FRAME_STRIDE_REG`: global frame id stride between consecutive
/// batch frames (0 is treated as 1). A width-`k` parallel stage runs
/// instance `j` with `base = j, stride = k`.
pub const REG_FRAME_STRIDE: u64 = 12;

/// Number of registers in the socket register file.
pub const REG_COUNT: usize = 13;

/// `CMD_REG` value that starts the accelerator.
pub const CMD_START: u64 = 1;
/// `STATUS_REG`: accelerator is idle and unconfigured/acknowledged.
pub const STATUS_IDLE: u64 = 0;
/// `STATUS_REG`: batch in progress.
pub const STATUS_RUNNING: u64 = 1;
/// `STATUS_REG`: batch finished (cleared on the next start).
pub const STATUS_DONE: u64 = 2;

/// `FLAGS_REG` bit 0: double-buffer the input PLM so the LOAD of frame
/// `k + 1` overlaps the COMPUTE/STORE of frame `k` (the HLS dataflow
/// ping-pong buffer option).
pub const FLAG_DOUBLE_BUFFER: u64 = 1;

/// Decoded contents of the `P2P_REG`.
///
/// Hardware encoding (64-bit):
/// * bit 0 — p2p store enabled (this accelerator's STORE waits for a
///   consumer's request instead of writing to memory);
/// * bit 1 — p2p load enabled (this accelerator's LOAD requests data from
///   producer tiles instead of memory);
/// * bits 8..=10 — number of source tiles minus one (0..=3);
/// * bits 16+12k..=27+12k — source tile `k` as `(x << 6) | y`, 6 bits each.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct P2pConfig {
    /// STORE phase serves consumer requests instead of writing memory.
    pub store_enabled: bool,
    /// LOAD phase requests data from `sources` instead of memory.
    pub load_enabled: bool,
    /// Producer tiles to load from, round-robin per frame (1 to 4 when
    /// `load_enabled`).
    pub sources: Vec<Coord>,
}

impl P2pConfig {
    /// Maximum number of source tiles the register can describe.
    pub const MAX_SOURCES: usize = 4;

    /// Configuration with p2p fully disabled (plain DMA).
    pub fn disabled() -> Self {
        P2pConfig::default()
    }

    /// Producer-side configuration: serve p2p store requests.
    pub fn store() -> Self {
        P2pConfig {
            store_enabled: true,
            load_enabled: false,
            sources: Vec::new(),
        }
    }

    /// Consumer-side configuration: load from the given producers.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or longer than
    /// [`P2pConfig::MAX_SOURCES`].
    pub fn load_from(sources: Vec<Coord>) -> Self {
        assert!(
            !sources.is_empty() && sources.len() <= Self::MAX_SOURCES,
            "p2p load needs 1 to 4 source tiles"
        );
        P2pConfig {
            store_enabled: false,
            load_enabled: true,
            sources,
        }
    }

    /// Both directions (a middle stage of a pipeline).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`P2pConfig::load_from`].
    pub fn load_and_store(sources: Vec<Coord>) -> Self {
        let mut cfg = P2pConfig::load_from(sources);
        cfg.store_enabled = true;
        cfg
    }

    /// Encodes into the `P2P_REG` format.
    pub fn to_reg(&self) -> u64 {
        let mut reg = 0u64;
        if self.store_enabled {
            reg |= 1;
        }
        if self.load_enabled {
            reg |= 2;
        }
        if !self.sources.is_empty() {
            reg |= ((self.sources.len() as u64 - 1) & 0x7) << 8;
        }
        for (k, c) in self.sources.iter().take(Self::MAX_SOURCES).enumerate() {
            let field = (((c.x as u64) & 0x3f) << 6) | ((c.y as u64) & 0x3f);
            reg |= field << (16 + 12 * k);
        }
        reg
    }

    /// Decodes from the `P2P_REG` format.
    pub fn from_reg(reg: u64) -> Self {
        let store_enabled = reg & 1 != 0;
        let load_enabled = reg & 2 != 0;
        let mut sources = Vec::new();
        if load_enabled {
            let n = ((reg >> 8) & 0x7) as usize + 1;
            for k in 0..n.min(Self::MAX_SOURCES) {
                let field = (reg >> (16 + 12 * k)) & 0xfff;
                sources.push(Coord::new(
                    ((field >> 6) & 0x3f) as u8,
                    (field & 0x3f) as u8,
                ));
            }
        }
        P2pConfig {
            store_enabled,
            load_enabled,
            sources,
        }
    }
}

/// The socket register file of one accelerator tile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterFile {
    regs: [u64; REG_COUNT],
}

impl RegisterFile {
    /// Creates a register file with `LOCATION_REG` pre-set to `location`.
    pub fn new(location: Coord) -> Self {
        let mut regs = [0u64; REG_COUNT];
        regs[REG_LOCATION as usize] = location.to_reg();
        RegisterFile { regs }
    }

    /// Reads a register (unknown offsets read as zero, like the bus).
    pub fn read(&self, offset: u64) -> u64 {
        self.regs.get(offset as usize).copied().unwrap_or(0)
    }

    /// Writes a register. Writes to `LOCATION_REG`, `STATUS_REG` and
    /// unknown offsets are ignored (read-only / reserved).
    pub fn write(&mut self, offset: u64, value: u64) {
        if offset == REG_LOCATION || offset == REG_STATUS {
            return;
        }
        if let Some(slot) = self.regs.get_mut(offset as usize) {
            *slot = value;
        }
    }

    /// Socket-internal status update (not reachable from the bus).
    pub(crate) fn set_status(&mut self, status: u64) {
        self.regs[REG_STATUS as usize] = status;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_roundtrip_all_source_counts() {
        for n in 1..=4usize {
            let sources: Vec<Coord> = (0..n)
                .map(|k| Coord::new(k as u8 + 1, 2 * k as u8))
                .collect();
            let cfg = P2pConfig::load_and_store(sources);
            assert_eq!(P2pConfig::from_reg(cfg.to_reg()), cfg);
        }
    }

    #[test]
    fn p2p_disabled_roundtrip() {
        let cfg = P2pConfig::disabled();
        assert_eq!(cfg.to_reg(), 0);
        assert_eq!(P2pConfig::from_reg(0), cfg);
    }

    #[test]
    fn p2p_store_only() {
        let cfg = P2pConfig::store();
        let decoded = P2pConfig::from_reg(cfg.to_reg());
        assert!(decoded.store_enabled);
        assert!(!decoded.load_enabled);
        assert!(decoded.sources.is_empty());
    }

    #[test]
    #[should_panic(expected = "1 to 4")]
    fn p2p_too_many_sources_panics() {
        P2pConfig::load_from(vec![Coord::default(); 5]);
    }

    #[test]
    fn location_reg_is_read_only() {
        let mut rf = RegisterFile::new(Coord::new(3, 4));
        let loc = rf.read(REG_LOCATION);
        rf.write(REG_LOCATION, 0xffff);
        assert_eq!(rf.read(REG_LOCATION), loc);
        assert_eq!(Coord::from_reg(loc), Coord::new(3, 4));
    }

    #[test]
    fn status_not_writable_from_bus() {
        let mut rf = RegisterFile::new(Coord::default());
        rf.write(REG_STATUS, STATUS_DONE);
        assert_eq!(rf.read(REG_STATUS), STATUS_IDLE);
        rf.set_status(STATUS_RUNNING);
        assert_eq!(rf.read(REG_STATUS), STATUS_RUNNING);
    }

    #[test]
    fn unknown_offsets_are_inert() {
        let mut rf = RegisterFile::new(Coord::default());
        rf.write(100, 5);
        assert_eq!(rf.read(100), 0);
    }

    /// The `acc.xml` analog lists exactly the registers the socket
    /// decodes, and marks read-only exactly those the bus cannot write.
    #[test]
    fn descriptor_matches_the_register_file() {
        use esp4ml_hls4ml::AcceleratorDescriptor;
        let desc = AcceleratorDescriptor::with_io("acc", 1, 1, 16);
        let mut offsets: Vec<usize> = desc.registers.iter().map(|r| r.offset as usize).collect();
        offsets.sort_unstable();
        assert_eq!(offsets, (0..REG_COUNT).collect::<Vec<_>>());

        let mut read_only: Vec<u64> = desc
            .registers
            .iter()
            .filter(|r| !r.writable)
            .map(|r| u64::from(r.offset))
            .collect();
        read_only.sort_unstable();
        let mut rf = RegisterFile::new(Coord::new(1, 2));
        let refused: Vec<u64> = (0..REG_COUNT as u64)
            .filter(|&off| {
                let probe = 0xa5a5_0000 + off;
                rf.write(off, probe);
                rf.read(off) != probe
            })
            .collect();
        assert_eq!(refused, [REG_STATUS, REG_LOCATION]);
        assert_eq!(read_only, refused);
    }
}
