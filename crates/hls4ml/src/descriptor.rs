//! Accelerator descriptors: the `acc.xml` analog of the ESP flow.

use crate::CompiledNn;
use serde::{Deserialize, Serialize};

/// One memory-mapped configuration register of an accelerator.
///
/// "The list of registers is specified into an XML file for each
/// accelerator following the default ESP integration flow" (paper, §III).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterDesc {
    /// Register name as exposed to the device driver.
    pub name: String,
    /// Word offset within the tile's register file.
    pub offset: u32,
    /// Human-readable description.
    pub description: String,
    /// Whether user space may write it.
    pub writable: bool,
}

/// The integration descriptor the ESP SoC flow consumes for each
/// accelerator: name, data sizes, and the register list (including the two
/// registers ESP4ML adds to every accelerator, `LOCATION_REG` and
/// `P2P_REG`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AcceleratorDescriptor {
    /// IP name.
    pub name: String,
    /// Input words per invocation.
    pub input_words: u64,
    /// Output words per invocation.
    pub output_words: u64,
    /// Fixed-point width in bits.
    pub data_bits: u32,
    /// Register list.
    pub registers: Vec<RegisterDesc>,
}

impl AcceleratorDescriptor {
    /// The register offsets shared by every ESP accelerator.
    pub const REG_CMD: u32 = 0;
    /// Status register offset.
    pub const REG_STATUS: u32 = 1;
    /// `conf_size` (run-time dataset size) register offset.
    pub const REG_CONF_SIZE: u32 = 2;
    /// Source pointer (virtual address) register offset.
    pub const REG_SRC_OFFSET: u32 = 3;
    /// Destination pointer register offset.
    pub const REG_DST_OFFSET: u32 = 4;
    /// `LOCATION_REG` offset (read-only x-y coordinates, added by ESP4ML).
    pub const REG_LOCATION: u32 = 5;
    /// `P2P_REG` offset (p2p configuration, added by ESP4ML).
    pub const REG_P2P: u32 = 6;
    /// Batch length register offset.
    pub const REG_N_FRAMES: u32 = 7;
    /// Output-size register offset.
    pub const REG_CONF_OUT_SIZE: u32 = 8;
    /// Wrapper feature flags (double buffering) register offset.
    pub const REG_FLAGS: u32 = 9;
    /// Datapath clock-divider (DVFS) register offset.
    pub const REG_DVFS: u32 = 10;
    /// Global frame id of a batch's first frame, register offset.
    pub const REG_FRAME_BASE: u32 = 11;
    /// Global frame id stride between batch frames, register offset.
    pub const REG_FRAME_STRIDE: u32 = 12;

    /// Builds the descriptor for a compiled NN accelerator.
    pub fn for_nn(nn: &CompiledNn) -> Self {
        Self::with_io(
            nn.name(),
            nn.input_dim() as u64,
            nn.output_dim() as u64,
            nn.spec().total_bits(),
        )
    }

    /// Builds a descriptor from explicit I/O sizes (used by the vision
    /// kernels, which are not NN-based).
    pub fn with_io(name: &str, input_words: u64, output_words: u64, data_bits: u32) -> Self {
        let reg = |name: &str, offset: u32, description: &str, writable: bool| RegisterDesc {
            name: name.to_string(),
            offset,
            description: description.to_string(),
            writable,
        };
        AcceleratorDescriptor {
            name: name.to_string(),
            input_words,
            output_words,
            data_bits,
            registers: vec![
                reg("CMD_REG", Self::REG_CMD, "start/reset command", true),
                reg("STATUS_REG", Self::REG_STATUS, "busy/done status", false),
                reg(
                    "CONF_SIZE_REG",
                    Self::REG_CONF_SIZE,
                    "run-time dataset size in words",
                    true,
                ),
                reg(
                    "SRC_OFFSET_REG",
                    Self::REG_SRC_OFFSET,
                    "input buffer offset in the accelerator VA space",
                    true,
                ),
                reg(
                    "DST_OFFSET_REG",
                    Self::REG_DST_OFFSET,
                    "output buffer offset in the accelerator VA space",
                    true,
                ),
                reg(
                    "LOCATION_REG",
                    Self::REG_LOCATION,
                    "read-only x-y coordinates of the tile on the NoC",
                    false,
                ),
                reg(
                    "P2P_REG",
                    Self::REG_P2P,
                    "p2p enable bits, source-tile count and coordinates",
                    true,
                ),
                reg(
                    "N_FRAMES_REG",
                    Self::REG_N_FRAMES,
                    "invocations to run back-to-back in one batch",
                    true,
                ),
                reg(
                    "CONF_OUT_SIZE_REG",
                    Self::REG_CONF_OUT_SIZE,
                    "run-time output size in values",
                    true,
                ),
                reg(
                    "FLAGS_REG",
                    Self::REG_FLAGS,
                    "wrapper feature flags (bit 0: double-buffered input PLM)",
                    true,
                ),
                reg(
                    "DVFS_REG",
                    Self::REG_DVFS,
                    "datapath clock divider (0 or 1: full NoC clock speed)",
                    true,
                ),
                reg(
                    "FRAME_BASE_REG",
                    Self::REG_FRAME_BASE,
                    "global frame id of the batch's first frame",
                    true,
                ),
                reg(
                    "FRAME_STRIDE_REG",
                    Self::REG_FRAME_STRIDE,
                    "global frame id stride between batch frames (0 is treated as 1)",
                    true,
                ),
            ],
        }
    }

    /// Renders the descriptor as the XML document the ESP flow stores.
    pub fn to_xml(&self) -> String {
        let mut xml = String::new();
        xml.push_str(&format!(
            "<accelerator name=\"{}\" input_words=\"{}\" output_words=\"{}\" data_bits=\"{}\">\n",
            self.name, self.input_words, self.output_words, self.data_bits
        ));
        for r in &self.registers {
            xml.push_str(&format!(
                "  <register name=\"{}\" offset=\"{}\" writable=\"{}\">{}</register>\n",
                r.name, r.offset, r.writable, r.description
            ));
        }
        xml.push_str("</accelerator>\n");
        xml
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hls4mlCompiler, Hls4mlConfig};
    use esp4ml_nn::{Activation, LayerSpec, Sequential};

    fn nn() -> CompiledNn {
        let mut m = Sequential::with_seed(8, 3);
        m.push(LayerSpec::dense(4, Activation::Relu));
        Hls4mlCompiler::compile(&m, &Hls4mlConfig::with_reuse(2)).unwrap()
    }

    #[test]
    fn descriptor_contains_esp4ml_registers() {
        let d = AcceleratorDescriptor::for_nn(&nn());
        let names: Vec<&str> = d.registers.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"LOCATION_REG"));
        assert!(names.contains(&"P2P_REG"));
        // LOCATION_REG is read-only.
        let loc = d
            .registers
            .iter()
            .find(|r| r.name == "LOCATION_REG")
            .unwrap();
        assert!(!loc.writable);
    }

    #[test]
    fn io_sizes_match_network() {
        let d = AcceleratorDescriptor::for_nn(&nn());
        assert_eq!(d.input_words, 8);
        assert_eq!(d.output_words, 4);
        assert_eq!(d.data_bits, 16);
    }

    #[test]
    fn register_offsets_are_unique() {
        let d = AcceleratorDescriptor::for_nn(&nn());
        let mut offsets: Vec<u32> = d.registers.iter().map(|r| r.offset).collect();
        offsets.sort_unstable();
        offsets.dedup();
        assert_eq!(offsets.len(), d.registers.len());
    }

    #[test]
    fn xml_is_well_formed_enough() {
        let d = AcceleratorDescriptor::for_nn(&nn());
        let xml = d.to_xml();
        assert!(xml.starts_with("<accelerator "));
        assert!(xml.ends_with("</accelerator>\n"));
        assert_eq!(xml.matches("<register ").count(), d.registers.len());
    }
}
