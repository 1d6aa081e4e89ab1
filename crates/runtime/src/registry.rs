//! The device registry: the driver-probe layer.

use esp4ml_noc::Coord;
use esp4ml_soc::{regs, words_for, Soc};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Everything the driver records about one probed accelerator.
///
/// In the paper, "any registered accelerator (discovered when probe is
/// executed) is added to a global linked list protected by a spinlock",
/// which lets any driver thread map a device *name* (known in user space)
/// to x-y coordinates (never exposed to user space).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceInfo {
    /// Device name (the kernel name).
    pub name: String,
    /// Device kind: the interchangeability class used by failover remaps.
    /// Devices of the same kind and I/O shape run the same computation
    /// (see `AcceleratorKernel::kind`). Defaults to the device name for
    /// records written before kinds existed.
    #[serde(default)]
    pub kind: String,
    /// Tile coordinates, read from `LOCATION_REG` at probe time.
    pub coord: Coord,
    /// Input values per invocation.
    pub input_values: u64,
    /// Output values per invocation.
    pub output_values: u64,
    /// Data width in bits.
    pub data_bits: u32,
    /// Steady-state initiation interval of the kernel datapath in cycles,
    /// as reported by the HLS flow (drives pipeline balancing, §V).
    pub initiation_interval: u64,
}

impl DeviceInfo {
    /// Input words (packed) per invocation.
    pub fn input_words(&self) -> u64 {
        words_for(self.input_values, self.data_bits)
    }

    /// Output words (packed) per invocation.
    pub fn output_words(&self) -> u64 {
        words_for(self.output_values, self.data_bits)
    }
}

/// The global device list, protected by a lock (the spinlock analog).
#[derive(Debug, Clone, Default)]
pub struct DeviceRegistry {
    devices: Arc<Mutex<Vec<DeviceInfo>>>,
}

impl DeviceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        DeviceRegistry::default()
    }

    /// Probes every accelerator tile of `soc`, reading its `LOCATION_REG`
    /// over the register interface (exactly what the ESP Linux driver does
    /// in `probe`).
    pub fn probe(soc: &Soc) -> Self {
        let registry = DeviceRegistry::new();
        for coord in soc.accel_coords() {
            let tile = soc.accel(coord).expect("accelerator coordinate");
            let loc = Coord::from_reg(tile.read_reg(regs::REG_LOCATION));
            debug_assert_eq!(loc, coord);
            let kernel = tile.kernel();
            registry.register(DeviceInfo {
                name: kernel.name().to_string(),
                kind: kernel.kind().to_string(),
                coord: loc,
                input_values: kernel.input_values(),
                output_values: kernel.output_values(),
                data_bits: kernel.data_bits(),
                initiation_interval: kernel.initiation_interval(),
            });
        }
        registry
    }

    /// Adds a device to the global list.
    pub fn register(&self, info: DeviceInfo) {
        self.devices.lock().push(info);
    }

    /// Looks up a device by name.
    pub fn lookup(&self, name: &str) -> Option<DeviceInfo> {
        self.devices.lock().iter().find(|d| d.name == name).cloned()
    }

    /// All registered devices, in probe order.
    pub fn devices(&self) -> Vec<DeviceInfo> {
        self.devices.lock().clone()
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.lock().len()
    }

    /// Whether no device was probed.
    pub fn is_empty(&self) -> bool {
        self.devices.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp4ml_soc::{ScaleKernel, SocBuilder};

    #[test]
    fn probe_discovers_all_accelerators() {
        let soc = SocBuilder::new(3, 2)
            .processor(Coord::new(0, 0))
            .memory(Coord::new(1, 0))
            .accelerator(Coord::new(0, 1), Box::new(ScaleKernel::new("a", 16, 2)))
            .accelerator(Coord::new(2, 1), Box::new(ScaleKernel::new("b", 8, 3)))
            .build()
            .unwrap();
        let reg = DeviceRegistry::probe(&soc);
        assert_eq!(reg.len(), 2);
        let a = reg.lookup("a").unwrap();
        assert_eq!(a.coord, Coord::new(0, 1));
        assert_eq!(a.input_values, 16);
        assert_eq!(a.input_words(), 4);
        assert!(reg.lookup("missing").is_none());
    }

    #[test]
    fn word_counts_round_up() {
        let d = DeviceInfo {
            name: "x".into(),
            kind: "x".into(),
            coord: Coord::default(),
            input_values: 10,
            output_values: 1,
            data_bits: 16,
            initiation_interval: 1,
        };
        assert_eq!(d.input_words(), 3);
        assert_eq!(d.output_words(), 1);
    }

    #[test]
    fn registry_is_shared() {
        let r1 = DeviceRegistry::new();
        let r2 = r1.clone();
        r1.register(DeviceInfo {
            name: "dev".into(),
            kind: "dev".into(),
            coord: Coord::new(1, 1),
            input_values: 4,
            output_values: 4,
            data_bits: 16,
            initiation_interval: 4,
        });
        assert_eq!(r2.len(), 1);
    }
}
