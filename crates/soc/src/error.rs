//! Error type for SoC construction and control.

use esp4ml_noc::{Coord, NocError};
use std::error::Error;
use std::fmt;

/// Errors returned by SoC construction and the control interface.
#[derive(Debug)]
#[non_exhaustive]
pub enum SocError {
    /// Underlying NoC failure.
    Noc(NocError),
    /// A tile was placed twice at the same coordinate.
    TileConflict {
        /// The contested coordinate.
        coord: Coord,
    },
    /// The floorplan lacks a required tile kind.
    MissingTile {
        /// What was missing ("processor", "memory", …).
        kind: &'static str,
    },
    /// An operation referenced a coordinate that is not the expected tile
    /// kind.
    WrongTile {
        /// The coordinate addressed.
        coord: Coord,
        /// What the operation expected.
        expected: &'static str,
    },
    /// Register or configuration value invalid.
    BadConfig(String),
    /// An invocation's non-zero `conf_size` or `out_size` disagrees with
    /// the I/O size of the kernel plugged into the accelerator.
    SizeMismatch {
        /// The accelerator addressed.
        coord: Coord,
        /// The offending field: `"conf_size"` or `"out_size"`.
        field: &'static str,
        /// The configured number of values.
        configured: u64,
        /// The number of values the kernel consumes or produces.
        kernel: u64,
    },
    /// DRAM address out of range.
    BadAddress {
        /// The offending word address.
        addr: u64,
    },
    /// A snapshot does not structurally match this SoC and cannot be
    /// restored onto it.
    SnapshotMismatch(String),
}

impl fmt::Display for SocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SocError::Noc(e) => write!(f, "noc error: {e}"),
            SocError::TileConflict { coord } => write!(f, "tile already placed at {coord}"),
            SocError::MissingTile { kind } => write!(f, "floorplan needs a {kind} tile"),
            SocError::WrongTile { coord, expected } => {
                write!(f, "tile at {coord} is not a {expected} tile")
            }
            SocError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            SocError::SizeMismatch {
                coord,
                field,
                configured,
                kernel,
            } => write!(
                f,
                "{field} {configured} for the accelerator at {coord} disagrees with its kernel's {kernel} values"
            ),
            SocError::BadAddress { addr } => write!(f, "DRAM address {addr:#x} out of range"),
            SocError::SnapshotMismatch(msg) => write!(f, "snapshot mismatch: {msg}"),
        }
    }
}

impl Error for SocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SocError::Noc(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NocError> for SocError {
    fn from(e: NocError) -> Self {
        SocError::Noc(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let msgs = [
            SocError::TileConflict {
                coord: Coord::new(1, 1),
            }
            .to_string(),
            SocError::MissingTile { kind: "memory" }.to_string(),
            SocError::BadConfig("x".into()).to_string(),
            SocError::SizeMismatch {
                coord: Coord::new(0, 1),
                field: "conf_size",
                configured: 4,
                kernel: 8,
            }
            .to_string(),
            SocError::BadAddress { addr: 16 }.to_string(),
        ];
        assert!(msgs.iter().all(|m| !m.is_empty()));
    }

    #[test]
    fn from_noc_error() {
        let e: SocError = NocError::EmptyPayload.into();
        assert!(matches!(e, SocError::Noc(_)));
    }
}
