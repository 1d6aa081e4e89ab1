//! The stable error-code registry.
//!
//! Codes are grouped by the layer that owns the rule:
//!
//! | Range   | Layer |
//! |---------|-------|
//! | `E01xx` | SoC floorplan (tile map) |
//! | `E02xx` | Dataflow structure |
//! | `E03xx` | Dataflow-to-SoC mapping and NoC routing |
//! | `E04xx` | Runtime sanitizer invariants |
//! | `E05xx` | Deadlock diagnosis |
//! | `E06xx` | Fault-plan lints |
//! | `E07xx` | Multi-tenant deployment analysis |
//!
//! Once published a code never changes meaning; retired rules leave a
//! hole rather than being reused. CI scripts may match on these strings.
//!
//! `espcheck --explain <CODE>` prints the long-form explanation kept
//! alongside each code in [`ALL`].

/// `E0101`: two tiles occupy the same mesh coordinate.
pub const DUPLICATE_TILE: &str = "E0101";
/// `E0102`: a tile lies outside the mesh bounds and is unreachable.
pub const TILE_OUT_OF_BOUNDS: &str = "E0102";
/// `E0103`: the floorplan lacks a required tile (processor or memory).
pub const MISSING_REQUIRED_TILE: &str = "E0103";
/// `E0104`: two accelerator tiles share a device name.
pub const DUPLICATE_DEVICE_NAME: &str = "E0104";

/// `E0201`: the dataflow has no stages.
pub const EMPTY_DATAFLOW: &str = "E0201";
/// `E0202`: a stage has no device instances.
pub const EMPTY_STAGE: &str = "E0202";
/// `E0203`: a stage exceeds the `P2P_REG` fan-in limit of 4 sources.
pub const STAGE_FAN_IN: &str = "E0203";
/// `E0204`: adjacent stage widths are neither equal nor fan-in-to-one.
pub const STAGE_WIDTHS: &str = "E0204";
/// `E0205`: a device appears in more than one stage slot.
pub const DUPLICATE_STAGE_DEVICE: &str = "E0205";
/// `E0206`: the dataflow JSON failed to parse.
pub const DATAFLOW_PARSE: &str = "E0206";

/// `E0301`: a dataflow stage names a device the SoC does not host.
pub const UNMAPPED_DEVICE: &str = "E0301";
/// `E0302`: the p2p routes form a channel-dependency-graph cycle — a
/// wormhole deadlock risk on that plane. Retired: the linter no longer
/// emits it, because XY routes on a mesh never close a cycle.
pub const CDG_CYCLE: &str = "E0302";
/// `E0303`: a message was injected on a plane that does not carry its
/// kind (plane misassignment breaks the deadlock-avoidance argument).
pub const PLANE_MISASSIGNMENT: &str = "E0303";
/// `E0304`: an accelerator's PLM is too small for its model footprint.
pub const PLM_OVERFLOW: &str = "E0304";
/// `W0305`: a frame working set needs more TLB entries than the socket
/// provides; every frame will pay miss penalties.
pub const TLB_PRESSURE: &str = "W0305";

/// `E0401`: per-link credit conservation violated (shadow occupancy
/// disagrees with the router queue).
pub const CREDIT_CONSERVATION: &str = "E0401";
/// `E0402`: flit conservation violated (injected != ejected + in-flight).
pub const FLIT_CONSERVATION: &str = "E0402";
/// `E0403`: wormhole non-interleaving violated at an ejection port.
pub const WORMHOLE_INTERLEAVING: &str = "E0403";
/// `E0404`: DMA byte accounting mismatch at an idle boundary.
pub const DMA_ACCOUNTING: &str = "E0404";

/// `E0501`: the wait-for graph at timeout contains a cycle or a stalled
/// chain (deadlock diagnosis attached to `RunOutcome::TimedOut`).
pub const DEADLOCK: &str = "E0501";

/// `E0601`: a fault plan targets a device the SoC does not host.
pub const FAULT_UNKNOWN_DEVICE: &str = "E0601";
/// `E0602`: a fault plan names a NoC plane index outside the mesh.
pub const FAULT_BAD_PLANE: &str = "E0602";
/// `W0603`: a fault plan schedules no faults (nothing will be injected).
pub const FAULT_EMPTY_PLAN: &str = "W0603";

/// `E0701`: two tenants of a deployment lease the same device without
/// both declaring it shared.
pub const LEASE_CONFLICT: &str = "E0701";
/// `E0702`: the composed PLM footprint of all tenants sharing a tile
/// exceeds the tile's declared budget.
pub const COMPOSED_PLM_OVERFLOW: &str = "E0702";
/// `E0703`: the union of all tenants' routes closes a cross-tenant
/// channel-dependency cycle — a wormhole deadlock only composition can
/// create (each tenant alone may be acyclic).
pub const UNION_CDG_CYCLE: &str = "E0703";
/// `E0704`: the summed static bandwidth demand on a NoC link exceeds
/// its capacity; the deployment cannot meet every frame-rate target.
pub const BANDWIDTH_INFEASIBLE: &str = "E0704";
/// `E0705`: the deployment description itself is malformed (duplicate
/// tenant names, empty tenant set, or a non-positive frame-rate target).
pub const DEPLOYMENT_MALFORMED: &str = "E0705";
/// `W0706`: a tenant requests YX routing, which the analyzer models but
/// the runtime NoC does not implement yet.
pub const ROUTING_UNSUPPORTED: &str = "W0706";

/// One registry row: code, one-line summary, long-form explanation (the
/// text `espcheck --explain <CODE>` prints).
pub const ALL: &[(&str, &str, &str)] = &[
    (
        DUPLICATE_TILE,
        "two tiles occupy the same mesh coordinate",
        "Two tiles of the floorplan are placed at the same (x, y) mesh \
         coordinate. Every grid position holds at most one tile; the NoC \
         router at that coordinate can serve only one local port.",
    ),
    (
        TILE_OUT_OF_BOUNDS,
        "tile outside the mesh bounds",
        "A tile's (x, y) coordinate lies outside the declared cols x rows \
         mesh. No router exists there, so the tile would be unreachable. \
         Grow the mesh or move the tile inside the grid.",
    ),
    (
        MISSING_REQUIRED_TILE,
        "missing processor or memory tile",
        "Every ESP SoC needs at least one processor tile (to run the \
         software stack) and one memory tile (to back DMA). The floorplan \
         declares neither of one kind.",
    ),
    (
        DUPLICATE_DEVICE_NAME,
        "duplicate accelerator device name",
        "Two accelerator tiles share a device name. The runtime probes \
         devices by name, so names must be unique across the floorplan.",
    ),
    (
        EMPTY_DATAFLOW,
        "dataflow has no stages",
        "The dataflow declares no stages; there is nothing to run.",
    ),
    (
        EMPTY_STAGE,
        "stage has no device instances",
        "A dataflow stage lists no device instances. Every stage needs at \
         least one accelerator to do its work.",
    ),
    (
        STAGE_FAN_IN,
        "stage exceeds the P2P_REG fan-in limit",
        "A stage consumes from more than 4 upstream instances. The socket \
         P2P_REG encodes at most 4 source tiles, so wider fan-in cannot \
         be configured in hardware.",
    ),
    (
        STAGE_WIDTHS,
        "illegal stage width transition",
        "Adjacent stage widths must be equal (instance i feeds instance \
         i) or fan in to one (a single consumer round-robins over all \
         producers). Any other transition has no defined frame routing.",
    ),
    (
        DUPLICATE_STAGE_DEVICE,
        "device appears twice in the dataflow",
        "The same device name appears in more than one stage slot. An \
         accelerator cannot be two pipeline stages at once.",
    ),
    (
        DATAFLOW_PARSE,
        "dataflow JSON parse failure",
        "The JSON input does not parse or does not match the expected \
         schema. See configs/soc1.json and configs/deploy_ok.json for \
         reference schemas.",
    ),
    (
        UNMAPPED_DEVICE,
        "stage device missing from the SoC",
        "The dataflow references a device the floorplan does not provide. \
         Add the accelerator tile or fix the device name.",
    ),
    (
        CDG_CYCLE,
        "retired: p2p routes form a channel-dependency cycle",
        "Retired: the linter no longer emits this code, and it is kept so \
         the number is never reused. It flagged a single dataflow whose \
         routes close a cycle in the channel dependency graph of one NoC \
         plane. By Dally & Seitz, an acyclic CDG is necessary and \
         sufficient for wormhole deadlock freedom, and the simulator \
         routes in dimension order (XY), which never closes a cycle on a \
         mesh, so the check could reject no input. Cycles that appear \
         when tenants mix routing disciplines are E0703.",
    ),
    (
        PLANE_MISASSIGNMENT,
        "message injected on the wrong NoC plane",
        "A message was injected on a NoC plane that does not carry its \
         kind. Plane separation is what makes the per-plane deadlock \
         argument compositional; breaking it voids the analysis.",
    ),
    (
        PLM_OVERFLOW,
        "PLM smaller than the model footprint",
        "The accelerator's private local memory budget is smaller than \
         the model's buffer footprint (a double-buffered input plus the \
         output buffer). Raise plm_words or shrink the frame.",
    ),
    (
        TLB_PRESSURE,
        "frame working set exceeds the socket TLB",
        "The per-invocation working set needs more page-table entries \
         than the socket TLB holds (32 pages), so every frame pays \
         page-walk penalties. Warning only: correct but slow.",
    ),
    (
        CREDIT_CONSERVATION,
        "per-link credit conservation violated",
        "The sanitizer's shadow occupancy for a link disagrees with the \
         router queue: credits were created or destroyed. Indicates a \
         flow-control bug (or an injected credit-leak fault).",
    ),
    (
        FLIT_CONSERVATION,
        "flit conservation violated",
        "Flits injected into a plane do not equal flits ejected plus \
         flits in flight. Something dropped or duplicated a flit.",
    ),
    (
        WORMHOLE_INTERLEAVING,
        "wormhole non-interleaving violated",
        "Two worms interleaved at an ejection port: a packet's flits must \
         arrive contiguously per (plane, port). Indicates a router \
         arbitration bug.",
    ),
    (
        DMA_ACCOUNTING,
        "DMA byte accounting mismatch",
        "At an idle boundary, bytes moved by DMA engines disagree with \
         bytes delivered to PLMs/DRAM. Something lost or invented data.",
    ),
    (
        DEADLOCK,
        "wait-for graph deadlock at timeout",
        "The run timed out and the wait-for graph over tiles and planes \
         contains a cycle or a stalled chain; the diagnosis names it. \
         Attached to RunOutcome::TimedOut.",
    ),
    (
        FAULT_UNKNOWN_DEVICE,
        "fault plan targets an unknown device",
        "The fault plan schedules an injection against a device name the \
         selected SoC does not host; the campaign would silently inject \
         nothing.",
    ),
    (
        FAULT_BAD_PLANE,
        "fault plan names an invalid NoC plane",
        "The fault plan names a NoC plane index outside the mesh's six \
         planes.",
    ),
    (
        FAULT_EMPTY_PLAN,
        "fault plan schedules no faults",
        "The fault plan parses but schedules nothing; the campaign would \
         measure a clean run. Warning only.",
    ),
    (
        LEASE_CONFLICT,
        "two tenants lease the same device",
        "Two tenants of a deployment map the same accelerator device \
         without every user declaring it in shared_devices. Devices are \
         leased exclusively by default because concurrent invocations \
         interleave PLM state; declare the device shared in every tenant \
         that uses it to opt into time-sharing.",
    ),
    (
        COMPOSED_PLM_OVERFLOW,
        "composed PLM footprint exceeds the tile budget",
        "A device is legitimately shared by several tenants, but the sum \
         of their per-tenant buffer footprints (double-buffered input + \
         output each) exceeds the tile's declared plm_words budget. \
         Time-sharing does not shrink resident buffers: each tenant's \
         frames must stay resident across interleavings.",
    ),
    (
        UNION_CDG_CYCLE,
        "cross-tenant routes close a channel-dependency cycle",
        "The union of all tenants' routes on one NoC plane closes a \
         channel-dependency cycle even though each tenant alone may be \
         acyclic. Composition creates the deadlock: a worm of tenant A \
         can hold a link a worm of tenant B needs and vice versa. Fires \
         when tenants mix routing disciplines (e.g. XY with YX); an \
         all-XY deployment can never trigger it.",
    ),
    (
        BANDWIDTH_INFEASIBLE,
        "summed link demand exceeds NoC link capacity",
        "Summing every tenant's static per-link flit demand (stage \
         widths x burst sizes x frame-rate target) exceeds a link's \
         capacity of one flit per cycle. At least one tenant must miss \
         its frame-rate target; the per-tenant slowdown bounds in the \
         deployment report quantify by how much.",
    ),
    (
        DEPLOYMENT_MALFORMED,
        "deployment description is malformed",
        "The deployment parses as JSON but is not analyzable: an empty \
         tenant set, duplicate tenant names, or a non-positive frame-rate \
         target.",
    ),
    (
        ROUTING_UNSUPPORTED,
        "tenant requests a routing discipline the NoC does not implement",
        "The analyzer models XY and YX dimension-order routing, but the \
         runtime NoC currently implements only XY. A YX tenant can be \
         analyzed (and is essential for exhibiting union-CDG cycles) but \
         cannot yet be simulated faithfully. Warning only.",
    ),
];

/// Looks up the long-form explanation for a stable code (the text
/// behind `espcheck --explain`). Returns `None` for unknown codes.
pub fn explain(code: &str) -> Option<(&'static str, &'static str)> {
    ALL.iter()
        .find(|(c, _, _)| *c == code)
        .map(|&(_, summary, explanation)| (summary, explanation))
}

/// Interns a code string back to its registry `&'static str` — the
/// inverse of serializing a [`crate::Diagnostic`], used when findings
/// come back from JSON (e.g. a restored simulation snapshot). Returns
/// `None` for codes not in [`ALL`].
pub fn canonical(code: &str) -> Option<&'static str> {
    ALL.iter().find(|(c, _, _)| *c == code).map(|&(c, _, _)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (code, summary, explanation) in ALL {
            assert!(seen.insert(code), "duplicate code {code}");
            assert!(!summary.is_empty());
            assert!(!explanation.is_empty());
            assert_eq!(code.len(), 5, "{code}");
            assert!(code.starts_with('E') || code.starts_with('W'), "{code}");
            assert!(code[1..].chars().all(|c| c.is_ascii_digit()), "{code}");
        }
    }

    /// The registry contract: every constant matches `[EW]0[0-9]{3}`,
    /// and the module-doc family table names every family in use.
    #[test]
    fn registry_contract_codes_and_family_table() {
        let source = include_str!("codes.rs");
        for (code, _, _) in ALL {
            let bytes = code.as_bytes();
            assert!(
                (bytes[0] == b'E' || bytes[0] == b'W')
                    && bytes[1] == b'0'
                    && bytes[2..].iter().all(u8::is_ascii_digit),
                "{code} does not match [EW]0[0-9]{{3}}"
            );
            // The family is the second and third digit pair; warnings
            // share their family row with the errors of that layer.
            let family = format!("`E{}xx`", &code[1..3]);
            assert!(
                source.contains(&family),
                "family table is missing a row for {family} (used by {code})"
            );
        }
    }

    #[test]
    fn explain_finds_known_codes_only() {
        let (summary, explanation) = explain(CDG_CYCLE).expect("E0302 is registered");
        assert!(summary.contains("channel-dependency"));
        assert!(explanation.contains("Dally"));
        assert!(explain("E9999").is_none());
        assert!(explain("").is_none());
    }
}
