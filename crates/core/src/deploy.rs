//! Multi-tenant deployment analysis: the static admission pass behind
//! `espcheck --deployment` and the `espserve` deployment workload.
//!
//! A [`Deployment`] names one floorplan and K *tenants* — independent
//! dataflow pipelines with their own device mappings, execution modes,
//! routing disciplines and frame-rate targets — intended to run
//! concurrently on the same SoC. [`lint_deployment`] proves (or
//! refutes) three composition properties no per-tenant lint can see:
//!
//! 1. **Co-residency** (`E0701`/`E0702`): no two tenants lease the
//!    same accelerator unless every user declares it shared, and the
//!    *composed* PLM footprint of all sharers fits the tile budget.
//! 2. **Cross-tenant deadlock** (`E0703`): the *union*
//!    channel-dependency graph over every tenant's routes, per NoC
//!    plane, must stay acyclic. Each tenant alone may be acyclic
//!    (dimension-order routing always is); cycles appear only when
//!    tenants mixing disciplines compose.
//! 3. **Bandwidth feasibility** (`E0704`): summing every tenant's
//!    static per-link flit demand (derived from stage widths, burst
//!    framing and the frame-rate target) must not exceed any link's
//!    capacity of one flit per cycle. For feasible deployments the
//!    same numbers yield a per-tenant worst-case slowdown bound,
//!    reported as structured data in [`bw::BandwidthAnalysis`].
//!
//! The demand model prices the runtime's own transfer schedule
//! ([`ExecMode::instance_io`]: which instances load, store, and pull
//! from which producer) with the simulator's own packet framing
//! ([`esp4ml_soc::emit`]). The runtime maps buffers contiguously, so
//! with one memory tile and one instance per stage each per-frame
//! transfer is one burst and the per-link demand is exact. Two
//! over-approximations remain, because the analyzer knows neither which
//! frames each instance serves nor the runtime's addresses: each
//! instance of a width-k stage is charged the full per-frame payload,
//! and with several memory tiles a transfer is charged to every memory
//! as split at every 512-word interleave block it could cross.
//! [`validate_against_simulator`] runs each tenant of a feasible
//! deployment through the cycle-level simulator and checks
//! `static >= measured` on every link and every bound.

use crate::apps::TrainedModels;
use crate::check::{lint_config, lint_dataflow, lint_mapping, FloorplanView};
use crate::experiments::ExperimentError;
use crate::soc_config::SocConfigFile;
use esp4ml_check::cdg::{self, Link, Node, Routing};
use esp4ml_check::{bw, codes, Diagnostic, Report};
use esp4ml_noc::{Coord, Plane, Port, LINK_CAPACITY_FLITS_PER_CYCLE};
use esp4ml_runtime::{Dataflow, EspRuntime, ExecMode, RunSpec, StageSpec};
use esp4ml_soc::emit::{
    dma_data_flits, dma_store_ack_flits, dma_store_req_flits, DMA_LOAD_REQ_FLITS,
    P2P_LOAD_REQ_FLITS,
};
use esp4ml_soc::{MemMap, SocEngine};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One tenant: a linear dataflow pipeline plus its deployment contract.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Tenant name, unique within the deployment.
    pub name: String,
    /// Stage device names, outermost list in execution order — the
    /// same shape [`Dataflow::linear`] takes.
    pub stages: Vec<Vec<String>>,
    /// Execution mode: `"base"`, `"pipe"` or `"p2p"`; missing or empty
    /// means p2p, ESP4ML's headline mode.
    #[serde(default)]
    pub mode: String,
    /// The tenant's frame-rate target in frames per second.
    pub frame_rate_hz: f64,
    /// Routing discipline of all this tenant's traffic (default XY).
    #[serde(default)]
    pub routing: Routing,
    /// Devices this tenant agrees to time-share with other tenants.
    /// A device used by several tenants must appear here in *every*
    /// user, else `E0701`.
    #[serde(default)]
    pub shared_devices: Vec<String>,
}

impl TenantSpec {
    /// The tenant's pipeline as a runtime [`Dataflow`].
    pub fn dataflow(&self) -> Dataflow {
        Dataflow {
            stages: self
                .stages
                .iter()
                .map(|devices| StageSpec::new(devices.iter().map(String::as_str)))
                .collect(),
        }
    }

    /// Parses the declared execution mode; empty means p2p.
    pub fn exec_mode(&self) -> Option<ExecMode> {
        match self.mode.as_str() {
            "" => Some(ExecMode::P2p),
            label => ExecMode::from_label(label),
        }
    }
}

/// A floorplan plus K tenants meant to run on it concurrently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// Deployment name (report labeling only).
    pub name: String,
    /// The shared floorplan, inline — a deployment file is
    /// self-contained.
    pub soc: SocConfigFile,
    /// The tenants.
    pub tenants: Vec<TenantSpec>,
}

impl Deployment {
    /// Parses a deployment from JSON.
    ///
    /// # Errors
    ///
    /// Malformed JSON or schema mismatch.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Serializes the deployment to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("deployment serializes")
    }

    /// Per-directed-link per-plane capacity in flits per second: the
    /// clock frequency times [`LINK_CAPACITY_FLITS_PER_CYCLE`].
    pub fn capacity_flits_per_sec(&self) -> f64 {
        self.soc.clock_mhz * 1.0e6 * LINK_CAPACITY_FLITS_PER_CYCLE as f64
    }
}

/// One per-frame point-to-point transfer of a tenant, in flits, on one
/// DMA plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Plane display name (`"dma-req"` / `"dma-rsp"`).
    pub plane: &'static str,
    /// Injecting tile.
    pub src: Node,
    /// Ejecting tile.
    pub dst: Node,
    /// Flits per frame: exact for one burst, an upper bound otherwise.
    pub flits: u64,
}

/// Why [`tenant_transfers`] cannot price a tenant; displays as the
/// reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferError {
    /// A stage device is not on the floorplan (already `E0301`).
    Unmapped(String),
    /// A model shape not statically known (`E0705`).
    Unmodelled(String),
}

impl fmt::Display for TransferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (TransferError::Unmapped(reason) | TransferError::Unmodelled(reason)) = self;
        f.write_str(reason)
    }
}

fn node(c: Coord) -> Node {
    (c.x, c.y)
}

/// The most DMA bursts one per-frame transfer of `words` words splits
/// into. The runtime maps buffers physically contiguously, so with one
/// memory tile a transfer is one burst. With several, the interleave
/// cuts it into one burst per block it touches; which blocks depends on
/// runtime addresses, but a range touches at most this many.
fn max_bursts(words: u64, memories: usize) -> u64 {
    if memories == 1 {
        1
    } else {
        words.div_ceil(MemMap::DEFAULT_INTERLEAVE_WORDS) + 1
    }
}

/// Flits of `words` words sent as at most `bursts` bursts, given one
/// burst's flits `flits_of`. Each cut adds at most one packet, whose
/// framing costs no more than a one-word burst.
fn split_flits(flits_of: fn(u64) -> u64, words: u64, bursts: u64) -> u64 {
    flits_of(words) + (bursts - 1) * flits_of(1)
}

/// Every per-frame transfer of one tenant under `mode` on the two DMA
/// planes, priced with the tiles' own packet framing. Which instance
/// loads, stores or pulls from which producer is the runtime's own
/// schedule ([`ExecMode::instance_io`]). Each instance of a stage is
/// charged the *full* per-frame payload, although round-robin
/// distribution sends each frame through exactly one instance: a sound
/// over-approximation for stages wider than one.
///
/// # Errors
///
/// A stage device missing from the floorplan, or a model shape not
/// statically known.
pub fn tenant_transfers(
    view: &FloorplanView,
    tenant: &TenantSpec,
    mode: ExecMode,
) -> Result<Vec<Transfer>, TransferError> {
    // Resolve every stage to (coord, in_words, out_words).
    let mut stages: Vec<Vec<(Node, u64, u64)>> = Vec::new();
    for (s, devices) in tenant.stages.iter().enumerate() {
        let mut resolved = Vec::new();
        for name in devices {
            let dev = view.device(name).ok_or_else(|| {
                TransferError::Unmapped(format!("stage {s} device {name} is not on the floorplan"))
            })?;
            let (Some(inp), Some(out)) = (dev.in_words, dev.out_words) else {
                return Err(TransferError::Unmodelled(format!(
                    "the model shape of device {name} is not statically known; \
                     bandwidth demand cannot be bounded"
                )));
            };
            resolved.push((node(dev.coord), inp, out));
        }
        stages.push(resolved);
    }
    if stages.is_empty() || view.memories.is_empty() {
        return Ok(Vec::new());
    }
    let memories: Vec<Node> = view.memories.iter().copied().map(node).collect();
    let widths: Vec<usize> = stages.iter().map(Vec::len).collect();
    let mut transfers = Vec::new();
    let mut push = |plane, src, dst, flits| {
        if src != dst && flits > 0 {
            transfers.push(Transfer {
                plane,
                src,
                dst,
                flits,
            });
        }
    };
    for (s, stage) in stages.iter().enumerate() {
        for (j, &(a, inp, out)) in stage.iter().enumerate() {
            let io = mode.instance_io(&widths, s, j);
            for &m in &memories {
                if io.loads {
                    let k = max_bursts(inp, memories.len());
                    push("dma-req", a, m, k * DMA_LOAD_REQ_FLITS);
                    push("dma-rsp", m, a, split_flits(dma_data_flits, inp, k));
                }
                if io.stores {
                    let k = max_bursts(out, memories.len());
                    push("dma-req", a, m, split_flits(dma_store_req_flits, out, k));
                    push("dma-rsp", m, a, split_flits(dma_store_ack_flits, out, k));
                }
            }
            for &i in &io.sources {
                let p = stages[s - 1][i].0;
                push("dma-req", a, p, P2P_LOAD_REQ_FLITS);
                push("dma-rsp", p, a, dma_data_flits(inp));
            }
        }
    }
    Ok(transfers)
}

/// The tenant's static bandwidth demand profile: its transfers (from
/// [`tenant_transfers`]) routed with its own discipline, per link.
pub fn tenant_demand(tenant: &TenantSpec, transfers: &[Transfer]) -> bw::TenantDemand {
    let mut demands = Vec::new();
    for t in transfers {
        for link in tenant.routing.route(t.src, t.dst) {
            demands.push(bw::LinkDemand {
                plane: t.plane.to_string(),
                link,
                flits_per_frame: t.flits as f64,
            });
        }
    }
    bw::TenantDemand {
        name: tenant.name.clone(),
        frame_rate_hz: tenant.frame_rate_hz,
        demands,
    }
}

/// The outcome of [`lint_deployment`]: the diagnostics plus, when the
/// demand model applied, the structured bandwidth/slowdown analysis.
#[derive(Debug, Clone, Serialize)]
pub struct DeploymentAnalysis {
    /// Every finding, normalized (sorted, de-duplicated).
    pub report: Report,
    /// The composed bandwidth picture; `None` only when no tenant's
    /// demand could be computed.
    pub bandwidth: Option<bw::BandwidthAnalysis>,
}

fn prefixed(report: Report, prefix: &str) -> Report {
    let mut out = Report::new();
    for mut d in report.diagnostics {
        d.location = format!("{prefix}/{}", d.location);
        out.push(d);
    }
    out
}

/// Statically proves or refutes that a deployment's tenants can
/// coexist: per-tenant structure and mapping, exclusive leases and
/// composed PLM budgets, union-CDG deadlock freedom per plane, and NoC
/// bandwidth feasibility — the `E07xx` family, composed with every
/// per-tenant code the single-dataflow linter already emits.
pub fn lint_deployment(deployment: &Deployment) -> DeploymentAnalysis {
    let mut report = lint_config(&deployment.soc);
    let view = FloorplanView::from_config(&deployment.soc);

    if deployment.tenants.is_empty() {
        report.push(
            Diagnostic::error(
                codes::DEPLOYMENT_MALFORMED,
                "deployment",
                "the deployment declares no tenants",
            )
            .with_hint("a deployment needs at least one tenant pipeline"),
        );
    }
    let mut names: BTreeMap<&str, usize> = BTreeMap::new();
    for t in &deployment.tenants {
        *names.entry(t.name.as_str()).or_insert(0) += 1;
    }
    for (name, count) in names {
        if count > 1 {
            report.push(
                Diagnostic::error(
                    codes::DEPLOYMENT_MALFORMED,
                    format!("tenant {name}"),
                    format!("tenant name {name} is declared {count} times"),
                )
                .with_hint("tenant names key leases and reports; make them unique"),
            );
        }
    }

    // Per-tenant structure + mapping, with tenant-scoped locations.
    for tenant in &deployment.tenants {
        let scope = format!("tenant {}", tenant.name);
        if !(tenant.frame_rate_hz.is_finite() && tenant.frame_rate_hz > 0.0) {
            report.push(
                Diagnostic::error(
                    codes::DEPLOYMENT_MALFORMED,
                    scope.clone(),
                    format!(
                        "frame-rate target {} is not a positive finite rate",
                        tenant.frame_rate_hz
                    ),
                )
                .with_hint("declare the tenant's real-time requirement in frames per second"),
            );
        }
        if tenant.exec_mode().is_none() {
            report.push(
                Diagnostic::error(
                    codes::DEPLOYMENT_MALFORMED,
                    scope.clone(),
                    format!("unknown execution mode {:?}", tenant.mode),
                )
                .with_hint("modes are base, pipe and p2p"),
            );
        }
        if tenant.routing == Routing::Yx {
            report.push(
                Diagnostic::warning(
                    codes::ROUTING_UNSUPPORTED,
                    scope.clone(),
                    "yx routing is analyzer-only; the runtime NoC implements xy",
                )
                .with_hint("a yx tenant can be admitted statically but not yet simulated"),
            );
        }
        let dataflow = tenant.dataflow();
        report.merge(prefixed(lint_dataflow(&dataflow), &scope));
        report.merge(prefixed(lint_mapping(&view, &dataflow), &scope));
    }

    // Lease analysis: exclusive by default, composed budgets when shared.
    let mut users: BTreeMap<&str, Vec<&TenantSpec>> = BTreeMap::new();
    for tenant in &deployment.tenants {
        let mut seen = BTreeSet::new();
        for stage in &tenant.stages {
            for device in stage {
                if seen.insert(device.as_str()) {
                    users.entry(device.as_str()).or_default().push(tenant);
                }
            }
        }
    }
    for (device, tenants) in &users {
        if tenants.len() < 2 {
            continue;
        }
        let holdouts: Vec<&str> = tenants
            .iter()
            .filter(|t| !t.shared_devices.iter().any(|d| d == device))
            .map(|t| t.name.as_str())
            .collect();
        let names: Vec<&str> = tenants.iter().map(|t| t.name.as_str()).collect();
        if !holdouts.is_empty() {
            report.push(
                Diagnostic::error(
                    codes::LEASE_CONFLICT,
                    format!("device {device}"),
                    format!(
                        "device {device} is leased by tenants {}, but {} did not declare it shared",
                        names.join(", "),
                        holdouts.join(", ")
                    ),
                )
                .with_hint(
                    "leases are exclusive by default; add the device to shared_devices in \
                     every tenant to time-share it, or remap one tenant",
                ),
            );
        } else if let Some(dev) = view.device(device) {
            if let (Some(budget), Some(footprint)) = (dev.plm_words, dev.plm_footprint_words()) {
                let composed = footprint * tenants.len() as u64;
                if composed > budget {
                    report.push(
                        Diagnostic::error(
                            codes::COMPOSED_PLM_OVERFLOW,
                            format!("device {device}"),
                            format!(
                                "{} tenants sharing {device} need {composed} PLM words \
                                 ({footprint} each), exceeding the declared budget of \
                                 {budget} words",
                                tenants.len()
                            ),
                        )
                        .with_hint(
                            "time-sharing does not shrink resident buffers; raise plm_words \
                             or reduce the sharers",
                        ),
                    );
                }
            }
        }
    }

    // Union channel-dependency graph, per plane, across all tenants.
    let mut plane_flows: BTreeMap<&'static str, Vec<(Node, Node, Routing, String)>> =
        BTreeMap::new();
    let mut demands: Vec<bw::TenantDemand> = Vec::new();
    for tenant in &deployment.tenants {
        // An unknown mode is already reported by the per-tenant check.
        let Some(mode) = tenant.exec_mode() else {
            continue;
        };
        match tenant_transfers(&view, tenant, mode) {
            Ok(transfers) => {
                for t in &transfers {
                    plane_flows.entry(t.plane).or_default().push((
                        t.src,
                        t.dst,
                        tenant.routing,
                        tenant.name.clone(),
                    ));
                }
                demands.push(tenant_demand(tenant, &transfers));
            }
            // Unmapped devices are already E0301.
            Err(TransferError::Unmapped(_)) => {}
            Err(TransferError::Unmodelled(reason)) => report.push(
                Diagnostic::error(
                    codes::DEPLOYMENT_MALFORMED,
                    format!("tenant {}", tenant.name),
                    format!("deployment analysis cannot model this tenant: {reason}"),
                )
                .with_hint("deployment admission needs statically-known model shapes"),
            ),
        }
    }
    for (plane, flows) in &plane_flows {
        let routes = cdg::union_routes(
            &flows
                .iter()
                .map(|&(s, d, r, _)| (s, d, r))
                .collect::<Vec<_>>(),
        );
        if let Some(cycle) = cdg::find_cycle(&routes) {
            let cycle_links: BTreeSet<Link> = cycle.iter().copied().collect();
            let mut tenants: BTreeSet<&str> = BTreeSet::new();
            for (i, route) in routes.iter().enumerate() {
                if route.iter().any(|l| cycle_links.contains(l)) {
                    tenants.insert(flows[i].3.as_str());
                }
            }
            let links: Vec<String> = cycle.iter().map(cdg::render_link).collect();
            report.push(
                Diagnostic::error(
                    codes::UNION_CDG_CYCLE,
                    format!("plane {plane}"),
                    format!(
                        "the union of routes from tenants {} closes a channel-dependency \
                         cycle: {}",
                        tenants.into_iter().collect::<Vec<_>>().join(", "),
                        links.join(" -> ")
                    ),
                )
                .with_hint(
                    "each tenant alone is deadlock-free; the composition is not — unify \
                     the routing discipline or remap one tenant off the cycle",
                ),
            );
        }
    }

    // Bandwidth feasibility and per-tenant slowdown bounds.
    let bandwidth = if demands.is_empty() {
        None
    } else {
        let analysis = bw::analyze(&demands, deployment.capacity_flits_per_sec());
        for lu in analysis.saturated() {
            let shares: Vec<String> = lu
                .by_tenant
                .iter()
                .map(|(t, f)| format!("{t} {f:.0} flit/s"))
                .collect();
            report.push(
                Diagnostic::error(
                    codes::BANDWIDTH_INFEASIBLE,
                    format!("plane {} link {}", lu.plane, cdg::render_link(&lu.link)),
                    format!(
                        "summed static demand of {:.0} flit/s is {:.2}x the link capacity \
                         of {:.0} flit/s ({})",
                        lu.flits_per_sec,
                        lu.utilization,
                        analysis.capacity_flits_per_sec,
                        shares.join(", ")
                    ),
                )
                .with_hint(
                    "no schedule moves more than one flit per cycle per link; lower \
                     frame-rate targets or remap tenants off the hot link",
                ),
            );
        }
        Some(analysis)
    };

    report.normalize();
    DeploymentAnalysis { report, bandwidth }
}

/// One link's static-versus-measured comparison for one tenant run
/// solo on the deployment's SoC.
#[derive(Debug, Clone, Serialize)]
pub struct MeasuredLink {
    /// Plane display name.
    pub plane: String,
    /// The directed link.
    pub link: Link,
    /// The analyzer's per-frame demand on this link.
    pub static_flits_per_frame: f64,
    /// Flits the simulator actually moved over the link, total.
    pub measured_flits: u64,
}

/// The result of running one tenant solo through the simulator.
#[derive(Debug, Clone, Serialize)]
pub struct TenantRunCheck {
    /// Tenant name.
    pub tenant: String,
    /// Frames simulated.
    pub frames: u64,
    /// Simulated cycles the solo run took.
    pub cycles: u64,
    /// Every DMA-plane link either side touched.
    pub links: Vec<MeasuredLink>,
    /// Whether `static * frames >= measured` held on every link.
    pub conservative: bool,
}

/// The full static-versus-simulated validation of a deployment.
#[derive(Debug, Clone, Serialize)]
pub struct DeploymentValidation {
    /// Frames each tenant was simulated for.
    pub frames: u64,
    /// Engine name ([`SocEngine::name`]).
    pub engine: String,
    /// Per-tenant link-level comparisons.
    pub tenants: Vec<TenantRunCheck>,
    /// Slowdown bounds from the static demand model.
    pub static_bounds: Vec<bw::TenantBound>,
    /// Slowdown bounds recomputed from the *measured* demands.
    pub measured_bounds: Vec<bw::TenantBound>,
    /// Whether every static bound dominates its measured counterpart.
    pub bounds_conservative: bool,
}

impl DeploymentValidation {
    /// Whether the static model was conservative everywhere: per link
    /// and per slowdown bound.
    pub fn conservative(&self) -> bool {
        self.bounds_conservative && self.tenants.iter().all(|t| t.conservative)
    }
}

/// Runs one tenant solo under `mode` on the deployment's SoC, built from
/// `models`, and compares the measured DMA-plane link traffic against the
/// tenant's static `demand`. The traffic does not depend on the
/// weights, so any models give the same check; passing long-lived ones
/// reuses their compiled networks.
fn check_tenant(
    deployment: &Deployment,
    models: &TrainedModels,
    tenant: &TenantSpec,
    mode: ExecMode,
    demand: &bw::TenantDemand,
    frames: u64,
    engine: SocEngine,
) -> Result<TenantRunCheck, ExperimentError> {
    let mut soc = deployment.soc.build(models)?;
    soc.set_engine(engine);
    let mut rt = EspRuntime::new(soc)?;
    let dataflow = tenant.dataflow();
    let buf = rt.prepare(&dataflow, frames)?;
    for f in 0..frames {
        // Synthetic but deterministic frame content; the traffic shape
        // is what is under test, not the math.
        let values: Vec<u64> = (0..buf.in_values)
            .map(|v| (v * 31 + f * 7) % 1000)
            .collect();
        rt.write_frame(&buf, f, &values)?;
    }
    let spec = RunSpec::new(&dataflow).mode(mode);
    let metrics = rt.run(&spec, &buf)?;

    // The static demand per frame and the measured flits, per (plane,
    // link), over every DMA-plane link either side touched.
    let mut per_link: BTreeMap<(String, Link), (f64, u64)> = BTreeMap::new();
    for d in &demand.demands {
        per_link.entry((d.plane.clone(), d.link)).or_default().0 += d.flits_per_frame;
    }
    let heat = rt.soc().noc_heatmap();
    for plane in [Plane::DmaReq, Plane::DmaRsp] {
        let ph = heat.plane(plane);
        for (y, row) in ph.links.iter().enumerate() {
            for (x, load) in row.iter().enumerate() {
                let from = Coord::new(x as u8, y as u8);
                for port in [Port::North, Port::South, Port::East, Port::West] {
                    let flits = load.port(port);
                    if flits > 0 {
                        let to = port.step(from).expect("counted links stay in the mesh");
                        let key = (plane.to_string(), (node(from), node(to)));
                        per_link.entry(key).or_default().1 += flits;
                    }
                }
            }
        }
    }
    let links: Vec<MeasuredLink> = per_link
        .into_iter()
        .map(|((plane, link), (per_frame, measured))| MeasuredLink {
            plane,
            link,
            static_flits_per_frame: per_frame,
            measured_flits: measured,
        })
        .collect();
    let conservative = links
        .iter()
        .all(|l| l.static_flits_per_frame * frames as f64 + 1e-9 >= l.measured_flits as f64);
    Ok(TenantRunCheck {
        tenant: tenant.name.clone(),
        frames,
        cycles: metrics.cycles,
        links,
        conservative,
    })
}

/// Runs every tenant of a (feasible) deployment solo through the
/// simulator and checks that the static model is conservative: per
/// link (`static * frames >= measured`) and per slowdown bound
/// (static bound >= the bound recomputed from measured demands).
///
/// # Errors
///
/// SoC construction or runtime failures, or a tenant the static model
/// cannot express (unknown device/mode/shape).
pub fn validate_against_simulator(
    deployment: &Deployment,
    models: &TrainedModels,
    frames: u64,
    engine: SocEngine,
) -> Result<DeploymentValidation, ExperimentError> {
    let view = FloorplanView::from_config(&deployment.soc);
    let capacity = deployment.capacity_flits_per_sec();
    let mut tenants = Vec::new();
    let mut measured_demands = Vec::new();
    let mut static_demands = Vec::new();
    for tenant in &deployment.tenants {
        let mode = tenant
            .exec_mode()
            .ok_or_else(|| ExperimentError::Grid(format!("unknown mode {:?}", tenant.mode)))?;
        let transfers = tenant_transfers(&view, tenant, mode)
            .map_err(|e| ExperimentError::Grid(e.to_string()))?;
        let demand = tenant_demand(tenant, &transfers);
        let check = check_tenant(deployment, models, tenant, mode, &demand, frames, engine)?;
        measured_demands.push(bw::TenantDemand {
            name: tenant.name.clone(),
            frame_rate_hz: tenant.frame_rate_hz,
            demands: check
                .links
                .iter()
                .filter(|l| l.measured_flits > 0)
                .map(|l| bw::LinkDemand {
                    plane: l.plane.clone(),
                    link: l.link,
                    flits_per_frame: l.measured_flits as f64 / frames.max(1) as f64,
                })
                .collect(),
        });
        static_demands.push(demand);
        tenants.push(check);
    }
    let static_bounds = bw::analyze(&static_demands, capacity).tenants;
    let measured_bounds = bw::analyze(&measured_demands, capacity).tenants;
    let bounds_conservative = static_bounds
        .iter()
        .zip(&measured_bounds)
        .all(|(s, m)| s.slowdown_bound + 1e-9 >= m.slowdown_bound);
    Ok(DeploymentValidation {
        frames,
        engine: engine.name().to_string(),
        tenants,
        static_bounds,
        measured_bounds,
        bounds_conservative,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(name: &str, stages: &[&[&str]], rate: f64) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            stages: stages
                .iter()
                .map(|s| s.iter().map(|d| d.to_string()).collect())
                .collect(),
            mode: "p2p".to_string(),
            frame_rate_hz: rate,
            routing: Routing::Xy,
            shared_devices: Vec::new(),
        }
    }

    fn soc1_deployment(tenants: Vec<TenantSpec>) -> Deployment {
        Deployment {
            name: "test".to_string(),
            soc: SocConfigFile::soc1(),
            tenants,
        }
    }

    /// The burst bound holds for every placement of a transfer in the
    /// interleaved address space, checked against the simulator's own
    /// address map and packet counts; on one memory tile it is exact.
    #[test]
    fn burst_bound_covers_every_interleaved_placement() {
        for tiles in 1..=3u8 {
            let coords = (0..tiles).map(|x| Coord::new(x, 0)).collect();
            let map = MemMap::new(coords, MemMap::DEFAULT_INTERLEAVE_WORDS, 1 << 20);
            for words in [1u64, 127, 256, 511, 512, 513, 1024, 1500] {
                let bursts = max_bursts(words, tiles as usize);
                for start in 0..1024 {
                    let mut per_tile: BTreeMap<Node, Vec<u64>> = BTreeMap::new();
                    for (tile, _, len) in map.split_range(start, words) {
                        per_tile.entry(node(tile)).or_default().push(len);
                    }
                    for lens in per_tile.values() {
                        assert!(lens.len() as u64 <= bursts, "{words} words at {start}");
                        for flits_of in [dma_data_flits, dma_store_req_flits, dma_store_ack_flits] {
                            let sent: u64 = lens.iter().map(|&l| flits_of(l)).sum();
                            let bound = split_flits(flits_of, words, bursts);
                            assert!(sent <= bound, "{words} words at {start}: {sent} > {bound}");
                            if tiles == 1 {
                                assert_eq!(sent, bound);
                            }
                        }
                    }
                }
            }
        }
    }

    fn codes_of(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    /// An equal-width p2p boundary pairs each consumer with its namesake
    /// producer, as the runtime programs `P2P_REG`: one request/data
    /// pair per instance, not width² pairs.
    #[test]
    fn equal_width_p2p_pairs_namesakes() {
        let d = soc1_deployment(vec![tenant(
            "pair",
            &[&["nv0", "nv1"], &["cl0", "cl1"]],
            30.0,
        )]);
        let view = FloorplanView::from_config(&d.soc);
        let at = |name| node(view.device(name).expect("on soc1").coord);
        let transfers = tenant_transfers(&view, &d.tenants[0], ExecMode::P2p).expect("priced");
        let memory = node(view.memories[0]);
        let p2p: Vec<(&str, Node, Node)> = transfers
            .iter()
            .filter(|t| t.src != memory && t.dst != memory)
            .map(|t| (t.plane, t.src, t.dst))
            .collect();
        assert_eq!(
            p2p,
            [
                ("dma-req", at("cl0"), at("nv0")),
                ("dma-rsp", at("nv0"), at("cl0")),
                ("dma-req", at("cl1"), at("nv1")),
                ("dma-rsp", at("nv1"), at("cl1")),
            ]
        );
    }

    #[test]
    fn tenant_defaults_fill_in_from_json() {
        let t: TenantSpec =
            serde_json::from_str(r#"{"name": "t", "stages": [["nv0"]], "frame_rate_hz": 30.0}"#)
                .expect("parses");
        assert_eq!(t.exec_mode(), Some(ExecMode::P2p));
        assert_eq!(t.routing, Routing::Xy);
        assert!(t.shared_devices.is_empty());
    }

    #[test]
    fn disjoint_tenants_lint_clean() {
        let d = soc1_deployment(vec![
            tenant("vision", &[&["nv0"], &["cl0"]], 30.0),
            tenant("denoise", &[&["denoiser"], &["cl_de"]], 30.0),
        ]);
        let analysis = lint_deployment(&d);
        assert!(
            analysis.report.is_clean(),
            "unexpected findings:\n{}",
            analysis.report
        );
        let bw = analysis.bandwidth.expect("analyzable");
        assert_eq!(bw.tenants.len(), 2);
        for bound in &bw.tenants {
            assert!(bound.slowdown_bound >= 1.0, "{bound:?}");
            assert!(bound.slowdown_bound.is_finite(), "{bound:?}");
        }
    }

    #[test]
    fn lease_conflict_is_flagged() {
        let d = soc1_deployment(vec![
            tenant("a", &[&["nv0"], &["cl0"]], 10.0),
            tenant("b", &[&["nv1"], &["cl0"]], 10.0),
        ]);
        let analysis = lint_deployment(&d);
        assert!(codes_of(&analysis.report).contains(&codes::LEASE_CONFLICT));
    }

    #[test]
    fn declared_sharing_clears_the_lease_conflict() {
        let mut a = tenant("a", &[&["nv0"], &["cl0"]], 10.0);
        let mut b = tenant("b", &[&["nv1"], &["cl0"]], 10.0);
        a.shared_devices = vec!["cl0".to_string()];
        b.shared_devices = vec!["cl0".to_string()];
        let analysis = lint_deployment(&soc1_deployment(vec![a, b]));
        assert!(
            !codes_of(&analysis.report).contains(&codes::LEASE_CONFLICT),
            "{}",
            analysis.report
        );
    }

    #[test]
    fn composed_plm_overflow_on_a_shared_tile() {
        let mut soc = SocConfigFile::soc1();
        // cl0's footprint is 2*256 + 3 = 515 words; give it room for
        // one tenant but not two.
        let cl0 = soc
            .tiles
            .iter_mut()
            .find(|t| matches!(&t.kind, crate::soc_config::TileSpecKind::MlModel { name, .. } if name == "cl0"))
            .expect("cl0 tile");
        cl0.plm_words = Some(600);
        let mut a = tenant("a", &[&["nv0"], &["cl0"]], 10.0);
        let mut b = tenant("b", &[&["nv1"], &["cl0"]], 10.0);
        a.shared_devices = vec!["cl0".to_string()];
        b.shared_devices = vec!["cl0".to_string()];
        let d = Deployment {
            name: "shared".to_string(),
            soc,
            tenants: vec![a, b],
        };
        let analysis = lint_deployment(&d);
        assert!(
            codes_of(&analysis.report).contains(&codes::COMPOSED_PLM_OVERFLOW),
            "{}",
            analysis.report
        );
    }

    #[test]
    fn oversubscribed_frame_rate_is_infeasible() {
        let d = soc1_deployment(vec![tenant("hog", &[&["nv0"], &["cl0"]], 1.0e6)]);
        let analysis = lint_deployment(&d);
        assert!(
            codes_of(&analysis.report).contains(&codes::BANDWIDTH_INFEASIBLE),
            "{}",
            analysis.report
        );
    }

    #[test]
    fn bad_rate_and_mode_are_malformed() {
        let mut t = tenant("t", &[&["nv0"]], 0.0);
        t.mode = "warp".to_string();
        let analysis = lint_deployment(&soc1_deployment(vec![t]));
        let codes_seen = codes_of(&analysis.report);
        assert!(codes_seen.contains(&codes::DEPLOYMENT_MALFORMED));
    }

    #[test]
    fn empty_tenant_set_is_malformed() {
        let analysis = lint_deployment(&soc1_deployment(Vec::new()));
        assert!(codes_of(&analysis.report).contains(&codes::DEPLOYMENT_MALFORMED));
    }

    #[test]
    fn mixed_routing_closes_a_union_cycle() {
        // Tenant A (xy) and tenant B (yx) on a bespoke floorplan whose
        // composed routes chase each other around the (0,0)-(1,1)
        // square on the dma-req plane; each tenant alone is acyclic.
        let d = conflict_fixture();
        let analysis = lint_deployment(&d);
        let seen = codes_of(&analysis.report);
        assert!(
            seen.contains(&codes::UNION_CDG_CYCLE),
            "{}",
            analysis.report
        );
        assert!(
            seen.contains(&codes::ROUTING_UNSUPPORTED),
            "{}",
            analysis.report
        );
        // Drop the yx tenant: the cycle disappears.
        let mut solo = d.clone();
        solo.tenants.retain(|t| t.routing == Routing::Xy);
        assert!(!codes_of(&lint_deployment(&solo).report).contains(&codes::UNION_CDG_CYCLE));
    }

    /// The in-repo twin of `configs/deploy_conflict.json`'s CDG part.
    fn conflict_fixture() -> Deployment {
        use crate::soc_config::{TileSpec, TileSpecKind};
        let nv = |x: u8, y: u8, name: &str| {
            TileSpec::new(x, y, TileSpecKind::NightVision { name: name.into() })
        };
        let soc = SocConfigFile {
            name: "conflict".to_string(),
            cols: 3,
            rows: 3,
            clock_mhz: 78.0,
            tiles: vec![
                TileSpec::new(2, 0, TileSpecKind::Processor),
                TileSpec::new(1, 2, TileSpecKind::Memory),
                nv(0, 0, "a"),
                nv(1, 1, "b"),
                nv(0, 1, "c"),
                nv(1, 0, "d"),
                nv(0, 2, "e"),
            ],
        };
        let mut yx = tenant("spin", &[&["c"], &["d"], &["e"]], 5.0);
        yx.routing = Routing::Yx;
        Deployment {
            name: "conflict".to_string(),
            soc,
            tenants: vec![tenant("flow", &[&["a"], &["b"]], 5.0), yx],
        }
    }
}
