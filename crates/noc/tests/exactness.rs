//! Exactness golden for the mesh's cycle-level behaviour.
//!
//! Seeded traffic on a 5×3 mesh (the Fig. 7 floorplan size) exercises all
//! six planes with hot-spot contention, injection back-pressure and a
//! shallow ejection queue that the consumer drains slowly, so credit
//! stalls and back-pressure into the routers both occur. The test folds
//! every delivered packet (destination, plane, delivery cycle, payload),
//! the final [`NocStats`], the link heatmap and every router's per-plane
//! credit stalls into one FNV-1a digest and pins it. Any change to
//! arbitration order, credit reservation or timing moves the digest; a
//! pure host-side optimisation of the mesh must leave it untouched.

use esp4ml_fault::{FaultKind, FaultSpec};
use esp4ml_noc::{Coord, Mesh, MeshConfig, MsgKind, Packet, Plane, Progress};
use std::collections::VecDeque;
use std::fmt::Write;

const COLS: usize = 5;
const ROWS: usize = 3;

/// xorshift64*: a tiny deterministic generator, so the golden does not
/// depend on any external RNG's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A canonical message kind for each plane.
fn kind_for(plane: Plane) -> MsgKind {
    match plane {
        Plane::CohReq | Plane::CohFwd | Plane::CohRsp => MsgKind::Coherence,
        Plane::DmaReq => MsgKind::DmaLoadReq,
        Plane::DmaRsp => MsgKind::DmaData,
        Plane::IoIrq => MsgKind::RegWrite,
    }
}

fn coord(i: usize) -> Coord {
    Coord::new((i % COLS) as u8, (i / COLS) as u8)
}

struct Outcome {
    digest: u64,
    delivered: usize,
    injected: usize,
    credit_stalls: u64,
    max_ejected_backlog: usize,
    /// Packets delivered per plane.
    per_plane: [usize; Plane::COUNT],
}

/// Drives seeded traffic for `traffic_cycles`, then drains the mesh, and
/// returns the digest of everything observable.
fn run(seed: u64, traffic_cycles: u64, faulted: bool) -> Outcome {
    let mut cfg = MeshConfig::new(COLS, ROWS);
    cfg.eject_queue_depth = 2;
    cfg.inject_queue_depth = 48;
    let mut mesh = Mesh::new(cfg).expect("valid mesh");
    if faulted {
        mesh.enable_sanitizer();
        assert!(mesh.install_fault(&FaultSpec::new(FaultKind::NocDelay {
            plane: Plane::DmaRsp.index(),
            from_packet: 5,
            count: 3,
            extra_cycles: 37,
        })));
    }
    let mut rng = Rng(seed);
    let n = COLS * ROWS;
    // Shadow of each (tile, plane) ejection queue: the cycle each packet
    // became visible, so the digest records the true delivery cycle.
    let mut arrivals: Vec<VecDeque<u64>> = vec![VecDeque::new(); n * Plane::COUNT];
    let mut seen: Vec<usize> = vec![0; n * Plane::COUNT];
    let mut log = String::new();
    let (mut injected, mut delivered, mut max_backlog) = (0usize, 0usize, 0usize);
    let mut per_plane = [0usize; Plane::COUNT];
    let hot = Coord::new(4, 1);
    let mut cycle = 0u64;
    loop {
        let traffic = cycle < traffic_cycles;
        // Bursts with quiet gaps, so the mesh also drains (and ticks
        // empty) between bursts, not only at the end.
        if traffic && cycle % 400 < 300 {
            for t in 0..n {
                if rng.below(4) != 0 {
                    continue;
                }
                let plane = Plane::ALL[rng.below(Plane::COUNT as u64) as usize];
                // Half the traffic converges on one hot spot (contention);
                // the rest is uniform, self-delivery included.
                let dest = if rng.below(2) == 0 {
                    hot
                } else {
                    coord(rng.below(n as u64) as usize)
                };
                let words = rng.below(9) as usize;
                let payload: Vec<u64> = (0..words).map(|_| rng.next()).collect();
                let pkt = Packet::new(coord(t), dest, plane, kind_for(plane), payload);
                if mesh.inject(pkt).is_ok() {
                    injected += 1;
                }
            }
        }
        mesh.tick();
        cycle += 1;
        for t in 0..n {
            for plane in Plane::ALL {
                let slot = t * Plane::COUNT + plane.index();
                let len = mesh.delivered_len(coord(t), plane);
                max_backlog = max_backlog.max(len);
                for _ in seen[slot]..len {
                    arrivals[slot].push_back(mesh.cycle());
                }
                seen[slot] = len;
                // A slow consumer: drain with probability 1/3 while traffic
                // runs, every cycle once it stops.
                if len > 0 && (!traffic || rng.below(3) == 0) {
                    let pkt = mesh.eject(coord(t), plane).expect("non-empty");
                    seen[slot] -= 1;
                    let at = arrivals[slot].pop_front().expect("arrival recorded");
                    let d = pkt.dest();
                    write!(
                        log,
                        "{},{} {} {} {} {:?}|",
                        d.x,
                        d.y,
                        plane.index(),
                        at,
                        pkt.inject_cycle(),
                        pkt.payload()
                    )
                    .expect("write to string");
                    delivered += 1;
                    per_plane[plane.index()] += 1;
                }
            }
        }
        // The scheduler-facing views are part of the observable behaviour.
        if cycle.is_multiple_of(97) {
            let p = match mesh.progress() {
                Progress::Active => "A".to_string(),
                Progress::Quiescent => "Q".to_string(),
                Progress::Blocked { until } => format!("B{until}"),
            };
            write!(
                log,
                "@{cycle} {p} {} {}|",
                mesh.is_idle(),
                mesh.undelivered_total()
            )
            .expect("write to string");
        }
        if !traffic && mesh.is_idle() && mesh.undelivered_total() == 0 {
            break;
        }
        assert!(cycle < traffic_cycles + 100_000, "mesh failed to drain");
    }
    let heatmap = mesh.link_heatmap();
    let mut credit_stalls = 0u64;
    for t in 0..n {
        for plane in Plane::ALL {
            let s = mesh.router(coord(t)).credit_stalls(plane);
            credit_stalls += s;
            write!(log, "cs{t}.{}={s}|", plane.index()).expect("write to string");
        }
    }
    log.push_str(&serde_json::to_string(mesh.stats()).expect("stats serialize"));
    log.push_str(&serde_json::to_string(&heatmap).expect("heatmap serialize"));
    if faulted {
        let report = mesh.sanitizer_report().expect("sanitizer installed");
        assert!(report.is_clean(), "{report}");
        assert_eq!(mesh.faults_fired(), 3);
    }
    Outcome {
        digest: fnv1a64(log.as_bytes()),
        delivered,
        injected,
        credit_stalls,
        max_ejected_backlog: max_backlog,
        per_plane,
    }
}

fn check_coverage(o: &Outcome) {
    assert_eq!(
        o.delivered, o.injected,
        "every injected packet is delivered"
    );
    assert!(o.injected > 1_000, "traffic too light: {}", o.injected);
    assert!(
        o.credit_stalls > 0,
        "no credit stalls: contention not exercised"
    );
    assert_eq!(o.max_ejected_backlog, 2, "ejection queue never filled");
    assert!(
        o.per_plane.iter().all(|&p| p > 0),
        "idle plane: {:?}",
        o.per_plane
    );
}

#[test]
fn seeded_contended_traffic_matches_golden_digest() {
    let o = run(0x5eed_0001, 2_000, false);
    check_coverage(&o);
    assert_eq!(o.digest, 0x3d56_da80_7510_1b5b, "digest {:#018x}", o.digest);
}

#[test]
fn faulted_sanitized_traffic_matches_golden_digest() {
    let o = run(0x5eed_0002, 1_500, true);
    check_coverage(&o);
    assert_eq!(o.digest, 0xc671_697b_1a45_954d, "digest {:#018x}", o.digest);
}
