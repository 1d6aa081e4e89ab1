//! `espspan` — the span-tracing reporter: runs accelerator
//! configurations across execution modes with the causal frame-level
//! span collector attached, prints the per-frame span trees and the
//! aggregated critical path per run, and verifies the span layer
//! against the simulator and the profiler.
//!
//! ```text
//! cargo run --release -p esp4ml-bench --bin espspan -- \
//!     --config 3 --frames 8 --mode pipe --mode p2p --json espspan.json
//! ```
//!
//! Two consistency checks gate the exit status (exit 1 on violation,
//! exit 2 on bad arguments — the same contract as `espprof`), which is
//! what lets CI smoke-test the span assembler against the simulator:
//!
//! 1. **Attribution invariant** — on every frame of every run, the span
//!    cycles sum exactly to the frame's end-to-end latency
//!    ([`SpanReport::check_attribution`](esp4ml::trace::SpanReport::check_attribution));
//!    no cycle is lost or double counted.
//! 2. **Critical-path agreement** — the aggregated critical path names
//!    the same limiting stage as the session's
//!    [`ProfileCollector`](esp4ml::trace::ProfileCollector)'s
//!    bottleneck report. The span collector takes its critical path
//!    from an embedded `RunAccum` running the profiler's own bottleneck
//!    code on the same events, so this is not a check by an independent
//!    analysis: it guards that both collectors saw the same event
//!    stream.
//!
//! `--all` sweeps every Fig. 7 configuration instead of one `--config`.

use esp4ml_bench::cli::{self, HarnessSpec, ESPSPAN_FLAGS};
use esp4ml_bench::{observe, WorkloadKind};

fn main() {
    let spec = HarnessSpec::new(
        "espspan",
        "assemble frame-level span trees across execution modes and check \
         attribution and critical-path agreement",
        ESPSPAN_FLAGS,
    )
    .with_defaults(|d| d.frames = 8);
    let args =
        cli::parse(&spec, std::env::args().skip(1)).unwrap_or_else(|e| cli::exit_on_error(e));
    let response = observe::run_workload("espspan", &args, WorkloadKind::Spans);
    print!("{}", response.summary_text);
    observe::write_artifacts_or_exit("espspan", &args, &response);
    if response.verdict.ok {
        println!(
            "span attribution exact and critical path agrees with the \
             profiler across {} run(s)",
            response.runs.len()
        );
    } else {
        eprintln!("FAIL: span layer disagrees with the simulator or profiler:");
        for v in &response.verdict.violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
}
