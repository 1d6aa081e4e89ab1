//! Response plumbing shared by the harness binaries: run a workload
//! through the unified request API and map the response's named
//! artifacts back onto the output files named on the command line.

use crate::cli::HarnessArgs;
use crate::request::{self, Progress, ProgressSink, RequestError, RunResponse, WorkloadKind};
use esp4ml::apps::TrainedModels;
use std::io::Write as _;
use std::path::PathBuf;

/// The `--progress` sink: one [`Progress`] JSON line to stderr per
/// completed unit. The line bytes are exactly [`Progress::to_json_line`]
/// — the same serialization the server stores on its jobs, which is
/// what makes CLI-vs-server progress comparable byte for byte.
struct StderrProgress;

impl ProgressSink for StderrProgress {
    fn publish(&self, progress: &Progress) {
        let mut err = std::io::stderr().lock();
        let _ = writeln!(err, "{}", progress.to_json_line());
    }
}

/// Builds the request these options describe, executes it, and exits
/// with the binary's historical codes on failure: 2 for usage errors
/// and admission rejections (typed diagnostics on stderr, nothing
/// simulated), 1 for run failures. Response notes (sanitizer verdicts,
/// fault-recovery tallies, ring-buffer drops) go to stderr, as do the
/// `--progress` JSON lines. Every workload runs untrained weights, as
/// the job server does, so both return the same artifact bytes.
pub fn run_workload(binary: &str, args: &HarnessArgs, workload: WorkloadKind) -> RunResponse {
    let models = TrainedModels::untrained();
    let req = match args.to_request(workload) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let sink = StderrProgress;
    let progress: Option<&dyn ProgressSink> = args.progress.then_some(&sink as _);
    match request::execute_with_progress(&req, &models, progress) {
        Ok(response) => {
            for note in &response.notes {
                eprintln!("{binary}: {note}");
            }
            response
        }
        Err(RequestError::Invalid(msg)) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
        Err(RequestError::Rejected(report)) => {
            for d in &report.diagnostics {
                eprintln!("{d}");
            }
            eprintln!("{binary}: rejected by the admission lint; nothing was simulated");
            std::process::exit(2);
        }
        Err(RequestError::Run(e)) => {
            eprintln!("{binary} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The counter CSV path derived from the trace path.
fn counters_path(trace: &std::path::Path) -> PathBuf {
    let mut name = trace.file_name().unwrap_or_default().to_os_string();
    name.push(".counters.csv");
    trace.with_file_name(name)
}

/// The Perfetto span-trace path derived from the span-report path.
fn span_trace_path(spans: &std::path::Path) -> PathBuf {
    let mut name = spans.file_name().unwrap_or_default().to_os_string();
    name.push(".perfetto.json");
    spans.with_file_name(name)
}

fn write_named(
    response: &RunResponse,
    key: &str,
    what: &str,
    path: &std::path::Path,
) -> std::io::Result<()> {
    if let Some(body) = response.artifacts.get(key) {
        std::fs::write(path, body)?;
        println!("wrote {what} to {}", path.display());
    }
    Ok(())
}

/// Writes the response's artifacts to the files the command line named:
/// the Chrome trace JSON at `--trace` (counter CSV next to it under
/// `--sample-every`), the profile report JSON at `--profile`, the
/// span-report JSON at `--spans` (Perfetto span trace next to it), the
/// verdict report at `--json`, the folded flame stacks at `--flame`,
/// and the enveloped run-metrics JSON at `--metrics`. Artifact bodies
/// are written byte-exactly — a `--metrics` file matches the espserve
/// `metrics` artifact for the same request. Text companions
/// (per-run profiles, critical paths, NoC traffic) go to stdout.
///
/// # Errors
///
/// I/O failures writing the output files.
pub fn write_artifacts(args: &HarnessArgs, response: &RunResponse) -> std::io::Result<()> {
    if let Some(path) = args.trace.as_ref() {
        write_named(response, "trace", "trace events", path)?;
        if args.sample_every.is_some() {
            if let Some(csv) = response.artifacts.get("counters_csv") {
                let p = counters_path(path);
                std::fs::write(&p, csv)?;
                println!("wrote counter samples to {}", p.display());
            }
        }
    }
    if let Some(path) = args.profile.as_ref() {
        write_named(response, "profile", "profile reports", path)?;
        if let Some(text) = response.artifacts.get("profile_text") {
            println!("\nPer-run profiles:\n{text}");
        }
    }
    if let Some(path) = args.spans.as_ref() {
        write_named(response, "spans", "span reports", path)?;
        if let Some(doc) = response.artifacts.get("span_trace") {
            let p = span_trace_path(path);
            std::fs::write(&p, doc)?;
            println!("wrote span trace to {}", p.display());
        }
        if let Some(text) = response.artifacts.get("span_text") {
            println!("\nPer-run critical paths:\n{text}");
        }
    }
    if args.trace.is_some() || args.profile.is_some() || args.spans.is_some() {
        if let Some(text) = response.artifacts.get("noc_text") {
            println!("\nPer-run NoC traffic:\n{text}");
        }
    }
    if let Some(path) = args.json.as_ref() {
        write_named(response, "report", "verdict report", path)?;
        write_named(response, "campaign", "campaign report", path)?;
    }
    if let Some(path) = args.flame.as_ref() {
        write_named(response, "flame", "flame stacks", path)?;
    }
    if let Some(path) = args.metrics.as_ref() {
        write_named(response, "metrics", "run metrics", path)?;
    }
    Ok(())
}

/// [`write_artifacts`] with the binaries' historical failure handling:
/// prints the I/O error and exits 1.
pub fn write_artifacts_or_exit(binary: &str, args: &HarnessArgs, response: &RunResponse) {
    if let Err(e) = write_artifacts(args, response) {
        eprintln!("{binary}: failed to write artifacts: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_trace_path_appends_suffix() {
        assert_eq!(
            span_trace_path(std::path::Path::new("/tmp/fig8.spans.json")),
            PathBuf::from("/tmp/fig8.spans.json.perfetto.json")
        );
    }

    #[test]
    fn counters_path_appends_suffix() {
        assert_eq!(
            counters_path(std::path::Path::new("/tmp/fig7.json")),
            PathBuf::from("/tmp/fig7.json.counters.csv")
        );
    }
}
