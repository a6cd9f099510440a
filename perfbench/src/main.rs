//! `perfbench`: the canonical serving benchmark.
//!
//! ```text
//! perfbench --ssq <ssq binary> --root <repo root> --out <artifact dir>
//!           --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload (see `README.md` beside this crate), checks
//! every answer, prints a run header and a human-readable report, and
//! ends stdout with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 after printing the result if any answer was
//! wrong, and 2 without a result if the run could not be made.

mod data;
mod host;
mod inproc;
mod layers;
mod serve;
mod stats;
mod trace;
mod verify;
mod workloads;

use std::path::{Path, PathBuf};
use workloads::{Inputs, Outcome, Workload};

struct Args {
    ssq: PathBuf,
    root: PathBuf,
    out: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload '{name}' (expected one of {names:?})")
    })?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a whole number")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        ssq: PathBuf::from(get("--ssq")?),
        root: PathBuf::from(get("--root")?),
        out: PathBuf::from(get("--out")?),
        workload,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    })
}

/// `git rev-parse HEAD` of the checkout, or `none` outside a git
/// repository.
fn git_rev(root: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over the paths and bytes of the sources that build the
/// server (`Cargo.toml`, `Cargo.lock`, `crates/**`), so runs of the
/// same tree carry the same digest even where there is no git metadata.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs") || p.ends_with("Cargo.toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_json(outcome: &Outcome, trace: bool) -> String {
    let entry = |n: &str, v: f64, u: &str| {
        format!(
            "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
            json_number(v)
        )
    };
    let metrics: Vec<String> = if trace {
        outcome
            .layer
            .iter()
            .map(|(n, v, u)| entry(n, *v, u))
            .collect()
    } else {
        outcome
            .e2e
            .iter()
            .map(|(n, v, u)| entry(n, *v, u))
            .collect()
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(correct) => std::process::exit(if correct { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let points = data::dataset();
    let csv = args.out.join(format!("usgs-{}.csv", data::DATASET_N));
    data::write_csv(&points, &csv).map_err(|e| format!("{}: {e}", csv.display()))?;

    let pass_s = if args.trace {
        args.seconds.min(workloads::TRACED_PASS_S)
    } else {
        args.seconds
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut header = vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={} pass_s={pass_s}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!(
            "host cores={cores} bench_isa={} git_rev={} src_digest={}",
            ssq_geom::simd::path_name(),
            git_rev(&args.root),
            source_digest(&args.root)
        ),
        format!(
            "dataset synthetic-usgs n={} dataset_seed={:#x}",
            points.len(),
            data::dataset_seed()
        ),
    ];

    let outcome = workloads::run(
        args.workload,
        &Inputs {
            ssq: &args.ssq,
            csv: &csv,
            points: &points,
            seed: args.seed,
            seconds: pass_s,
            trace: args.trace,
        },
    )?;
    header.push(format!("run {}", outcome.facts.join(" ")));

    let mut report: Vec<String> = header.iter().map(|h| format!("# {h}")).collect();
    for (name, value, unit) in &outcome.e2e {
        report.push(format!("e2e   {name:<34} {value:>14.4} {unit}"));
    }
    for (name, value, unit) in &outcome.layer {
        report.push(format!("layer {name:<34} {value:>14.4} {unit}"));
    }
    report.extend(outcome.lines.iter().cloned());
    if args.trace {
        let path = args.out.join(format!(
            "spans-{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        outcome
            .trace
            .write(&path, &header)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let (kept, total) = outcome.trace.counts();
        report.push(format!(
            "trace: {total} spans recorded, {kept} written to {}",
            path.display()
        ));
        for (name, t) in outcome.trace.totals() {
            report.push(format!(
                "trace self {name:<26} n={:<8} total={:>12.3}ms self={:>12.3}ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
    }
    let json = result_json(&outcome, args.trace);
    let report_path = args.out.join(format!(
        "report-{}-seed{}-trace{}.txt",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    let mut text = report.join("\n");
    text.push('\n');
    text.push_str(&json);
    text.push('\n');
    std::fs::write(&report_path, &text).map_err(|e| format!("{}: {e}", report_path.display()))?;
    print!("{text}");
    Ok(outcome.correct)
}
