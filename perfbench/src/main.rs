//! `e2e`: the repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! e2e run --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]
//! e2e compare <a.jsonl> <b.jsonl>
//! ```

mod compare;
mod json;
mod metrics;
mod probes;
mod rep;
mod report;
mod shapes;
mod sys;
mod trace;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dvv::mechanisms::DvvMechanism;

use crate::rep::{run_rep, Rep};
use crate::report::{RunInfo, Stats};
use crate::shapes::{Driver, Shape, SHAPES};
use crate::trace::Traced;

/// Stop starting reps once a run has used this much wall time, whatever
/// `--seconds` says: the driver allows a run 180 s.
const WALL_CAP_S: f64 = 120.0;

struct RunArgs {
    shape: &'static Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = SHAPES.iter().map(|s| s.name).collect();
    format!(
        "usage: e2e run --workload <{}> --seed <u64> [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]\n\
         \x20      e2e compare <a.jsonl> <b.jsonl>",
        names.join("|")
    )
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut traced, mut quick, mut out) =
        (None, None, 10.0, false, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?.to_string()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds wants a positive number")?;
            }
            "--trace" => {
                traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other}")),
                };
            }
            "--quick" => quick = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let shape = shapes::by_name(&workload).ok_or(format!("unknown workload {workload}"))?;
    Ok(RunArgs {
        shape,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        quick,
        out,
    })
}

/// Everything the benchmark writes goes under the directory its own
/// executable was built into (the cargo target directory).
fn home_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    exe.parent()
        .expect("executable has a parent directory")
        .to_path_buf()
}

fn run(args: &RunArgs) -> ExitCode {
    let started = Instant::now();
    let shape = args.shape;
    let scratch = home_dir().join("e2e-scratch");
    std::fs::create_dir_all(&scratch).expect("create scratch directory");

    // Quick mode: one rep of half the work (≈0.5 s), no warm-up; the
    // correctness gate stays on.
    let cycles = if args.quick {
        shape.cycles_per_client / 2
    } else {
        shape.cycles_per_client
    };
    // Reps are fixed work, so the run ends at the rep boundary nearest
    // to `--seconds` of measured time. Only quiet reps count towards
    // it: a run that meets a throttled host keeps going until the host
    // is quiet again (or the wall cap), instead of ending on nothing but
    // disturbed reps like every other run started in the same minutes.
    let more = |reps_done: usize, quiet_reps: usize, quiet_s: f64| {
        reps_done == 0
            || (!args.quick
                && quiet_s + quiet_s / quiet_reps.max(1) as f64 / 2.0 < args.seconds
                && started.elapsed().as_secs_f64() < WALL_CAP_S)
    };
    let plain_rep = |seed: u64| run_rep(shape, DvvMechanism, seed, cycles, &scratch);

    let mut warmup = Vec::new();
    if !args.quick {
        warmup.push(plain_rep(args.seed));
    }
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let (mut quiet_reps, mut quiet_s) = (0, 0.0);
    while more(plain.len(), quiet_reps, quiet_s) {
        // Rep i runs on seed base+i; a traced rep reuses its plain
        // twin's seed, and the pair alternates which of them goes first.
        let seed = args.seed + 1 + plain.len() as u64;
        let traced_first = plain.len() % 2 == 1;
        let traced_rep = || run_rep(shape, Traced(DvvMechanism), seed, cycles, &scratch);
        if args.traced && traced_first {
            traced.push(traced_rep());
        }
        plain.push(plain_rep(seed));
        if args.traced && !traced_first {
            traced.push(traced_rep());
        }
        let pair = [plain.last(), traced.get(plain.len() - 1)];
        for rep in pair.into_iter().flatten().filter(|r| r.quiet()) {
            quiet_reps += 1;
            quiet_s += rep.elapsed_s;
        }
    }

    let all = || warmup.iter().chain(&plain).chain(&traced);
    let info = RunInfo {
        shape,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
        nproc: sys::nproc(),
        reps: plain.len(),
        quiet_reps: plain.iter().filter(|r| r.quiet()).count(),
        warmup_reps: warmup.len(),
        cycles_per_client: cycles,
        attempted: all().map(Rep::attempted_ops).sum(),
        failed: all().map(Rep::failed_ops).sum(),
        gate_failures: all().filter_map(|r| r.gate_failure.clone()).collect(),
    };

    // What the host did to the measured reps, disturbed ones included.
    let host = report::host(plain.iter().chain(&traced));
    let mut stats = if args.traced {
        // Like the gated timings, the per-layer ones rest on the pairs
        // the host left alone.
        keep_quiet_pairs(&mut plain, &mut traced);
        traced_stats(shape, args.seed, &plain, &traced, &scratch)
    } else {
        let setups: Vec<f64> = warmup.iter().chain(&plain).map(|r| r.setup_s).collect();
        let first = warmup.first().unwrap_or(&plain[0]);
        let mut stats = report::end_to_end(&plain, first, &setups);
        stats.extend(report::public_layers(shape, &plain));
        stats
    };
    stats.extend(host);

    let out = args.out.clone().unwrap_or_else(|| {
        let kind = if args.traced { "-trace" } else { "" };
        home_dir()
            .join("e2e-results")
            .join(format!("{}{kind}.jsonl", shape.name))
    });
    if let Err(e) = append_line(&out, &report::document(&info, &stats)) {
        eprintln!("e2e: writing {}: {e}", out.display());
        return ExitCode::from(2);
    }
    print!("{}", report::table(&info, &stats));
    println!("result document appended to {}", out.display());
    println!("{}", report::result_line(&info, &stats));
    if info.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Drops every untraced/traced pair of which the host disturbed a half,
/// unless that leaves too few pairs to summarise.
fn keep_quiet_pairs(plain: &mut Vec<Rep>, traced: &mut Vec<Rep>) {
    let quiet: Vec<bool> = plain
        .iter()
        .zip(traced.iter())
        .map(|(p, t)| p.quiet() && t.quiet())
        .collect();
    if quiet.iter().filter(|q| **q).count() >= report::MIN_QUIET_REPS {
        for reps in [plain, traced] {
            let mut keep = quiet.iter();
            reps.retain(|_| *keep.next().expect("one flag per pair"));
        }
    }
}

/// The traced run's per-layer metrics: public stats and call counters
/// of the traced reps, the probes that belong to the workload's driver,
/// and the budget's remainder against the untraced twins.
fn traced_stats(shape: &Shape, seed: u64, plain: &[Rep], traced: &[Rep], scratch: &Path) -> Stats {
    let mut stats = report::public_layers(shape, traced);
    stats.extend(report::traced_layers(traced));
    let siblings = stats
        .get("kvstore.mean_siblings")
        .and_then(|s| s.as_ref())
        .map_or(1, |s| s.value.round().max(1.0) as usize);

    stats.extend(probes::messages(shape, siblings));
    stats.extend(probes::protocol(shape, siblings, seed));
    match shape.driver {
        Driver::Socket => stats.extend(probes::transport(shape, siblings)),
        Driver::Durable => stats.extend(probes::storage_log(shape, siblings, scratch)),
        Driver::Threaded => {}
    }
    let budget = report::budget(plain, traced, &stats);
    stats.extend(budget);
    stats
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.flush()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => match parse_run(rest) {
            Ok(a) => run(&a),
            Err(e) => {
                eprintln!("e2e run: {e}\n{}", usage());
                ExitCode::from(2)
            }
        },
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => {
            match compare::run(Path::new(&rest[0]), Path::new(&rest[1])) {
                Ok(code) => ExitCode::from(code as u8),
                Err(e) => {
                    eprintln!("e2e compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
