//! Repository benchmark. One process, one load-generator thread, one
//! workload:
//!
//! ```text
//! repobench --workload <stream_smallbank|admission_openloop|restart_drm>
//!           --seed <n> --seconds <s> --trace <0|1> --offered-tps <tx/s>
//! ```
//!
//! Set-up generates every input from the seed; the timed region then
//! drives the repository's crates through their public API. Each run
//! checks its results against a serial reference computed outside the
//! timed region and exits non-zero, printing no numbers, on a mismatch.
//! The last line of standard output is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). See `README.md` beside this crate for why each
//! workload exists and what each layer metric is expected to move.

mod admission;
mod gate;
mod layers;
mod measure;
mod peer;
mod report;
mod restart;
mod stream;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use measure::Tracer;

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Fewest timed iterations a run makes, however short `--seconds` is.
const MIN_ITERATIONS: usize = 2;

/// The benchmark's definition. Its `end_to_end` and `per_layer` arrays
/// are the one list of the metrics a run reports, with their units.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The string value of `key` in one flat JSON object's text.
fn string_field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let quoted = format!("\"{key}\"");
    let rest = &object[object.find(&quoted)? + quoted.len()..];
    let rest = rest
        .trim_start()
        .strip_prefix(':')?
        .trim_start()
        .strip_prefix('"')?;
    Some(&rest[..rest.find('"')?])
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s `section` array,
/// in file order. A minimal scan, enough for an array of flat objects
/// whose strings hold no quotes or brackets.
fn metric_list(section: &str) -> Result<Vec<(&'static str, &'static str)>, String> {
    let missing = || format!("BENCHMARK.json has no {section} array");
    let quoted = format!("\"{section}\"");
    let rest = &BENCHMARK_JSON[BENCHMARK_JSON.find(&quoted).ok_or_else(missing)? + quoted.len()..];
    let body =
        &rest[rest.find('[').ok_or_else(missing)? + 1..rest.find(']').ok_or_else(missing)?];
    let list: Vec<_> = body
        .split('}')
        .filter(|object| object.contains('{'))
        .map(|object| {
            string_field(object, "name")
                .zip(string_field(object, "unit"))
                .ok_or(format!("a {section} entry lacks a name or unit"))
        })
        .collect::<Result<_, _>>()?;
    if list.is_empty() {
        return Err(missing());
    }
    Ok(list)
}

/// Checks a workload's metrics against the listed ones: every metric it
/// set is listed and, for end-to-end metrics, every listed one is set.
/// A per-layer metric of a layer the workload does not exercise reads 0.
fn check_metrics(
    values: &BTreeMap<&'static str, f64>,
    listed: &[(&str, &str)],
    all_set: bool,
) -> Result<(), String> {
    if let Some(name) = values.keys().find(|k| !listed.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {name} is not listed in BENCHMARK.json"));
    }
    if let Some((name, _)) = listed
        .iter()
        .find(|(n, _)| all_set && !values.contains_key(n))
    {
        return Err(format!("end-to-end metric {name} was not measured"));
    }
    if let Some((name, _)) = values.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("metric {name} is not finite"));
    }
    Ok(())
}

/// Everything a workload sees of the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub offered_tps: f64,
    /// Scratch directory for store directories and the trace file.
    pub work: PathBuf,
    pub tracer: Tracer,
}

/// What a workload reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

/// Medians of a run's timed set-ups and host calibrations.
pub struct Timing {
    pub setup_s: f64,
    /// Wall and process CPU time of [`measure::calibrate`], ms.
    pub calibration_ms: f64,
    pub calibration_cpu_ms: f64,
}

/// One timed iteration's payload.
pub struct Iter<T> {
    pub traced: bool,
    pub data: T,
}

/// Runs `setup` once and returns its result with its time in seconds.
pub fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let t0 = Instant::now();
    let out = setup()?;
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// Runs one warm-up iteration, whose results are checked and dropped,
/// then timed iterations for `ctx.seconds` of iteration time. A traced
/// run alternates untraced and traced iterations so the trace overhead is
/// measured inside one run.
///
/// The host's speed drifts over tens of seconds, and a set-up on one
/// thread sees only the few seconds it lasts. So `setup` is repeated
/// between iterations, evenly through the run, until [`SETUP_REPEATS`]
/// set-ups (`first_setup_s` among them) are timed; their results are
/// dropped. The host's speed is calibrated before every timed iteration.
pub fn iterate<S, T>(
    ctx: &Ctx,
    first_setup_s: f64,
    mut setup: impl FnMut() -> Result<S, String>,
    mut iteration: impl FnMut(usize) -> Result<T, String>,
) -> Result<(Vec<Iter<T>>, Timing), String> {
    iteration(0)?;
    let mut setups = vec![first_setup_s];
    let (mut calibrations, mut calibrations_cpu) = (Vec::new(), Vec::new());
    let mut spent = 0.0;
    let mut out = Vec::new();
    let mut i = 1;
    // Past the minimum, stops before an iteration of the mean length so
    // far would overrun `ctx.seconds`, so a run lasts about as long as asked.
    let min = MIN_ITERATIONS.max(if ctx.trace { 4 } else { 0 });
    while out.len() < min || spent * (out.len() + 1) as f64 / out.len() as f64 <= ctx.seconds {
        if spent >= ctx.seconds * setups.len() as f64 / SETUP_REPEATS as f64 {
            setups.push(timed(&mut setup)?.1);
        }
        let (wall_ms, cpu_ms) = measure::calibrate(peer::THREADS);
        calibrations.push(wall_ms);
        calibrations_cpu.push(cpu_ms);
        let traced = ctx.trace && i % 2 == 0;
        ctx.tracer.set_on(traced);
        let t0 = Instant::now();
        let data = ctx.tracer.span("iteration", i as u64, || iteration(i))?;
        spent += t0.elapsed().as_secs_f64();
        ctx.tracer.set_on(false);
        out.push(Iter { traced, data });
        i += 1;
    }
    while setups.len() < SETUP_REPEATS {
        setups.push(timed(&mut setup)?.1);
    }
    println!(
        "set-up times, in run order: {:?} ms",
        setups.iter().map(|t| (t * 1e3).round()).collect::<Vec<_>>()
    );
    Ok((
        out,
        Timing {
            setup_s: measure::median(&setups),
            calibration_ms: measure::median(&calibrations),
            calibration_cpu_ms: measure::median(&calibrations_cpu),
        },
    ))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    offered_tps: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or(format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(name, value);
    }
    let mut take = |k: &str| map.remove(k);
    let num = |k: &str, v: Option<String>| -> Result<Option<f64>, String> {
        v.map(|v| {
            v.parse::<f64>()
                .map_err(|_| format!("--{k} {v:?} is not a number"))
        })
        .transpose()
    };
    let args = Args {
        workload: take("workload").ok_or("--workload is required")?,
        seed: take("seed")
            .ok_or("--seed is required")?
            .parse()
            .map_err(|_| "--seed must be a whole number")?,
        seconds: num("seconds", take("seconds"))?.ok_or("--seconds is required")?,
        trace: match take("trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        offered_tps: num("offered-tps", take("offered-tps"))?,
    };
    if let Some(extra) = map.keys().next() {
        return Err(format!("unknown flag --{extra}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Prints the configuration and refuses a non-production build or
/// backend: every number must come from the code path peers run.
fn check_configuration() -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let field = fabric_crypto::default_field_backend();
    let scalar = fabric_crypto::default_scalar_backend();
    let state = fabric_statedb::default_state_backend();
    // The check-sync hooks add a lock tag to every shim mutex, so the
    // shim's mutex is larger than std's exactly when they are compiled in.
    let check_sync = std::mem::size_of::<parking_lot::Mutex<u8>>()
        != std::mem::size_of::<std::sync::Mutex<u8>>();
    println!(
        "config: nproc={nproc} generator_threads=1 vscc_workers={t} verify_lanes={t} \
         mempool_verify_workers={t} field={} scalar={} state={} check_sync_compiled={check_sync} \
         check_sync_checking=off",
        field.name(),
        scalar.name(),
        state.name(),
        t = peer::THREADS,
    );
    if field != fabric_crypto::FieldBackend::Solinas
        || scalar != fabric_crypto::ScalarBackend::Barrett
        || state != fabric_statedb::StateBackend::Sharded
    {
        return Err("a FABRIC_*_BACKEND variable selects a non-default backend".into());
    }
    Ok(())
}

fn json_metrics(values: &BTreeMap<&'static str, f64>, names: &[(&str, &str)]) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn run(args: Args) -> Result<Outcome, String> {
    check_configuration()?;
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        offered_tps: args.offered_tps.unwrap_or(0.0),
        work,
        tracer: Tracer::new(),
    };
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, ctx.seed, ctx.seconds, ctx.trace
    );
    let result = match args.workload.as_str() {
        "stream_smallbank" => stream::run(&ctx),
        "admission_openloop" => admission::run(&ctx),
        "restart_drm" => restart::run(&ctx),
        other => Err(format!("unknown workload {other:?}")),
    };
    if result.is_ok() && ctx.trace {
        let path = PathBuf::from(".bench_work")
            .join(format!("trace-{}-{}.jsonl", args.workload, ctx.seed));
        ctx.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = args.trace;
    let result = (|| {
        let end_to_end = metric_list("end_to_end")?;
        let per_layer = metric_list("per_layer")?;
        let outcome = run(args)?;
        check_metrics(&outcome.end_to_end, &end_to_end, true)?;
        check_metrics(&outcome.per_layer, &per_layer, false)?;
        Ok::<_, String>((outcome, end_to_end, per_layer))
    })();
    let (outcome, end_to_end, per_layer) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    for (name, unit) in &end_to_end {
        let v = outcome.end_to_end[name];
        println!("e2e   {name:<34} {v:>14.4} {unit}");
    }
    for (name, unit) in per_layer.iter().filter(|_| trace) {
        let v = outcome.per_layer.get(name).copied().unwrap_or(0.0);
        println!("layer {name:<34} {v:>14.4} {unit}");
    }
    let (values, names) = if trace {
        (&outcome.per_layer, &per_layer)
    } else {
        (&outcome.end_to_end, &end_to_end)
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(values, names)
    );
    ExitCode::SUCCESS
}
