//! `perfbench --workload <name> --seconds <s> [--seed <n>] [--trace 0|1]`
//!
//! Prints the resolved configuration, then as its last stdout line one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Exits 1 when a solve failed its correctness gate.

use perfbench::bench::{run_end_to_end, run_traced};
use perfbench::spec::{spec, SPECS, WIDTH};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 0,
        trace: false,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // No default: the run length comes from `run_seconds` in BENCHMARK.json.
    args.seconds = seconds.ok_or("--seconds is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload `{}` (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let knobs: Vec<String> = spec.knobs.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "config: workload={} generator={} scale={} knobs=[{}] ccs={}x{} dcs=all seed={} \
         width={WIDTH} cpus={} trace={} seconds={}",
        spec.name,
        spec.generator,
        spec.scale,
        knobs.join(","),
        spec.family.label(),
        spec.n_ccs,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        u8::from(args.trace),
        args.seconds,
    );
    let out_root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let out_dir = out_root.join(format!("{}-{}", spec.name, std::process::id()));
    let outcome = if args.trace {
        run_traced(spec, args.seed, 1.0, &out_dir)
    } else {
        run_end_to_end(
            spec,
            args.seed,
            Duration::from_secs(args.seconds),
            1.0,
            &out_dir,
            None,
        )
    };
    // Left in place when another run is still writing into it.
    let _ = std::fs::remove_dir(&out_root);
    for why in &outcome.failures {
        eprintln!("perfbench: FAILED {why}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
