//! # gcs-e2e — the repo's reference benchmark
//!
//! Six workloads drive the system through public functions of `gcs-tensor`,
//! `gcs-core`, `gcs-collectives`, `gcs-nn`, `gcs-ddp` and `gcs-aggd` only.
//! An untraced run reports the end-to-end metrics; a traced run of the same
//! workload records spans around each layer's public calls and reports the
//! per-layer metrics. See `README.md` for the tables and `run.sh` for the
//! one command.
//!
//! ```text
//! e2e run --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! e2e collect DIR OUT.json
//! e2e compare A.json B.json
//! e2e list
//! ```

pub mod compare;
pub mod env;
pub mod inputs;
pub mod layers;
pub mod openloop;
pub mod report;
pub mod stats;
pub mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gcs_metrics::Json;

use env::Environment;
use workloads::{RunCtx, Workload};

/// Arguments of `e2e run`.
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && (1.0..=60.0).contains(&s)) {
                    return Err(format!("--seconds {value} is outside 1..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: want 0 or 1")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        out,
    })
}

fn write_file(path: &Path, body: &str) -> Result<(), String> {
    std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn run(args: &[String], counting_alloc: bool) -> Result<bool, String> {
    let args = parse_run(args)?;
    if args.traced != counting_alloc {
        return Err(format!(
            "--trace {} needs the {} binary",
            u8::from(args.traced),
            if args.traced { "e2e_traced" } else { "e2e" }
        ));
    }
    if args.traced && !gcs_alloc::counting_enabled() {
        return Err("the counting allocator is not installed".into());
    }
    let env = Environment::detect()?;
    let ctx = RunCtx {
        env: &env,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    let outcome = args.workload.run(&ctx)?;
    outcome.validate(args.traced)?;
    if let Some(dir) = &args.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let name = args.workload.name();
        let record = outcome.record(name, args.seed, args.seconds, args.traced, &env);
        let suffix = if args.traced { ".traced" } else { "" };
        // Several untraced repeats may share a directory: number them.
        let mut path = dir.join(format!("{name}{suffix}.json"));
        let mut i = 1;
        while path.exists() {
            i += 1;
            path = dir.join(format!("{name}{suffix}.{i}.json"));
        }
        write_file(&path, &record.render_pretty())?;
        if args.traced {
            write_file(
                &dir.join(format!("{name}.trace.json")),
                &outcome.trace.to_chrome_json(),
            )?;
        }
    }
    print!("{}", outcome.human_lines(args.traced));
    println!("{}", outcome.result_line(args.traced));
    Ok(outcome.correct())
}

fn dispatch(args: &[String], counting_alloc: bool) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..], counting_alloc),
        Some("list") => {
            for w in Workload::ALL {
                println!("{}", w.name());
            }
            Ok(true)
        }
        Some("collect") => match &args[1..] {
            [dir, out] => {
                let run = compare::collect(Path::new(dir))?;
                write_file(Path::new(out), &run.render_pretty())?;
                Ok(true)
            }
            _ => Err("usage: e2e collect DIR OUT.json".into()),
        },
        Some("compare") => match &args[1..] {
            [a, b] => {
                let (table, pass) = compare::compare(&read_json(a)?, &read_json(b)?)?;
                print!("{table}");
                Ok(pass)
            }
            _ => Err("usage: e2e compare A.json B.json".into()),
        },
        _ => Err("usage: e2e run|collect|compare|list ... (see README.md)".into()),
    }
}

/// Entry point of both binaries. `counting_alloc` says whether this binary
/// installed `gcs_alloc::CountingAlloc`.
pub fn main(counting_alloc: bool) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, counting_alloc) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_arguments_parse_in_any_order() {
        let a = parse_run(&args("--seed 7 --trace 1 --workload tcp_ring --seconds 12")).unwrap();
        assert_eq!(a.workload, Workload::TcpRing);
        assert_eq!((a.seed, a.seconds, a.traced), (7, 12.0, true));
        assert!(a.out.is_none());
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse_run(&args("--workload nope --seed 1 --seconds 5 --trace 0")).is_err());
        assert!(parse_run(&args("--workload tcp_ring --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_run(&args("--workload tcp_ring --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_run(&args("--workload tcp_ring --seed 1 --seconds 5")).is_err());
        assert!(parse_run(&args("--workload tcp_ring --seed")).is_err());
    }
}
