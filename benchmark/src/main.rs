//! The S2S benchmark: four workloads, end-to-end metrics with tracing
//! off, per-layer metrics from a separate traced pass. See README.md.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! benchmark --suite <out.json> [--seed <n>] [--rounds <r>] [--seconds <s>] [--trace-dir <dir>]
//! benchmark --quick
//! benchmark --agree <a.json> <b.json> [--bounds <BENCHMARK.json>]
//! ```
//!
//! The first form is one run: it prints a table to stderr and, as the
//! last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod gen;
mod json;
mod layers;
mod measure;
mod run;
mod suite;
mod trace;
mod workload;

use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--trace-out <file>]\n  benchmark --suite <out.json> [--seed <n>] [--rounds <r>] \
         [--seconds <s>] [--trace-dir <dir>]\n  benchmark --quick\n  benchmark --agree <a.json> \
         <b.json> [--bounds <BENCHMARK.json>]",
        gen::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs; `--agree` takes two values, `--quick` none.
struct Args(Vec<String>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn values(&self, flag: &str, n: usize) -> Option<&[String]> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1..at + 1 + n)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag, 1).map(|v| v[0].as_str())
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} takes a whole number, got {v:?}")),
        }
    }
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    if let Some(files) = args.values("--agree", 2) {
        let bounds = args.value("--bounds").unwrap_or("BENCHMARK.json");
        return suite::agree(&files[0], &files[1], bounds);
    }
    if args.has("--quick") {
        let plan = suite::Plan { seed: args.number("--seed", 42)?, rounds: 1, seconds: 1 };
        return suite::run(&plan, None, None);
    }
    if let Some(out) = args.value("--suite") {
        let plan = suite::Plan {
            seed: args.number("--seed", 42)?,
            rounds: args.number("--rounds", 5)?,
            seconds: args.number("--seconds", 6)?,
        };
        return suite::run(&plan, Some(out), args.value("--trace-dir"));
    }
    let Some(name) = args.value("--workload") else { return Ok(usage()) };
    let seed = args.number("--seed", 42)?;
    let seconds = args.number("--seconds", 6)?.max(1);
    let w = gen::workload(name, seed).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let outcome = match args.number("--trace", 0)? {
        0 => run::end_to_end(&w, seed, seconds),
        _ => run::per_layer(&w, seed, seconds, args.value("--trace-out"))?,
    };
    outcome.print_table(&w);
    println!("{}", outcome.to_json().render());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match dispatch(&Args(std::env::args().skip(1).collect())) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
