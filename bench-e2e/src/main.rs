//! `bench-e2e` — runs one workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path bench-e2e/Cargo.toml -- \
//!     --workload paper-n128 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer table. Standard
//! error carries the drift-adjustment audit (raw and adjusted medians and
//! quartiles) and, for `--trace 1`, the recorded spans as JSON Lines.
//! The exit code is 0 only when every output check passed.

use pms_bench_e2e::bench::{run, Options};
use pms_bench_e2e::cells::{Size, WorkloadKind};

fn usage() -> ! {
    let names: Vec<&str> = WorkloadKind::ALL.iter().map(|w| w.name()).collect();
    eprintln!(
        "usage: bench-e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n\
         workloads: {}",
        names.join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut workload = None;
    let mut opts = Options {
        workload: WorkloadKind::PaperN128,
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .map(String::as_str)
            .unwrap_or_else(|| usage());
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(WorkloadKind::from_name(value).unwrap_or_else(|| usage()))
            }
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                opts.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    usage()
                }
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    opts.workload = workload.unwrap_or_else(|| usage());
    opts
}

fn main() {
    let opts = parse_args();
    let outcome = run(&opts);
    eprintln!("audit {}", outcome.audit.render());
    if let Some(spans) = &outcome.spans {
        eprint!("{spans}");
    }
    println!("{}", outcome.to_json().render());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
