//! The txrace benchmark: one workload, one seed, one process.
//!
//! ```text
//! perfbench --workload <live|replay|smallprog> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host facts, every metric with its unit and within-run
//! quartiles, and as the last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of an
//! untraced run, or the per-layer metrics of a traced run. A traced run
//! also writes its spans under `.perfbench/` in the working directory.

mod golden;
mod harness;
mod json;
mod layers;
mod live;
mod pipeline;
mod replay;
mod smallprog;
mod speed;
mod stats;
mod tracer;

use std::fmt::Write as _;
use std::path::PathBuf;

use harness::{drive, Ctx, Metric};

/// The end-to-end metrics every workload reports on its last line.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "job_p50_ms",
    "job_tail_ms",
    "peak_rss_mb",
    "overhead_tsan",
];

const WORKLOADS: [&str; 3] = ["live", "replay", "smallprog"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = parse(&flag, &value),
            "--seconds" => args.seconds = parse(&flag, &value),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    args
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
}

/// A JSON number; non-finite values (never expected) become 0.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn metric_json(m: &Metric) -> String {
    format!(
        "{{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"n\": {}}}",
        num(m.spread.median),
        m.unit,
        num(m.spread.q1),
        num(m.spread.q3),
        m.spread.n
    )
}

fn object(entries: impl Iterator<Item = (String, String)>) -> String {
    let body: Vec<String> = entries.map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = parse_args();
    let cx = Ctx {
        seed: args.seed,
        width: std::thread::available_parallelism().map_or(1, |n| n.get()),
        root: std::env::current_dir().unwrap_or_else(|_| PathBuf::from(".")),
    };
    let out = match args.workload.as_str() {
        "live" => drive::<live::Live>(&cx, args.seconds, args.trace),
        "replay" => drive::<replay::Replay>(&cx, args.seconds, args.trace),
        _ => drive::<smallprog::SmallProg>(&cx, args.seconds, args.trace),
    };

    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let facts = object(
        [
            ("workload", format!("\"{}\"", args.workload)),
            ("seed", args.seed.to_string()),
            ("seconds", num(args.seconds)),
            ("trace", u8::from(args.trace).to_string()),
            ("nproc", cx.width.to_string()),
            ("width", cx.width.to_string()),
            ("rounds", out.rounds.to_string()),
            ("traced_rounds", out.traced_rounds.to_string()),
            ("commit", format!("\"{}\"", env("PERFBENCH_COMMIT"))),
            (
                "source_digest",
                format!("\"{}\"", env("PERFBENCH_SOURCE_DIGEST")),
            ),
            (
                "profile",
                format!(
                    "\"{}\"",
                    if cfg!(debug_assertions) {
                        "debug"
                    } else {
                        "release"
                    }
                ),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v)),
    );
    println!("host {facts}");
    let mut report = String::new();
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        let s = &m.spread;
        let _ = writeln!(
            report,
            "metric {:<36} {:>16} {:<6} q1={} q3={} n={}",
            m.name,
            num(s.median),
            m.unit,
            num(s.q1),
            num(s.q3),
            s.n
        );
    }
    print!("{report}");

    let dir = cx.root.join(".perfbench");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let all = |ms: &[Metric]| object(ms.iter().map(|m| (m.name.to_string(), metric_json(m))));
    let result = object(
        [
            ("host", facts),
            ("attempted", out.attempted.to_string()),
            ("failed", out.failed.to_string()),
            ("end_to_end", all(&out.end_to_end)),
            ("per_layer", all(&out.per_layer)),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v)),
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(dir.join(format!("{stem}.json")), result + "\n"))
        .and_then(|_| {
            if args.trace {
                out.tracer
                    .write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", dir.display());
    }

    let reported: Vec<&Metric> = if args.trace {
        out.per_layer.iter().collect()
    } else {
        END_TO_END
            .iter()
            .map(|n| {
                out.end_to_end
                    .iter()
                    .find(|m| m.name == *n)
                    .expect("every workload reports every end-to-end metric")
            })
            .collect()
    };
    let metrics = object(reported.iter().map(|m| {
        (
            m.name.to_string(),
            format!(
                "{{\"value\": {}, \"unit\": \"{}\"}}",
                num(m.spread.median),
                m.unit
            ),
        )
    }));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    );
}
