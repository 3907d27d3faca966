//! End-to-end and per-layer benchmark for the simulator (`atp_sim`) and the
//! threaded runtime (`atp_core`), driven from outside through their public
//! APIs. See `perfbench/README.md` for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --pin --workload <sim workload> --seed <n>
//! ```
//!
//! Run from the repository root: the metric names and units come from
//! `BENCHMARK.json` there. The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`, where `metrics` holds
//! every `end_to_end` metric with `--trace 0` and every `per_layer` metric
//! with `--trace 1`.

#![forbid(unsafe_code)]

mod rt;
mod sim;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::exit;

use atp_net::{ChanTransport, TcpTransport, Transport};
use atp_sim::cluster::{run_in_world, run_on_transport, ClusterScript};
use atp_sim::runner::{ProtocolNode, ProtocolVisitor};
use atp_sim::Protocol;
use atp_util::json::{parse, JsonWriter, Value};

use trace::{Timed, Traced};

const WORKLOADS: [&str; 4] = ["sim-large-n", "sim-paper-figs", "rt-chan", "rt-tcp-shards"];

/// Repetition `i` of a run uses input set `i % INPUT_SETS`, each drawn
/// from its own seed derived from the run's seed. Reporting the median over
/// repetitions then averages out how one input set happens to favour or
/// penalise the code, which on its own moves wall time by several percent.
pub const INPUT_SETS: u64 = 4;

/// The seed of input set `set` of a run seeded with `seed` (SplitMix64).
pub fn input_seed(seed: u64, set: u64) -> u64 {
    let mut z = seed.wrapping_add(set.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one run measured and found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records a failed output check; the run reports `correct: false`.
    pub fn problem(&mut self, what: String) {
        eprintln!("check failed: {what}");
        self.problems.push(what);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut pin = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        pin,
    })
}

/// `(name, unit)` of every metric listed under `key` in `BENCHMARK.json`.
fn listed_metrics(doc: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    let list = doc
        .get(key)
        .and_then(Value::as_arr)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?;
    list.iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Value::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("a {key} entry lacks a name or unit"))
        })
        .collect()
}

/// Runs the pinned reference script through the deterministic world and
/// through a real transport, with and without the measuring wrappers, and
/// requires all four outcomes to be equal: the wrappers change nothing.
fn check_noop<T: Transport>(seed: u64, out: &mut Outcome) {
    struct Proof<T>(u64, std::marker::PhantomData<T>);
    impl<T: Transport> ProtocolVisitor for Proof<T> {
        type Out = Result<(), String>;
        fn run<P: ProtocolNode>(self) -> Result<(), String> {
            let script = ClusterScript::reference(self.0);
            let bare = run_in_world::<P>(&script);
            let wrapped = run_in_world::<Timed<P>>(&script);
            let io = |e: std::io::Error| e.to_string();
            let (bare_t, s1) = run_on_transport::<P, T>(&script).map_err(io)?;
            let (wrapped_t, s2) = run_on_transport::<Timed<P>, Traced<T>>(&script).map_err(io)?;
            if bare.grants.len() != script.requests.len() {
                return Err(format!(
                    "{} granted {} of {}",
                    P::LABEL,
                    bare.grants.len(),
                    script.requests.len()
                ));
            }
            if bare != wrapped || bare != bare_t || bare != wrapped_t {
                return Err(format!(
                    "{}: wrapped and bare RunOutcomes differ over {}",
                    P::LABEL,
                    T::label()
                ));
            }
            if !s1.is_clean() || !s2.is_clean() {
                return Err(format!(
                    "{}: unclean transport run over {}",
                    P::LABEL,
                    T::label()
                ));
            }
            Ok(())
        }
    }
    for p in Protocol::ALL {
        if let Err(e) = p.dispatch(Proof::<T>(seed, std::marker::PhantomData)) {
            out.problem(e);
        }
    }
    // The proof's own records are not part of the measurement.
    drop(trace::take());
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    if args.pin {
        match sim::pin(&args.workload, args.seed) {
            Some(line) => println!("{line}"),
            None => {
                eprintln!("perfbench: --pin applies to the sim workloads");
                exit(2);
            }
        }
        return;
    }
    let doc = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|text| parse(&text))
        .unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            exit(1);
        });
    let (key, missing_is_zero) = if args.trace {
        ("per_layer", true)
    } else {
        ("end_to_end", false)
    };
    let listed = listed_metrics(&doc, key).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(1);
    });

    let mut out = Outcome::default();
    if args.trace {
        check_noop::<ChanTransport>(args.seed, &mut out);
        if args.workload == "rt-tcp-shards" {
            check_noop::<TcpTransport>(args.seed, &mut out);
        }
    }
    let (seed, secs, tr) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "sim-large-n" => sim::large_n(seed, secs, tr, &mut out),
        "sim-paper-figs" => sim::paper_figs(seed, secs, tr, &mut out),
        "rt-chan" => rt::run(rt::Rt::Chan, seed, secs, tr, &mut out),
        _ => rt::run(rt::Rt::TcpShards, seed, secs, tr, &mut out),
    }
    match stats::peak_rss_mib() {
        Some(mib) => out.set("peak_rss_mib", mib),
        None => out.problem("no VmHWM in /proc/self/status".to_string()),
    }

    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("correct");
    w.bool(out.problems.is_empty() && out.failed == 0);
    w.key("attempted");
    w.u64(out.attempted.max(1));
    w.key("failed");
    w.u64(out.failed);
    w.key("metrics");
    w.begin_obj();
    for (name, unit) in &listed {
        // A layer the workload does not exercise measures zero.
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if missing_is_zero => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                exit(1);
            }
        };
        w.key(name);
        w.begin_obj();
        w.key("value");
        w.f64(value);
        w.key("unit");
        w.str(unit);
        w.end_obj();
    }
    w.end_obj();
    w.end_obj();
    println!("{}", w.finish());
}
