//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints one line per metric (name, value, unit,
//! sample count), then, as the last line, a JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--workload all` runs
//! every workload, each in its own process.
//!
//! `perfbench --capacity <clients> --seed <n> --seconds <s>` instead
//! measures the served set-up's closed-loop capacity with that many
//! clients, in the same output format.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use tag_perfbench::workloads::{capacity, run, Opts, Report, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <tagbench|serve-open|all> \
         --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench --capacity <clients> --seed <n> --seconds <s>"
    );
    ExitCode::from(2)
}

fn json(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct,
        report.tally.attempted,
        report.tally.failed()
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Run every workload in a child process of its own (peak RSS is per
/// process), forwarding their output.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return usage(&format!("cannot find own executable: {e}")),
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args = args.to_vec();
        let i = child_args
            .iter()
            .position(|a| a == "all")
            .expect("all given");
        child_args[i] = w.name().to_owned();
        println!("== {}", w.name());
        match Command::new(&exe).args(&child_args).status() {
            Ok(s) if s.success() => {}
            _ => ok = false,
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let mut clients = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--capacity" => value
                .parse()
                .ok()
                .filter(|c: &usize| *c > 0)
                .map(|c| clients = Some(c))
                .is_some(),
            "--seconds" => value
                .parse()
                .ok()
                .filter(|s: &f64| *s > 0.0)
                .map(|v| seconds = v)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !parsed {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    if let Some(clients) = clients {
        let report = capacity(seed, seconds, clients);
        print_report(
            &format!("capacity clients {clients} seed {seed} seconds {seconds}"),
            &report,
        );
        return ExitCode::SUCCESS;
    }
    let Some(name) = workload else {
        return usage("--workload or --capacity is required");
    };
    if name == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&name) else {
        return usage(&format!("unknown workload {name:?}"));
    };
    let opts = Opts {
        workload,
        seed,
        seconds,
        trace,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let report = run(&opts);
    let header = format!(
        "workload {} seed {} seconds {} trace {}",
        workload.name(),
        seed,
        seconds,
        u8::from(trace)
    );
    print_report(&header, &report);
    ExitCode::SUCCESS
}

fn print_report(header: &str, report: &Report) {
    println!(
        "{header} available_parallelism {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for m in &report.metrics {
        println!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.n);
    }
    for note in &report.notes {
        println!("note {note}");
    }
    let t = &report.tally;
    println!(
        "requests attempted={} matched={} mismatched={} queue_full={} deadline={} refused={} panicked={}",
        t.attempted, t.matched, t.mismatched, t.queue_full, t.deadline, t.refused, t.panicked
    );
    println!("{}", json(report));
}
