//! `spothost` — command-line interface to the simulator.
//!
//! ```text
//! spothost markets                      # the price book and calibration
//! spothost gen-traces --days 28 --out traces/
//! spothost analyze --traces traces/
//! spothost simulate --market us-east-1a/small --policy proactive --days 60
//! spothost simulate --scope zone:us-east-1b --seeds 12
//! spothost simulate --storm-intensity 0.5 --scope regions:us-east-1a,us-west-1a
//! spothost chaos --seconds 30
//! spothost fleet-sim --vms 200 --days 7 --store fleet.col
//! spothost jobs --policy all --days 14 --fault-rate 0.1
//! spothost query --store fleet.col --agg sum --field cost --group-by vm
//! spothost simulate --help              # a command's flags
//! ```

mod args;
mod commands;

use args::{Args, Table};
use commands::simulate::SCENARIO;
use commands::{analyze, chaos, fleet_sim, gen_traces, jobs, markets, query, simulate, timeline};

/// A `spothost` command: its flag table, one line about it, and the
/// function that writes its report.
struct Command {
    name: &'static str,
    about: &'static str,
    flags: Table,
    run: fn(&Args, &mut String) -> Result<(), String>,
}

const COMMANDS: [Command; 9] = [
    Command {
        name: "markets",
        about: "Print the market catalog: zones, sizes, on-demand prices, bid caps.",
        flags: &[],
        run: markets::run,
    },
    Command {
        name: "gen-traces",
        about: "Generate calibrated spot-price traces and export them as CSV.",
        flags: &[gen_traces::FLAGS],
        run: gen_traces::run,
    },
    Command {
        name: "analyze",
        about: "Per-market statistics and correlations of a trace directory.",
        flags: &[analyze::FLAGS],
        run: analyze::run,
    },
    Command {
        name: "simulate",
        about: "Run the cloud scheduler and report cost, availability and migrations.",
        flags: &[SCENARIO, simulate::FLAGS],
        run: simulate::run,
    },
    Command {
        name: "timeline",
        about: "Run one seed and draw its event stream as an ASCII Gantt chart.",
        flags: &[SCENARIO, timeline::FLAGS],
        run: timeline::run,
    },
    Command {
        name: "chaos",
        about: "Check the chaos invariants on random storm and fault grids for a time budget.",
        flags: &[chaos::FLAGS],
        run: chaos::run,
    },
    Command {
        name: "fleet-sim",
        about: "Simulate an autoscaled fleet and chart its size and p99 latency.",
        flags: &[fleet_sim::FLAGS],
        run: fleet_sim::run,
    },
    Command {
        name: "jobs",
        about: "Schedule deadline batch jobs onto spot workers and report $/job and misses.",
        flags: &[jobs::FLAGS],
        run: jobs::run,
    },
    Command {
        name: "query",
        about: "Aggregate a columnar store written by simulate, fleet-sim or jobs --store.",
        flags: &[query::FLAGS],
        run: query::run,
    },
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = String::new();
    let result = run(&argv, &mut out);
    spothost_analysis::stdout::write(&out);
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

fn run(argv: &[String], out: &mut String) -> Result<(), String> {
    let name = argv.first().map_or("--help", String::as_str);
    if matches!(name, "--help" | "-h" | "help") {
        usage(out);
        return Ok(());
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command '{name}' (try --help)"))?;
    let rest = &argv[1..];
    if rest.iter().any(|a| a == "--help") {
        out.push_str(&format!("spothost {name} — {}\n\n", cmd.about));
        out.push_str(if cmd.flags.is_empty() {
            "takes no flags\n"
        } else {
            "FLAGS:\n"
        });
        out.push_str(&args::render_help(cmd.flags));
        return Ok(());
    }
    let args =
        args::parse(cmd.flags, rest).map_err(|e| format!("{e} (see spothost {name} --help)"))?;
    (cmd.run)(&args, out)
}

/// `spothost --help`: one line about each command.
fn usage(out: &mut String) {
    out.push_str(
        "spothost — always-on services on cloud spot markets (HPDC'15 reproduction)\n\n\
         USAGE: spothost <command> [--flag VALUE | --switch]...\n\nCOMMANDS:\n",
    );
    let width = COMMANDS
        .iter()
        .map(|c| c.name.len())
        .max()
        .unwrap_or_default();
    for c in &COMMANDS {
        out.push_str(&format!("  {:<width$}  {}\n", c.name, c.about));
    }
    out.push_str("\n`spothost <command> --help` lists a command's flags.\n");
}
