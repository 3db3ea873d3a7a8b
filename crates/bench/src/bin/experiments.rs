//! Experiment CLI: regenerates every table and figure of the paper's
//! evaluation section.
//!
//! ```text
//! cargo run -p cbqt-bench --release --bin experiments -- all
//! cargo run -p cbqt-bench --release --bin experiments -- fig3 --n 120 --scale 1.5
//! cargo run -p cbqt-bench --release --bin experiments -- fig3 --trace
//! ```

use cbqt_bench::experiments;

struct Args {
    which: String,
    n: usize,
    seed: u64,
    scale: f64,
    reps: usize,
    trace: bool,
}

const EXPERIMENTS: [&str; 8] = [
    "all", "fig2", "fig3", "fig4", "gbp", "joins", "table1", "table2",
];

fn usage() -> ! {
    eprintln!(
        "usage: experiments [EXPERIMENT] [--n N] [--seed S] [--scale F] [--reps N]\n\
         \x20                  [--trace]\n\
         \n\
         EXPERIMENT is one of {} (default all). Each runs over N generated\n\
         instances (default 80) at data scale F (default 1.0) and keeps the\n\
         best of --reps runs (default 2); joins is a fixed sweep of six\n\
         snowflake widths and ignores N. --trace also dumps the optimizer\n\
         trace of one Figure-3 instance.",
        EXPERIMENTS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut parsed = Args {
        which: "all".into(),
        n: 80,
        seed: 42,
        scale: 1.0,
        reps: 2,
        trace: false,
    };
    fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
        args.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    }
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--n" => parsed.n = value(&mut args),
            "--seed" => parsed.seed = value(&mut args),
            "--scale" => parsed.scale = value(&mut args),
            "--reps" => parsed.reps = value(&mut args),
            "--trace" => parsed.trace = true,
            which if EXPERIMENTS.contains(&which) => parsed.which = a,
            _ => usage(),
        }
    }
    parsed
}

fn main() {
    let args = parse_args();
    let run_all = args.which == "all";
    println!(
        "cbqt experiments — seed={} n={} scale={} reps={}\n",
        args.seed, args.n, args.scale, args.reps
    );
    if run_all || args.which == "fig2" {
        let r = experiments::run_fig2(args.seed, args.n, args.scale, args.reps);
        println!("{}", r.render());
    }
    if run_all || args.which == "fig3" {
        let r = experiments::run_fig3(args.seed, args.n, args.scale, args.reps);
        println!("{}", r.render());
    }
    if run_all || args.which == "fig4" {
        let r = experiments::run_fig4(args.seed, args.n, args.scale, args.reps);
        println!("{}", r.render());
    }
    if run_all || args.which == "gbp" {
        let (r, extra) = experiments::run_gbp(args.seed, args.n, args.scale, args.reps);
        println!("{}{}", r.render(), extra);
    }
    if run_all || args.which == "joins" {
        println!(
            "{}",
            experiments::run_joins(args.seed, args.scale, args.reps)
        );
    }
    if run_all || args.which == "table1" {
        println!("{}", experiments::run_table1(args.seed).render());
    }
    if run_all || args.which == "table2" {
        println!("{}", experiments::run_table2(args.seed, args.reps.max(3)));
    }
    if args.trace {
        println!("{}", experiments::run_trace(args.seed, args.scale));
    }
}
