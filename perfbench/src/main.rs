//! `perfbench --workload W --seed N --seconds S --trace 0|1
//! [--size full|tiny] [--trace-dir DIR]`
//!
//! Prints notes (build identity, workload shape, checks), then as its last
//! line one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! Exits 2 on a usage error and 1 when the workload could not run.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match perfbench::run(&args) {
        Ok(report) => {
            for n in &report.notes {
                println!("# {n}");
            }
            println!("{}", report.result_line(args.trace));
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
