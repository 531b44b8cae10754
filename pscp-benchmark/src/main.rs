//! `pscp-benchmark`: see `BENCHMARK.md` beside this crate.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(pscp_benchmark::cli::main_with(&args));
}
