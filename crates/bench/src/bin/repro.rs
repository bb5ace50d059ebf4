//! Regenerates every table and figure of the paper from one collection
//! per target; see [`simtune_bench::repro`] for the sections and flags.
//!
//! ```text
//! cargo run --release --bin repro -- --arch riscv --scale smoke
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let mut stdout = std::io::stdout().lock();
    ExitCode::from(simtune_bench::repro::run(
        std::env::args().skip(1),
        &mut stdout,
    ))
}
