//! `repro <figure>` prints one of the paper's figures and tables;
//! `repro all` prints every one, in `FIGURES` order, from one functional
//! and one timed run of the suite. Takes the shared harness flags:
//!
//! ```text
//! cargo run --release -p st2-bench --bin repro -- <figure|all> \
//!     [--scale test|tiny|full] [--kernels <substring>] [--out <dir>] [--gpu <preset>]
//! ```

use st2_bench::figures::{usage, write_figure, Inputs};
use st2_bench::BenchArgs;

fn main() {
    let mut args = BenchArgs::parse();
    let rest = std::mem::take(&mut args.rest);
    let [name] = rest.as_slice() else {
        panic!("repro takes one figure name, got {rest:?}; {}", usage());
    };
    write_figure(name, &Inputs::new(args), &mut std::io::stdout().lock())
        .unwrap_or_else(|e| panic!("repro {name}: {e}"));
}
