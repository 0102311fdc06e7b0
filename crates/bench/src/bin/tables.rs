//! Prints the experiment tables of [`exclusion_bench::experiments`].
//!
//! ```text
//! tables                 # run everything (full grids)
//! tables --quick         # small grids, seconds
//! tables --exp e1        # one experiment
//! tables --markdown      # emit Markdown instead of aligned text
//! ```

use exclusion_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let markdown = args.iter().any(|a| a == "--markdown");
    let exp = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .cloned();

    match exp {
        Some(id) => match experiments::run_one(&id, quick) {
            Some(t) => {
                if markdown {
                    println!("{}", t.to_markdown());
                } else {
                    println!("{t}");
                }
            }
            None => {
                eprintln!("unknown experiment `{id}`; use e1..e9, e10a, e10b, e11, e12, e13");
                std::process::exit(2);
            }
        },
        None => {
            let tables = experiments::run_all(quick);
            if markdown {
                for t in tables {
                    println!("{}", t.to_markdown());
                }
            }
        }
    }
}
