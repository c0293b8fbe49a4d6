//! `perfbench`: the native half of the end-to-end benchmark. `run.py`
//! builds it, prepares inputs with it and runs each measured step as its
//! own process through it; every subcommand prints one JSON line.

mod serve;
mod solve;
mod trace;
mod util;

// The allocator `entmatcher` installs, so measured solves take the same
// allocation path as the program.
#[global_allocator]
static ALLOCATOR: entmatcher_support::alloc::CountingAlloc =
    entmatcher_support::alloc::CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        util::fail("usage: perfbench <prepare|setup|solve|trace-solve|serve> --flag value ...");
    };
    let args = util::Args::parse(rest);
    match command.as_str() {
        "prepare" => solve::prepare(&args),
        "setup" => solve::setup_only(&args),
        "solve" => solve::solve(&args),
        "trace-solve" => solve::trace_solve(&args),
        "serve" => serve::serve(&args),
        other => util::fail(&format!("unknown subcommand {other:?}")),
    }
}
