//! `bench <subcommand> [args]`: every table, figure and tool of the
//! harness, one row of [`traxtent_bench::COMMANDS`] each.

fn main() {
    traxtent_bench::dispatch(std::env::args().skip(1));
}
