//! The untraced benchmark binary (`--trace 0`): end-to-end metrics.

fn main() -> std::process::ExitCode {
    perfbench::main(false)
}
