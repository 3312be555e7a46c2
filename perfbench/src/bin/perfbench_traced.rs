//! The traced benchmark binary (`--trace 1`): per-layer metrics, with a
//! counting global allocator installed so allocations per phase per step
//! can be reported.

#[global_allocator]
static ALLOCATOR: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    perfbench::main(true)
}
