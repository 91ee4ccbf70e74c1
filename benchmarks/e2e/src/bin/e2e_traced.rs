//! Per-layer runs: the same program under the counting allocator, so
//! `*_allocs_per_round` are measured, not assumed.

#[global_allocator]
static ALLOC: gcs_alloc::CountingAlloc = gcs_alloc::CountingAlloc;

fn main() -> std::process::ExitCode {
    gcs_e2e::main(true)
}
