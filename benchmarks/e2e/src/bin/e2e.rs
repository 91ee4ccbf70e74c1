//! End-to-end runs: system allocator, tracing off unless asked.

fn main() -> std::process::ExitCode {
    gcs_e2e::main(false)
}
