//! Long-running aggregation daemon.
//!
//! ```text
//! gcs_aggd [--port P] [--shards N] [--max-tenants N] [--max-dim N]
//! ```
//!
//! Prints the bound address on stdout, then serves until killed. Tenants
//! speak the `GCSA` framed protocol; `GET /metrics` on the same port
//! returns the Prometheus exposition of every tenant's registry.

use gcs_aggd::daemon::{AggDaemon, AggdConfig};

fn main() {
    let mut cfg = AggdConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| -> usize {
            args.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die(&format!("{name} needs a numeric value")))
        };
        match a.as_str() {
            "--port" => cfg.bind_port = val("--port") as u16,
            "--shards" => cfg.shards = val("--shards").max(1),
            "--max-tenants" => cfg.max_tenants = val("--max-tenants").max(1),
            "--max-dim" => cfg.max_dim = val("--max-dim").max(1),
            "--help" | "-h" => {
                println!("usage: gcs_aggd [--port P] [--shards N] [--max-tenants N] [--max-dim N]");
                return;
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    let daemon = AggDaemon::spawn(cfg).unwrap_or_else(|e| die(&format!("bind failed: {e}")));
    println!("{}", daemon.addr());
    // Serve forever; the daemon threads do all the work.
    loop {
        std::thread::park();
    }
}

fn die(msg: &str) -> ! {
    eprintln!("gcs_aggd: {msg}");
    std::process::exit(2);
}
