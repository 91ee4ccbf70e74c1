//! The one accepting socket. Every connection in the system opens with a
//! 4-byte magic; a [`Listener`] reads it and hands `(magic, stream)` to its
//! owner's route table — one `match`, in which `GET ` ([`HTTP_GET`],
//! answered by [`serve_metrics`]) is a route like any other. That is how a
//! Prometheus scrape shares a port with framed sessions.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Polling granularity of the mesh's bounded accept and dial loops.
pub(super) const POLL_SLEEP: Duration = Duration::from_millis(1);
/// How long a fresh connection has to produce its magic.
const MAGIC_DEADLINE: Duration = Duration::from_secs(2);
/// The magic of an HTTP scrape.
pub const HTTP_GET: [u8; 4] = *b"GET ";

/// A bound loopback listener dispatching accepted connections by magic.
/// Dropping it stops and joins the accept thread.
pub struct Listener {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `127.0.0.1:port` (0 = ephemeral) and serves from a thread
    /// called `name` until `shutdown` is set — the flag is the owner's, so
    /// its sessions stop with the listener. `route` gets each connection
    /// with the magic it opened with, `None` if four bytes did not arrive
    /// in time; it runs on the connection's own thread and may keep it for
    /// a whole session.
    ///
    /// The accept thread never reads from a client, so a silent connection
    /// delays nobody.
    pub fn spawn(
        name: &str,
        port: u16,
        shutdown: Arc<AtomicBool>,
        route: impl Fn(Option<[u8; 4]>, TcpStream) + Send + Sync + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let (route, stop) = (Arc::new(route), Arc::clone(&shutdown));
        let accept = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                loop {
                    // Blocks until a client connects; `Drop` connects once
                    // itself to wake it after setting `stop`.
                    let accepted = listener.accept();
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match accepted {
                        Ok((mut stream, _)) => {
                            let route = Arc::clone(&route);
                            // A spawn failure drops this connection only.
                            let _ = std::thread::Builder::new().spawn(move || {
                                let _ = stream.set_read_timeout(Some(MAGIC_DEADLINE));
                                let mut magic = [0u8; 4];
                                let magic = stream.read_exact(&mut magic).ok().map(|()| magic);
                                route(magic, stream);
                            });
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
            })?;
        Ok(Listener {
            addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // One connection of our own wakes the blocking accept; should even
        // that fail, leave the thread rather than hang the owner.
        if let Some(h) = self.accept.take() {
            if TcpStream::connect(self.addr).is_ok() {
                let _ = h.join();
            }
        }
    }
}

/// Answers one HTTP `GET` (whose magic the listener consumed) with `body()`
/// as a Prometheus text exposition. Any path gets the same body — there is
/// only one resource.
pub fn serve_metrics(mut stream: TcpStream, body: impl FnOnce() -> String) {
    // Drain the request head (bounded) so the client's write never blocks.
    let mut head = [0u8; 8192];
    let mut n = 0;
    while n < head.len() && !head[..n].ends_with(b"\r\n\r\n") {
        match stream.read(&mut head[n..]) {
            Ok(k) if k > 0 => n += k,
            _ => break,
        }
    }
    let body = body();
    let response = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(response.as_bytes());
}
