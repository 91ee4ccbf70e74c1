//! Rendezvous and elastic membership: the [`Registry`] service, its frame
//! protocol ([`RegistryMsg`]) and the [`FleetWorker`] client.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use gcs_trace::bytes::{put_str, put_u32, put_u64, Cursor, Prefix, WireElem, WireError};

use super::framing::FramedStream;
use super::listener::Listener;
use super::mesh::{TcpLinks, TcpMesh};
use crate::error::CollectiveError;

/// Magic a worker writes before its first registry frame.
pub const REGISTRY_MAGIC: [u8; 4] = *b"GCSR";

const TAG_JOIN: u8 = 0x01;
const TAG_ID: u8 = 0x02;
const TAG_BEGIN: u8 = 0x03;
const TAG_ROUND: u8 = 0x04;
const TAG_LEAVE: u8 = 0x05;
const TAG_BYE: u8 = 0x06;

/// How long a fresh connection has to send its `JOIN`.
const JOIN_DEADLINE: Duration = Duration::from_secs(10);
/// A registered worker silent for this long is treated as gone.
const IDLE_DEADLINE: Duration = Duration::from_secs(3600);

/// One message of the rendezvous protocol (frame table in the
/// [module docs](super)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryMsg {
    /// Worker → registry: register under this (already bound) mesh address.
    Join { addr: String },
    /// Registry → worker: the stable worker id.
    Id { id: u64 },
    /// Worker → registry: barrier for the next round, offering its clock.
    Begin { round: u64 },
    /// Registry → worker: the barrier released; `addrs` is the roster in
    /// rank order and `rank` the receiver's place in it.
    Round {
        round: u64,
        epoch: u64,
        rank: u64,
        addrs: Vec<String>,
    },
    /// Worker → registry: graceful exit.
    Leave,
    /// Registry → worker: `Leave` acknowledged.
    Bye,
}

impl RegistryMsg {
    /// The frame payload for this message.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            RegistryMsg::Join { addr } => {
                out.push(TAG_JOIN);
                put_str(&mut out, Prefix::U16, addr);
            }
            RegistryMsg::Id { id } => {
                out.push(TAG_ID);
                put_u64(&mut out, *id);
            }
            RegistryMsg::Begin { round } => {
                out.push(TAG_BEGIN);
                put_u64(&mut out, *round);
            }
            RegistryMsg::Round {
                round,
                epoch,
                rank,
                addrs,
            } => {
                out.push(TAG_ROUND);
                put_u64(&mut out, *round);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *rank);
                put_u32(&mut out, addrs.len() as u32);
                for addr in addrs {
                    put_str(&mut out, Prefix::U16, addr);
                }
            }
            RegistryMsg::Leave => out.push(TAG_LEAVE),
            RegistryMsg::Bye => out.push(TAG_BYE),
        }
        out
    }

    /// Decodes one frame payload. `Ok(None)` is an unknown tag, which both
    /// ends ignore (forward compatibility).
    pub fn decode(frame: &[u8]) -> Result<Option<RegistryMsg>, String> {
        let mut c = Cursor::new(frame);
        let msg = match c.u8()? {
            TAG_JOIN => RegistryMsg::Join {
                addr: c.str(Prefix::U16)?,
            },
            TAG_ID => RegistryMsg::Id { id: c.u64()? },
            TAG_BEGIN => RegistryMsg::Begin { round: c.u64()? },
            TAG_ROUND => {
                let (round, epoch, rank) = (c.u64()?, c.u64()?, c.u64()?);
                // An address is at least its own length prefix.
                let n = c.count(Prefix::U32, 2)?;
                let mut addrs = Vec::with_capacity(n);
                for _ in 0..n {
                    addrs.push(c.str(Prefix::U16)?);
                }
                RegistryMsg::Round {
                    round,
                    epoch,
                    rank,
                    addrs,
                }
            }
            TAG_LEAVE => RegistryMsg::Leave,
            TAG_BYE => RegistryMsg::Bye,
            _ => return Ok(None),
        };
        match c.remaining() {
            0 => Ok(Some(msg)),
            extra => Err(WireError::Trailing { extra }.into()),
        }
    }
}

fn send(conn: &mut FramedStream, msg: &RegistryMsg) -> std::io::Result<()> {
    conn.send_frame(&msg.encode())
}

/// A registered worker, as the registry sees it.
struct Member {
    addr: String,
    /// `Some(train_round)` once the worker has sent `BEGIN` for the next
    /// barrier.
    waiting: Option<u64>,
    /// The `ROUND` message computed for this worker at the last release,
    /// not yet picked up by its connection handler.
    reply: Option<RegistryMsg>,
}

struct RegState {
    next_id: u64,
    members: BTreeMap<u64, Member>,
    epoch: u64,
    round: u64,
    last_roster: Vec<u64>,
    /// The very first barrier waits for at least this many workers, so a
    /// fast founder cannot form a cluster of one before the rest of the
    /// initial fleet has joined. Later barriers are purely membership-driven
    /// (crashes may legitimately shrink the fleet below this).
    min_first: usize,
}

impl RegState {
    /// Releases the barrier if every live member is waiting at it.
    fn try_release(&mut self) {
        if self.members.is_empty() || !self.members.values().all(|m| m.waiting.is_some()) {
            return;
        }
        if self.epoch == 0 && self.members.len() < self.min_first {
            return;
        }
        let roster: Vec<u64> = self.members.keys().copied().collect();
        if roster != self.last_roster {
            self.epoch += 1;
            self.last_roster = roster.clone();
        }
        // Survivors agree on the training clock; a fresh joiner offers 0 and
        // adopts theirs.
        self.round = self
            .members
            .values()
            .filter_map(|m| m.waiting)
            .max()
            .unwrap_or(0);
        let addrs: Vec<String> = self.members.values().map(|m| m.addr.clone()).collect();
        for (rank, id) in roster.iter().enumerate() {
            let m = self.members.get_mut(id).expect("roster member exists");
            m.waiting = None;
            m.reply = Some(RegistryMsg::Round {
                round: self.round,
                epoch: self.epoch,
                rank: rank as u64,
                addrs: addrs.clone(),
            });
        }
    }
}

type SharedState = Arc<(Mutex<RegState>, Condvar)>;

/// The rendezvous/membership service: assigns worker ids, runs the
/// per-round barrier, and renumbers ranks over the live membership. Runs
/// a [`Listener`] and per-connection handler threads in-process; the fleet
/// example and tests host it in the parent process of the worker fleet.
pub struct Registry {
    listener: Listener,
    shutdown: Arc<AtomicBool>,
    state: SharedState,
}

impl Registry {
    /// Binds a listener on an ephemeral localhost port and starts serving.
    /// The first barrier waits for at least `min_workers` joiners (later
    /// barriers track live membership, however small).
    pub fn spawn(min_workers: usize) -> std::io::Result<Registry> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let state: SharedState = Arc::new((
            Mutex::new(RegState {
                next_id: 0,
                members: BTreeMap::new(),
                epoch: 0,
                round: 0,
                last_roster: Vec::new(),
                min_first: min_workers,
            }),
            Condvar::new(),
        ));
        let listener = {
            let (state, stop) = (Arc::clone(&state), Arc::clone(&shutdown));
            Listener::spawn(
                "gcs-registry",
                0,
                Arc::clone(&shutdown),
                move |magic, stream| {
                    if magic == Some(REGISTRY_MAGIC) {
                        Registry::serve_conn(stream, &state, &stop);
                    }
                },
            )?
        };
        Ok(Registry {
            listener,
            shutdown,
            state,
        })
    }

    /// The address workers dial to join.
    pub fn addr(&self) -> SocketAddr {
        self.listener.addr()
    }

    /// Stops accepting and unblocks handler threads.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.state.1.notify_all();
    }

    /// The next message on a worker's connection, unknown tags skipped.
    /// `None` means the connection is unusable: EOF, reset, a frame that
    /// does not decode, `idle` passed, or shutdown.
    fn recv_msg(
        conn: &mut FramedStream,
        idle: Duration,
        shutdown: &AtomicBool,
    ) -> Option<RegistryMsg> {
        loop {
            let frame = conn.recv_frame_until(idle, shutdown).ok()?;
            if let Some(msg) = RegistryMsg::decode(&frame).ok()? {
                return Some(msg);
            }
        }
    }

    fn serve_conn(stream: TcpStream, state: &SharedState, shutdown: &AtomicBool) {
        let mut conn = FramedStream::new(stream);
        let (lock, cvar) = (&state.0, &state.1);
        // First message must be JOIN.
        let Some(RegistryMsg::Join { addr }) =
            Registry::recv_msg(&mut conn, JOIN_DEADLINE, shutdown)
        else {
            return;
        };
        let id = {
            let mut st = lock.lock().expect("registry state");
            let id = st.next_id;
            st.next_id += 1;
            st.members.insert(
                id,
                Member {
                    addr,
                    waiting: None,
                    reply: None,
                },
            );
            cvar.notify_all();
            id
        };
        if send(&mut conn, &RegistryMsg::Id { id }).is_err() {
            Registry::drop_member(state, id);
            return;
        }
        loop {
            match Registry::recv_msg(&mut conn, IDLE_DEADLINE, shutdown) {
                None => {
                    // EOF, reset or shutdown: the worker is gone. Remove it
                    // and re-check the barrier — survivors must not wait on
                    // a corpse.
                    Registry::drop_member(state, id);
                    return;
                }
                Some(RegistryMsg::Begin { round }) => {
                    let mut st = lock.lock().expect("registry state");
                    if let Some(m) = st.members.get_mut(&id) {
                        m.waiting = Some(round);
                    }
                    st.try_release();
                    cvar.notify_all();
                    // Wait for this member's reply to be computed.
                    let reply = loop {
                        if shutdown.load(Ordering::Relaxed) {
                            return;
                        }
                        match st.members.get_mut(&id) {
                            None => return, // removed concurrently
                            Some(m) => {
                                if let Some(r) = m.reply.take() {
                                    break r;
                                }
                            }
                        }
                        let (next, _) = cvar
                            .wait_timeout(st, Duration::from_millis(50))
                            .expect("registry state");
                        st = next;
                    };
                    drop(st);
                    if send(&mut conn, &reply).is_err() {
                        // Died between BEGIN and the reply; the roster heals at
                        // the next barrier.
                        Registry::drop_member(state, id);
                        return;
                    }
                }
                Some(RegistryMsg::Leave) => {
                    Registry::drop_member(state, id);
                    let _ = send(&mut conn, &RegistryMsg::Bye);
                    return;
                }
                Some(_) => {} // not a request; ignored
            }
        }
    }

    fn drop_member(state: &SharedState, id: u64) {
        let mut st = state.0.lock().expect("registry state");
        st.members.remove(&id);
        st.try_release();
        state.1.notify_all();
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Deadlines governing a [`FleetWorker`]'s patience. The defaults suit
/// multi-process runs on a loaded machine; tests shrink them to keep
/// failure cases fast.
#[derive(Clone, Copy, Debug)]
pub struct TcpTimeouts {
    /// How long to wait at the registry barrier for the rest of the fleet.
    pub barrier: Duration,
    /// How long a mesh build (dial + accept all links) may take.
    pub mesh_build: Duration,
    /// Bound on each blocking mesh receive during a collective.
    pub recv: Duration,
}

impl Default for TcpTimeouts {
    fn default() -> TcpTimeouts {
        TcpTimeouts {
            barrier: Duration::from_secs(120),
            mesh_build: Duration::from_secs(10),
            recv: Duration::from_secs(10),
        }
    }
}

impl TcpTimeouts {
    /// Tight deadlines for in-process tests.
    pub fn fast_test() -> TcpTimeouts {
        TcpTimeouts {
            barrier: Duration::from_secs(20),
            mesh_build: Duration::from_secs(5),
            recv: Duration::from_secs(5),
        }
    }
}

/// What the registry told this worker about the round it may now run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundStart {
    /// Training-clock round agreed at the barrier (max over participants).
    pub round: u64,
    /// Membership epoch; changes whenever the live member set changes.
    pub epoch: u64,
    /// This worker's dense rank within the epoch's roster.
    pub rank: usize,
    /// Live cluster size for this epoch.
    pub n: usize,
    /// True when the mesh was (re)built for this round — i.e. the epoch
    /// changed, so ranks may have moved and state sync may be needed.
    pub rebuilt: bool,
}

/// One elastic fleet participant: joins via the registry, then alternates
/// barrier (`next_round`) and collective work over the epoch's [`TcpMesh`].
/// Crash recovery and mid-run joins both reduce to "the epoch changed,
/// rebuild the mesh, ranks are reassigned" — the generalization of PR 5's
/// survivor renumbering.
pub struct FleetWorker {
    conn: FramedStream,
    listener: TcpListener,
    /// Registry-assigned stable id (rank changes across epochs; this never).
    pub worker_id: u64,
    timeouts: TcpTimeouts,
    mesh: Option<TcpMesh>,
    last_epoch: u64,
}

fn fail(detail: String) -> CollectiveError {
    CollectiveError::Protocol { peer: 0, detail }
}

impl FleetWorker {
    /// Binds this worker's mesh listener, then registers with the registry.
    /// The bind-before-register order guarantees every address a `ROUND`
    /// roster advertises is already accepting connections.
    pub fn join(
        registry: SocketAddr,
        timeouts: TcpTimeouts,
    ) -> Result<FleetWorker, CollectiveError> {
        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| fail(format!("bind listener: {e}")))?;
        let listen_addr = listener
            .local_addr()
            .map_err(|e| fail(format!("listener addr: {e}")))?;
        let mut stream =
            TcpStream::connect(registry).map_err(|e| fail(format!("dial registry: {e}")))?;
        stream
            .write_all(&REGISTRY_MAGIC)
            .map_err(|e| fail(format!("send magic: {e}")))?;
        let mut worker = FleetWorker {
            conn: FramedStream::new(stream),
            listener,
            worker_id: 0,
            timeouts,
            mesh: None,
            last_epoch: 0,
        };
        let join = RegistryMsg::Join {
            addr: listen_addr.to_string(),
        };
        match worker.request(&join, "JOIN")? {
            Some(RegistryMsg::Id { id }) => worker.worker_id = id,
            reply => return Err(fail(format!("bad ID reply {reply:?}"))),
        }
        Ok(worker)
    }

    /// Sends `msg` and waits up to the barrier deadline for the reply.
    fn request(
        &mut self,
        msg: &RegistryMsg,
        what: &str,
    ) -> Result<Option<RegistryMsg>, CollectiveError> {
        send(&mut self.conn, msg).map_err(|e| fail(format!("send {what}: {e}")))?;
        let frame = self
            .conn
            .recv_frame(self.timeouts.barrier)
            .map_err(|e| fail(format!("read {what} reply: {e:?}")))?;
        RegistryMsg::decode(&frame).map_err(|e| fail(format!("bad {what} reply: {e}")))
    }

    /// Barriers with the fleet for the next round, rebuilding the mesh when
    /// membership changed. Mesh-build failures (a peer died between the
    /// barrier release and the build) re-enter the barrier a bounded number
    /// of times — the registry notices the death and the next release
    /// excludes it.
    pub fn next_round(&mut self, train_round: u64) -> Result<RoundStart, CollectiveError> {
        let mut last_err = None;
        for _attempt in 0..10 {
            let reply = self.request(&RegistryMsg::Begin { round: train_round }, "BEGIN")?;
            let Some(RegistryMsg::Round {
                round,
                epoch,
                rank,
                addrs,
            }) = reply
            else {
                return Err(fail(format!("bad ROUND reply {reply:?}")));
            };
            let (rank, n) = (rank as usize, addrs.len());
            if rank >= n {
                return Err(fail(format!("ROUND reply ranks {rank} of {n}")));
            }
            let addrs: Result<Vec<SocketAddr>, _> = addrs.iter().map(|s| s.parse()).collect();
            let addrs = addrs.map_err(|e| fail(format!("bad roster addr: {e}")))?;
            let rebuilt = epoch != self.last_epoch || self.mesh.is_none();
            if rebuilt {
                self.mesh = None;
                let deadline = self.timeouts.mesh_build;
                match TcpMesh::connect(&self.listener, rank, n, epoch, &addrs, deadline) {
                    Ok(mut mesh) => {
                        mesh.set_recv_deadline(self.timeouts.recv);
                        self.mesh = Some(mesh);
                        self.last_epoch = epoch;
                    }
                    Err(e) => {
                        // A roster member vanished mid-build; re-barrier.
                        last_err = Some(e);
                        continue;
                    }
                }
            }
            return Ok(RoundStart {
                round,
                epoch,
                rank,
                n,
                rebuilt,
            });
        }
        Err(last_err.unwrap_or(CollectiveError::Timeout {
            peer: 0,
            attempts: 10,
        }))
    }

    /// The current epoch's mesh. Panics if called before a successful
    /// [`FleetWorker::next_round`] (caller bug, not a fabric condition).
    pub fn mesh_mut(&mut self) -> &mut TcpMesh {
        self.mesh.as_mut().expect("next_round before mesh access")
    }

    /// Typed links over the current mesh for the collective worker bodies.
    pub fn links<T: WireElem>(&mut self) -> TcpLinks<'_, T> {
        TcpLinks::new(self.mesh_mut())
    }

    /// Gracefully deregisters (peers renumber at the next barrier without a
    /// timeout hiccup, unlike a crash).
    pub fn leave(mut self) -> Result<(), CollectiveError> {
        send(&mut self.conn, &RegistryMsg::Leave).map_err(|e| fail(format!("send LEAVE: {e}")))?;
        let _ = self.conn.recv_frame(Duration::from_secs(2));
        Ok(())
    }
}
