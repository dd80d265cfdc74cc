//! The `mhd serve` socket server: accept loop, connection handlers and
//! orderly shutdown.
//!
//! One thread per connection; each handler owns its connection state (the
//! attached tenant and at most one [`WriteSession`]) and calls into the
//! [`SharedStore`]. Concurrency is the store's problem, not the
//! handler's: commit pipelines run in parallel on per-session staging
//! substrates and only the short publish phase serialises (two-phase
//! commit, DESIGN.md §10), while restores and listings use a lock-free
//! read view — so handler threads genuinely overlap, they don't just
//! queue. Reads use short timeouts so every handler notices the shutdown
//! flag promptly; a connection that drops mid-session gets its session
//! aborted by the handler's cleanup path.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::{DaemonError, DaemonResult};
use crate::protocol::{Request, MAX_LINE_BYTES};
use crate::shared::{DaemonConfig, SharedStore, WriteSession};

/// How long a handler blocks on the socket before re-checking the
/// shutdown flag.
const READ_TIMEOUT: Duration = Duration::from_millis(200);
/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// A running (or ready-to-run) daemon over one [`SharedStore`].
pub struct Daemon {
    store: Arc<SharedStore>,
    shutdown: Arc<AtomicBool>,
}

/// Join handle for a daemon spawned in the background with
/// [`Daemon::spawn`].
pub struct ServeHandle {
    thread: JoinHandle<DaemonResult<()>>,
}

impl ServeHandle {
    /// Waits for the serve loop to finish and returns its outcome.
    pub fn join(self) -> DaemonResult<()> {
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(DaemonError::State("serve thread panicked".into())),
        }
    }
}

impl Daemon {
    /// Opens the shared store at `root` (running recovery) and prepares a
    /// daemon over it. Nothing listens until [`serve`](Daemon::serve) or
    /// [`spawn`](Daemon::spawn).
    pub fn open(root: &Path, config: DaemonConfig) -> DaemonResult<Daemon> {
        let store = Arc::new(SharedStore::open(root, config)?);
        Ok(Daemon { store, shutdown: Arc::new(AtomicBool::new(false)) })
    }

    /// The shared store (for in-process callers such as tests and
    /// benchmarks).
    pub fn store(&self) -> &Arc<SharedStore> {
        &self.store
    }

    /// Requests shutdown from another thread: the accept loop stops, the
    /// handlers drain, and [`serve`](Daemon::serve) returns after a final
    /// state persist.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Runs the accept loop on a Unix socket at `socket`, blocking until
    /// a client sends `SHUTDOWN` (or the flag from
    /// [`shutdown_flag`](Daemon::shutdown_flag) is raised). The socket
    /// file is removed on exit.
    pub fn serve(self, socket: &Path) -> DaemonResult<()> {
        // A dead daemon may have left its socket file behind; a fresh
        // bind needs the name free. Store-level consistency never depends
        // on the socket file.
        if socket.exists() {
            std::fs::remove_file(socket)
                .map_err(|e| DaemonError::State(format!("remove {}: {e}", socket.display())))?;
        }
        let listener = UnixListener::bind(socket)?;
        listener.set_nonblocking(true)?;

        let mut handlers: Vec<JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let store = self.store.clone();
                    let flag = self.shutdown.clone();
                    handlers.push(std::thread::spawn(move || {
                        Connection::new(store, flag, stream).run();
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => {
                    self.shutdown.store(true, Ordering::SeqCst);
                    let _ = std::fs::remove_file(socket);
                    return Err(e.into());
                }
            }
        }
        for handler in handlers {
            let _ = handler.join();
        }
        let _ = std::fs::remove_file(socket);
        // Final persist so `mhd stats` on the stopped store is current.
        self.store.persist()
    }

    /// Like [`serve`](Daemon::serve) but on a background thread; returns
    /// once the socket is listening.
    pub fn spawn(self, socket: &Path) -> DaemonResult<ServeHandle> {
        let socket: PathBuf = socket.to_path_buf();
        let target = socket.clone();
        let thread = std::thread::spawn(move || self.serve(&target));
        // Wait (bounded, generous under CPU contention) until the daemon
        // actually accepts connections, so a caller can connect
        // immediately after spawn() returns. Checking that the socket
        // file exists is not enough: bind() creates the file before
        // listen() runs, and a connect inside that window is refused —
        // on a contended box the serve thread can sit preempted there
        // for a while. A successful probe connect (dropped at once; the
        // handler reads EOF and ends) proves the listener is live.
        for _ in 0..3000 {
            if socket.exists() && std::os::unix::net::UnixStream::connect(&socket).is_ok() {
                break;
            }
            if thread.is_finished() {
                // The serve thread died before binding (e.g. bad socket
                // path); surface its error instead of a connect failure.
                return match thread.join() {
                    Ok(Ok(())) => Err(DaemonError::State(format!(
                        "serve exited before binding {}",
                        socket.display()
                    ))),
                    Ok(Err(e)) => Err(e),
                    Err(_) => Err(DaemonError::State("serve thread panicked".into())),
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(ServeHandle { thread })
    }
}

/// Per-connection handler state.
struct Connection {
    store: Arc<SharedStore>,
    shutdown: Arc<AtomicBool>,
    reader: BufReader<UnixStream>,
    tenant: Option<String>,
    session: Option<WriteSession>,
}

impl Connection {
    fn new(store: Arc<SharedStore>, shutdown: Arc<AtomicBool>, stream: UnixStream) -> Connection {
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        Connection { store, shutdown, reader: BufReader::new(stream), tenant: None, session: None }
    }

    fn run(mut self) {
        // Ok(None) and Err both end the loop: disconnect or poisoned socket.
        while let Ok(Some(line)) = self.read_line() {
            if line.is_empty() {
                continue;
            }
            let outcome = match Request::parse(&line) {
                Ok(request) => {
                    let is_shutdown = request == Request::Shutdown;
                    let reply = self.dispatch(request);
                    // RESTORE frames its own reply; an empty string means
                    // the bytes are already on the wire.
                    let sent = if reply.is_empty() { Ok(()) } else { self.send(&reply) };
                    if is_shutdown && reply.starts_with("OK") {
                        self.shutdown.store(true, Ordering::SeqCst);
                        break;
                    }
                    sent
                }
                Err(e) => self.send(&format!("ERR {e}")),
            };
            if outcome.is_err() {
                break;
            }
        }
        // Disconnect with a live session = implicit abort.
        if let Some(session) = self.session.take() {
            self.store.abort(session);
        }
    }

    /// Reads one line, retrying on read timeouts until data arrives or
    /// shutdown is flagged. `Ok(None)` means the peer closed the
    /// connection.
    fn read_line(&mut self) -> DaemonResult<Option<String>> {
        let mut line = String::new();
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return Ok(None),
                Ok(_) => {
                    if line.len() > MAX_LINE_BYTES {
                        return Err(DaemonError::Protocol("request line too long".into()));
                    }
                    return Ok(Some(line.trim_end_matches(['\r', '\n']).to_string()));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return Ok(None);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Reads exactly `len` payload bytes, riding out read timeouts, into
    /// a vector that reserves them up front: `read_to_end` fills its spare
    /// capacity without zeroing it first, and never reads past `len`.
    fn read_payload(&mut self, len: u64) -> DaemonResult<Vec<u8>> {
        let mut buf = Vec::new();
        let want = usize::try_from(len)
            .map_err(|_| DaemonError::Protocol(format!("FILE payload {len} is too large")))?;
        buf.try_reserve_exact(want)
            .map_err(|e| DaemonError::Protocol(format!("FILE payload {len}: {e}")))?;
        while buf.len() < want {
            let left = (want - buf.len()) as u64;
            // On an error, the bytes read before it are in `buf` already.
            match (&mut self.reader).take(left).read_to_end(&mut buf) {
                Ok(0) => {
                    return Err(DaemonError::Protocol(format!(
                        "connection closed {}/{len} bytes into a FILE payload",
                        buf.len()
                    )))
                }
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        return Err(DaemonError::Protocol("shutdown during FILE payload".into()));
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(buf)
    }

    fn send(&mut self, reply: &str) -> DaemonResult<()> {
        let stream = self.reader.get_mut();
        stream.write_all(reply.as_bytes())?;
        stream.write_all(b"\n")?;
        Ok(())
    }

    /// Sends `OK <len>` followed by `len` raw bytes (RESTORE replies).
    fn send_bytes(&mut self, data: &[u8]) -> DaemonResult<()> {
        let stream = self.reader.get_mut();
        stream.write_all(format!("OK {}\n", data.len()).as_bytes())?;
        stream.write_all(data)?;
        Ok(())
    }

    fn dispatch(&mut self, request: Request) -> String {
        match self.handle(request) {
            Ok(reply) => reply,
            Err(e) => format!("ERR {e}"),
        }
    }

    fn tenant(&self) -> DaemonResult<&str> {
        self.tenant.as_deref().ok_or_else(|| DaemonError::Protocol("OPEN a tenant first".into()))
    }

    fn handle(&mut self, request: Request) -> DaemonResult<String> {
        match request {
            Request::Open { tenant } => {
                if self.session.is_some() {
                    return Err(DaemonError::Protocol(
                        "finish the current session before re-OPENing".into(),
                    ));
                }
                self.tenant = Some(tenant);
                Ok("OK".into())
            }
            Request::Begin { label } => {
                let tenant = self.tenant()?.to_string();
                if self.session.is_some() {
                    return Err(DaemonError::Protocol("a session is already open".into()));
                }
                let session = self.store.begin_session(&tenant, &label)?;
                self.session = Some(session);
                Ok("OK".into())
            }
            Request::File { len, path } => {
                // Always consume the payload, or the stream desyncs.
                let data = self.read_payload(len)?;
                let session = self
                    .session
                    .as_mut()
                    .ok_or_else(|| DaemonError::Protocol("FILE outside a session".into()))?;
                session.stage_owned(&path, data)?;
                Ok(format!("OK {}", session.staged_files()))
            }
            Request::Commit => {
                let session = self
                    .session
                    .take()
                    .ok_or_else(|| DaemonError::Protocol("COMMIT outside a session".into()))?;
                let report = self.store.commit(session)?;
                Ok(format!("OK {} {} {}", report.files, report.input_bytes, report.grown_bytes))
            }
            Request::Abort => {
                let session = self
                    .session
                    .take()
                    .ok_or_else(|| DaemonError::Protocol("ABORT outside a session".into()))?;
                self.store.abort(session);
                Ok("OK".into())
            }
            Request::Ls => {
                let tenant = self.tenant()?.to_string();
                let names = self.store.list(&tenant)?;
                Ok(format!("OK {}", names.join(" ")))
            }
            Request::Restore { name } => {
                let tenant = self.tenant()?.to_string();
                let data = self.store.restore(&tenant, &name)?;
                self.send_bytes(&data)?;
                // The framed reply is already on the wire; nothing more.
                Ok(String::new())
            }
            Request::Have { hashes } => {
                let bits: String =
                    self.store.have(&hashes).iter().map(|&b| if b { '1' } else { '0' }).collect();
                Ok(format!("OK {bits}"))
            }
            Request::Stats => {
                let stats = self.store.stats();
                let json = serde_json::to_string(&stats)
                    .map_err(|e| DaemonError::State(format!("encode stats: {e}")))?;
                Ok(format!("OK {json}"))
            }
            Request::Gc => {
                let report = self.store.gc()?;
                Ok(format!(
                    "OK {} {} {}",
                    report.containers_deleted, report.containers_protected, report.data_bytes_freed
                ))
            }
            Request::Fsck => {
                let report = self.store.fsck();
                if report.is_healthy() {
                    Ok(format!("OK healthy {} recipes", report.file_manifests))
                } else {
                    Err(DaemonError::State(format!(
                        "fsck found {} problem(s): {}",
                        report.problems.len(),
                        report.problems.join("; ")
                    )))
                }
            }
            Request::Ping => Ok("OK pong".into()),
            Request::Shutdown => {
                if let Some(session) = self.session.take() {
                    self.store.abort(session);
                }
                Ok("OK bye".into())
            }
        }
    }
}
