//! The `pathcons serve` socket front-end.
//!
//! A [`Server`] owns an [`Arc<ConstraintStore>`] and an
//! [`Arc<BatchEngine>`] and answers a JSONL line protocol over a unix
//! socket or TCP, one thread per connection:
//!
//! - a line shaped like a batch **job** (`{"id": ..., "phi": ...,
//!   "sigma": [...], "context": ..., "deadline_ms": ...}`) is resolved
//!   against the store and solved through the engine — same answer
//!   cache, same deadlines, same verify mode as `pathcons batch` — and
//!   answered with the batch result line, verbatim;
//! - `{"op": "ping"}`, `{"op": "stats"}`, `{"op": "check", ...}` and
//!   `{"op": "shutdown"}` are control operations;
//! - a malformed line is answered with a per-line error record
//!   (`"id": "line-N"`), mirroring `pathcons batch` — the connection is
//!   **never** dropped for bad input.
//!
//! Admission control is global: when more than the engine's configured
//! shed depth jobs are in flight across all connections, new jobs get
//! an immediate `unknown`/`overloaded` answer instead of queueing
//! without bound (the same honest-shedding contract as the batch path;
//! shed answers are never cached).
//!
//! The accept loops block in `accept()`. Stopping the server sets a
//! shared flag and then connects once to each listener to wake its
//! loop; a failed accept (fd exhaustion, say) is retried after a short
//! back-off instead of ending the server, and counted in
//! `accept_errors` (the `stats` op and `pathcons_accept_errors_total`).
//!
//! The serve loop is also the observability plane's front door: every
//! job gets a correlation id (the caller's `request_id`, or an assigned
//! `r-<connection>-<line>`) echoed in its result record; per-op latency
//! and per-job verdicts land in the server's [`MetricsPlane`], which
//! reads every engine-side count at scrape time; `{"op": "metrics"}`
//! returns a structured snapshot; an optional `--metrics-addr` HTTP listener
//! serves the same snapshot as Prometheus text; and jobs slower than a
//! configured threshold are written to a JSONL slow-query log keyed by
//! that correlation id.

use crate::metrics::MetricsPlane;
use crate::store::ConstraintStore;
use pathcons_engine::{canonicalize, snapshot_id, BatchEngine, Job, JobResult, Json, Verdict};
use pathcons_telemetry::schema;
use std::cell::Cell;
use std::fmt;
use std::io::{self, Read as _, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Longest request line a connection may buffer. A peer that streams
/// bytes without ever sending a newline gets a per-line error record at
/// this threshold and the rest of its line is discarded — the buffer
/// never grows without bound, and the connection stays usable.
pub const MAX_LINE_BYTES: usize = 4 * 1024 * 1024;

/// How long an accept loop waits before retrying a failed `accept()`
/// other than an interrupted or aborted one — fd exhaustion under
/// overload, say. It is the only sleep in either accept loop.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Longest a TCP wake connection may take to connect (see [`Stopper`]).
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Where a server listens (or a client connects).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address like `127.0.0.1:7878` (port 0 picks a free port).
    Tcp(String),
}

impl Endpoint {
    /// Parses a CLI endpoint spec: `unix:PATH`, `tcp:ADDR`, or a bare
    /// value (containing `/` → unix path, otherwise a TCP address).
    pub fn parse(spec: &str) -> Result<Endpoint, String> {
        if let Some(path) = spec.strip_prefix("unix:") {
            return Ok(Endpoint::Unix(PathBuf::from(path)));
        }
        if let Some(addr) = spec.strip_prefix("tcp:") {
            return Ok(Endpoint::Tcp(addr.to_owned()));
        }
        if spec.contains('/') {
            return Ok(Endpoint::Unix(PathBuf::from(spec)));
        }
        if spec.contains(':') {
            return Ok(Endpoint::Tcp(spec.to_owned()));
        }
        Err(format!(
            "bad endpoint `{spec}`: expected unix:PATH or tcp:HOST:PORT"
        ))
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// Monotonic counters a running server exposes via `{"op": "stats"}`.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Failed accepts on either listener that the loop backed off from.
    pub accept_errors: AtomicU64,
    /// Job lines answered (any verdict).
    pub jobs: AtomicU64,
    /// Malformed lines answered with error records.
    pub malformed: AtomicU64,
    /// Jobs shed by admission control.
    pub shed: AtomicU64,
    /// Control operations handled (ping/stats/check/shutdown/metrics).
    pub ops: AtomicU64,
    /// Jobs currently being solved, across all connections.
    pub inflight: AtomicU64,
    /// Jobs that crossed the slow-query threshold.
    pub slow: AtomicU64,
}

impl ServeStats {
    /// One coherent point-in-time copy of every counter — the single
    /// shape behind the `stats` op, the metrics plane, and the tests
    /// (each counter is loaded relaxed; the copy is exact once
    /// recording quiesces).
    pub fn snapshot(&self) -> ServeStatsSnapshot {
        ServeStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
            malformed: self.malformed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            slow: self.slow.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of [`ServeStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Failed accepts backed off from, on either listener.
    pub accept_errors: u64,
    /// Job lines answered (any verdict).
    pub jobs: u64,
    /// Malformed lines answered with error records.
    pub malformed: u64,
    /// Jobs shed by admission control.
    pub shed: u64,
    /// Control operations handled.
    pub ops: u64,
    /// Jobs currently admitted and being solved.
    pub inflight: u64,
    /// Jobs that crossed the slow-query threshold.
    pub slow: u64,
}

/// RAII admission token: increments the inflight gauge on admission and
/// decrements it on drop, so **every** exit from the job path — shed,
/// store-lookup error, solved, or a panic unwinding through the solver —
/// restores the gauge. Before this guard, a panicking job leaked the
/// increment and the gauge drifted up until admission control starved
/// the server.
struct InflightGuard<'a> {
    gauge: &'a AtomicU64,
}

impl<'a> InflightGuard<'a> {
    /// Admits one job: bumps the gauge and reports how many jobs were
    /// already in flight (the admission-control test value).
    fn admit(gauge: &'a AtomicU64) -> (u64, InflightGuard<'a>) {
        let prior = gauge.fetch_add(1, Ordering::Relaxed);
        (prior, InflightGuard { gauge })
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The slow-query log: jobs slower than `threshold_ms` append one JSONL
/// record (correlation id, canonical key hash, verdict, phase
/// attribution, queue vs. solve split) to the shared sink.
pub(crate) struct SlowLog {
    threshold_ms: u64,
    sink: Mutex<Box<dyn io::Write + Send>>,
}

impl SlowLog {
    fn new(threshold_ms: u64, sink: Box<dyn io::Write + Send>) -> SlowLog {
        SlowLog {
            threshold_ms,
            sink: Mutex::new(sink),
        }
    }

    fn write_record(&self, record: &Json) {
        let mut sink = match self.sink.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let _ = writeln!(sink, "{record}");
        let _ = sink.flush();
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.set_read_timeout(timeout),
            Stream::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.write_all(buf),
            Stream::Tcp(s) => s.write_all(buf),
        }
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: Listener,
    endpoint: Endpoint,
    store: Arc<ConstraintStore>,
    engine: Arc<BatchEngine>,
    stats: Arc<ServeStats>,
    stop: Arc<AtomicBool>,
    /// Applied to jobs that do not carry their own `deadline_ms`.
    default_deadline_ms: Option<u64>,
    started: Instant,
    metrics: Arc<MetricsPlane>,
    slow: Option<Arc<SlowLog>>,
    /// The Prometheus HTTP listener, bound at configuration time so
    /// port 0 resolves immediately; taken (and its accept loop spawned)
    /// when the server runs.
    http: Mutex<Option<TcpListener>>,
    metrics_addr: Option<String>,
}

impl Server {
    /// Binds a listener. For unix endpoints a stale socket file from a
    /// previous run is removed first; for TCP, port 0 resolves to the
    /// actual bound port in [`Server::endpoint`].
    pub fn bind(
        endpoint: &Endpoint,
        store: Arc<ConstraintStore>,
        engine: Arc<BatchEngine>,
        default_deadline_ms: Option<u64>,
    ) -> io::Result<Server> {
        let (listener, endpoint) = match endpoint {
            Endpoint::Unix(path) => {
                // A dead server leaves its socket file behind; binding
                // over it fails with AddrInUse. Remove only socket
                // files, never ordinary files someone else owns — and
                // only *stale* sockets: a connect probe distinguishes a
                // live server (accepts) from a leftover file (refuses),
                // so binding a second server on a served path fails
                // instead of silently stealing the endpoint.
                if let Ok(meta) = std::fs::symlink_metadata(path) {
                    use std::os::unix::fs::FileTypeExt as _;
                    if meta.file_type().is_socket() {
                        match UnixStream::connect(path) {
                            Ok(_) => {
                                return Err(io::Error::new(
                                    io::ErrorKind::AddrInUse,
                                    format!("{} is in use by a live server", path.display()),
                                ));
                            }
                            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                                let _ = std::fs::remove_file(path);
                            }
                            // Other probe failures (e.g. permissions):
                            // leave the file alone and let bind report.
                            Err(_) => {}
                        }
                    }
                }
                let listener = UnixListener::bind(path)?;
                (Listener::Unix(listener), Endpoint::Unix(path.clone()))
            }
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let local = listener.local_addr()?;
                (Listener::Tcp(listener), Endpoint::Tcp(local.to_string()))
            }
        };
        let stats = Arc::new(ServeStats::default());
        // Every server has a metrics plane (the `metrics` op always
        // answers).
        let metrics = Arc::new(MetricsPlane::new(
            store.clone(),
            engine.clone(),
            stats.clone(),
        ));
        Ok(Server {
            listener,
            endpoint,
            store,
            engine,
            stats,
            stop: Arc::new(AtomicBool::new(false)),
            default_deadline_ms,
            started: Instant::now(),
            metrics,
            slow: None,
            http: Mutex::new(None),
            metrics_addr: None,
        })
    }

    /// Enables the slow-query log: jobs slower than `threshold_ms`
    /// append one JSONL record to `path` (or stderr when `None`).
    pub fn with_slow_log(mut self, threshold_ms: u64, path: Option<&str>) -> io::Result<Server> {
        let sink: Box<dyn io::Write + Send> = match path {
            Some(path) => Box::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
            None => Box::new(io::stderr()),
        };
        self.slow = Some(Arc::new(SlowLog::new(threshold_ms, sink)));
        Ok(self)
    }

    /// Binds the Prometheus exposition listener on `addr` (a TCP
    /// address; port 0 picks a free port, resolved in
    /// [`Server::metrics_addr`]). The listener serves
    /// `GET /metrics` (and `/`) in text exposition format 0.0.4 once
    /// the server runs.
    pub fn with_metrics_addr(self, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let resolved = listener.local_addr()?.to_string();
        *self.http.lock().unwrap_or_else(|e| e.into_inner()) = Some(listener);
        Ok(Server {
            metrics_addr: Some(resolved),
            ..self
        })
    }

    /// The resolved Prometheus listener address, when one is bound.
    pub fn metrics_addr(&self) -> Option<&str> {
        self.metrics_addr.as_deref()
    }

    /// The server's metrics plane.
    pub fn metrics_plane(&self) -> Arc<MetricsPlane> {
        self.metrics.clone()
    }

    /// The resolved endpoint (with TCP port 0 replaced by the real
    /// port).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// What stops this server: the shared flag plus the endpoints whose
    /// blocked accept loops it wakes.
    fn stopper(&self) -> Arc<Stopper> {
        Arc::new(Stopper {
            flag: self.stop.clone(),
            endpoint: self.endpoint.clone(),
            metrics_addr: self.metrics_addr.clone(),
        })
    }

    /// The server's counters.
    pub fn stats(&self) -> Arc<ServeStats> {
        self.stats.clone()
    }

    /// Accept loop: blocks in `accept()` until the server is stopped,
    /// by [`ServerHandle::stop`] or a `{"op": "shutdown"}` line, both
    /// through a [`Stopper`]. Each connection gets its own detached
    /// thread, which observes the stop flag via read timeouts. A failed
    /// accept never ends the loop (see [`accept_until_stopped`]).
    pub fn run(&self) {
        let stopper = self.stopper();
        // The Prometheus listener (when bound) gets its own accept
        // thread; the same stopper wakes it, and it is joined below so
        // the metrics port is free once `run` returns.
        let scrapes = self
            .http
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .map(|http| {
                let plane = self.metrics.clone();
                let stop = self.stop.clone();
                let stats = self.stats.clone();
                std::thread::spawn(move || serve_prometheus(http, plane, &stop, &stats))
            });
        let accept = || match &self.listener {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        accept_until_stopped(&self.stop, &self.stats.accept_errors, accept, |stream| {
            let conn_id = self.stats.connections.fetch_add(1, Ordering::Relaxed);
            let worker = ConnectionWorker {
                store: self.store.clone(),
                engine: self.engine.clone(),
                stats: self.stats.clone(),
                stopper: stopper.clone(),
                shutdown: Cell::new(false),
                default_deadline_ms: self.default_deadline_ms,
                started: self.started,
                conn_id,
                metrics: self.metrics.clone(),
                slow: self.slow.clone(),
            };
            // A thread that cannot be spawned drops its connection.
            let _ = std::thread::Builder::new().spawn(move || worker.serve(stream));
        });
        if let Endpoint::Unix(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
        if let Some(scrapes) = scrapes {
            let _ = scrapes.join();
        }
    }

    /// Runs the accept loop on a background thread, returning a handle
    /// to stop and join it (the in-process harness tests and the bench
    /// runner use this; the CLI calls [`Server::run`] directly).
    pub fn spawn(self) -> ServerHandle {
        let endpoint = self.endpoint.clone();
        let stopper = self.stopper();
        let stats = self.stats();
        let metrics = self.metrics.clone();
        let metrics_addr = self.metrics_addr.clone();
        let join = std::thread::spawn(move || self.run());
        ServerHandle {
            endpoint,
            stopper,
            stats,
            metrics,
            metrics_addr,
            join,
        }
    }
}

/// A handle to a server running on a background thread.
pub struct ServerHandle {
    endpoint: Endpoint,
    stopper: Arc<Stopper>,
    stats: Arc<ServeStats>,
    metrics: Arc<MetricsPlane>,
    metrics_addr: Option<String>,
    join: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The resolved endpoint clients should connect to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The server's counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The server's metrics plane.
    pub fn metrics_plane(&self) -> &Arc<MetricsPlane> {
        &self.metrics
    }

    /// The resolved Prometheus listener address, when one is bound.
    pub fn metrics_addr(&self) -> Option<&str> {
        self.metrics_addr.as_deref()
    }

    /// Whether the accept loop has returned (a `shutdown` op ends it
    /// too); [`ServerHandle::stop`] then joins at once.
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }

    /// Stops the server, waking both accept loops, and joins it; the
    /// metrics port (when bound) is free once this returns.
    pub fn stop(self) -> io::Result<()> {
        self.stopper.stop();
        self.join
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))
    }
}

/// Stops a server: sets the shared stop flag, then connects once to
/// each of the server's listeners to wake its accept loop out of a
/// blocking `accept()`. The loops check the flag before anything else,
/// so a wake connection is never counted or served.
struct Stopper {
    flag: Arc<AtomicBool>,
    endpoint: Endpoint,
    metrics_addr: Option<String>,
}

impl Stopper {
    fn stop(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // A failed wake means that listener is already gone.
        match &self.endpoint {
            Endpoint::Unix(path) => drop(UnixStream::connect(path)),
            Endpoint::Tcp(addr) => wake_tcp(addr),
        }
        if let Some(addr) = &self.metrics_addr {
            wake_tcp(addr);
        }
    }
}

/// Connects once to the TCP listener bound on `addr` (a resolved
/// socket address); an unspecified bind address (`0.0.0.0`, `[::]`) is
/// reached over loopback on the same port.
fn wake_tcp(addr: &str) {
    let Ok(mut addr) = addr.parse::<SocketAddr>() else {
        return;
    };
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    drop(TcpStream::connect_timeout(&addr, WAKE_CONNECT_TIMEOUT));
}

/// Blocks in `accept` and hands each connection to `serve` until the
/// stop flag is set. The flag is checked as soon as `accept` returns,
/// so a [`Stopper`]'s wake connection is dropped unserved. Interrupted
/// and aborted accepts are retried at once, any other error (fd
/// exhaustion, say) after [`ACCEPT_ERROR_BACKOFF`] and counted in
/// `errors`: overload never ends the loop, and an operator sees it in
/// the `stats` op and the scrape.
fn accept_until_stopped<S>(
    stop: &AtomicBool,
    errors: &AtomicU64,
    accept: impl Fn() -> io::Result<S>,
    mut serve: impl FnMut(S),
) {
    while !stop.load(Ordering::SeqCst) {
        let accepted = accept();
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok(stream) => serve(stream),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                ) => {}
            Err(_) => {
                errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            }
        }
    }
}

/// Everything one connection thread needs, cloned out of the server so
/// the thread borrows nothing.
struct ConnectionWorker {
    store: Arc<ConstraintStore>,
    engine: Arc<BatchEngine>,
    stats: Arc<ServeStats>,
    stopper: Arc<Stopper>,
    /// Set by a `shutdown` op; the server is stopped once the responses
    /// to the lines read with it are written.
    shutdown: Cell<bool>,
    default_deadline_ms: Option<u64>,
    started: Instant,
    /// This connection's accept ordinal; the `r-<conn>-<line>` half of
    /// assigned request ids.
    conn_id: u64,
    metrics: Arc<MetricsPlane>,
    slow: Option<Arc<SlowLog>>,
}

impl ConnectionWorker {
    fn serve(&self, mut stream: Stream) {
        if stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .is_err()
        {
            return;
        }
        // A hand-rolled line splitter instead of `BufRead::read_line`:
        // read_line's UTF-8 guard discards partially-read bytes when a
        // read times out, and timeouts are routine here (they are how
        // the thread polls the stop flag).
        let mut pending: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 8192];
        let mut lineno = 0usize;
        // When a line overflows MAX_LINE_BYTES its remainder is
        // discarded (not buffered) until the next newline.
        let mut discarding = false;
        loop {
            if self.stopper.flag.load(Ordering::Relaxed) {
                return;
            }
            let n = match stream.read(&mut chunk) {
                Ok(0) => return, // client closed
                Ok(n) => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(_) => return,
            };
            let mut data = &chunk[..n];
            if discarding {
                match data.iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        data = &data[nl + 1..];
                        discarding = false;
                    }
                    None => continue,
                }
            }
            pending.extend_from_slice(data);
            let mut peer_gone = false;
            while let Some(nl) = pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = pending.drain(..=nl).collect();
                lineno += 1;
                let text = String::from_utf8_lossy(&line[..line.len() - 1]);
                if let Some(response) = self.handle_line(lineno, text.trim()) {
                    let mut payload = response.into_bytes();
                    payload.push(b'\n');
                    if stream.write_all(&payload).is_err() {
                        peer_gone = true;
                        break;
                    }
                }
            }
            // A `shutdown` ack is written before the accept loop is
            // woken: once `run` returns the process may exit.
            if self.shutdown.get() {
                self.stopper.stop();
                return;
            }
            if peer_gone {
                return;
            }
            if pending.len() > MAX_LINE_BYTES {
                lineno += 1;
                self.stats.malformed.fetch_add(1, Ordering::Relaxed);
                let mut payload = error_record(
                    lineno,
                    &format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                )
                .to_json()
                .to_string()
                .into_bytes();
                payload.push(b'\n');
                if stream.write_all(&payload).is_err() {
                    return;
                }
                pending.clear();
                pending.shrink_to_fit();
                discarding = true;
            }
        }
    }

    /// Answers one protocol line; `None` for blank/comment lines.
    fn handle_line(&self, lineno: usize, line: &str) -> Option<String> {
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        // Control operations use an `op` member; anything else is a job
        // line parsed exactly as `pathcons batch` parses it.
        if let Ok(value) = Json::parse(line) {
            if let Some(op) = value.get("op").and_then(Json::as_str) {
                self.stats.ops.fetch_add(1, Ordering::Relaxed);
                let start = Instant::now();
                let response = self.handle_op(lineno, op, &value);
                self.metrics
                    .record_op(op, start.elapsed().as_micros() as u64);
                return Some(response);
            }
        }
        match Job::from_json_line(line) {
            Ok(job) => Some(self.handle_job(lineno, job)),
            Err(e) => {
                self.stats.malformed.fetch_add(1, Ordering::Relaxed);
                Some(
                    error_record(lineno, &format!("malformed request: {e}"))
                        .to_json()
                        .to_string(),
                )
            }
        }
    }

    fn handle_op(&self, lineno: usize, op: &str, value: &Json) -> String {
        match op {
            "ping" => obj(vec![
                ("ok", Json::Bool(true)),
                ("op", Json::Str("ping".into())),
                ("snapshot", Json::Str(self.store.content_id_hex())),
            ]),
            "stats" => {
                let (cache, _) = self.engine.cache_snapshot();
                let serve = self.stats.snapshot();
                // Per-context amortization counters: how many jobs each
                // resident context answered, its revision, and what its
                // shared state has saved so far (saturated-`post*` hits).
                // `warm: false` means no state is live at the current
                // revision — never warmed, or invalidated by a mutation
                // and not yet rebuilt.
                let contexts_detail = self
                    .store
                    .context_stats()
                    .into_iter()
                    .map(|ctx| {
                        obj_json(vec![
                            ("name", Json::Str(ctx.name)),
                            ("kind", Json::Str(ctx.kind)),
                            ("revision", Json::Num(ctx.revision as f64)),
                            ("jobs", Json::Num(ctx.jobs as f64)),
                            ("warm", Json::Bool(ctx.warm)),
                            ("word_hits", Json::Num(ctx.shared.word_hits as f64)),
                            ("word_misses", Json::Num(ctx.shared.word_misses as f64)),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", Json::Str("stats".into())),
                    ("snapshot", Json::Str(self.store.content_id_hex())),
                    ("contexts", Json::Num(self.store.context_count() as f64)),
                    (
                        "uptime_ms",
                        Json::Num(self.started.elapsed().as_millis() as f64),
                    ),
                    ("connections", Json::Num(serve.connections as f64)),
                    ("accept_errors", Json::Num(serve.accept_errors as f64)),
                    ("jobs", Json::Num(serve.jobs as f64)),
                    ("malformed", Json::Num(serve.malformed as f64)),
                    ("shed", Json::Num(serve.shed as f64)),
                    ("inflight", Json::Num(serve.inflight as f64)),
                    ("slow", Json::Num(serve.slow as f64)),
                    ("cache_hits", Json::Num(cache.hits as f64)),
                    ("cache_misses", Json::Num(cache.misses as f64)),
                    ("contexts_detail", Json::Arr(contexts_detail)),
                ])
            }
            "metrics" => self.metrics.json().to_string(),
            "shutdown" => {
                self.shutdown.set(true);
                obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", Json::Str("shutdown".into())),
                ])
            }
            "check" => self.handle_check(lineno, value),
            other => error_record(lineno, &format!("unknown op `{other}`"))
                .to_json()
                .to_string(),
        }
    }

    /// `{"op": "check", "context": NAME, "constraints": [...]}` —
    /// satisfaction of constraint texts against a resident context's
    /// data graph, answered from the columnar store.
    fn handle_check(&self, lineno: usize, value: &Json) -> String {
        let context = value.get("context").and_then(Json::as_str).unwrap_or("");
        let texts: Vec<String> = match value.get("constraints") {
            Some(Json::Arr(items)) => {
                match items
                    .iter()
                    .map(|v| v.as_str().map(str::to_owned))
                    .collect::<Option<Vec<_>>>()
                {
                    Some(texts) => texts,
                    None => {
                        return error_record(lineno, "`constraints` entries must be strings")
                            .to_json()
                            .to_string()
                    }
                }
            }
            _ => {
                return error_record(lineno, "check needs a `constraints` array")
                    .to_json()
                    .to_string()
            }
        };
        match self.store.check(context, &texts) {
            Err(e) => error_record(lineno, &e).to_json().to_string(),
            Ok(verdicts) => {
                let all_hold = verdicts.iter().all(|(_, holds)| *holds);
                let results = verdicts
                    .into_iter()
                    .map(|(text, holds)| {
                        obj_json(vec![
                            ("constraint", Json::Str(text)),
                            ("holds", Json::Bool(holds)),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", Json::Str("check".into())),
                    ("context", Json::Str(context.to_owned())),
                    ("all_hold", Json::Bool(all_hold)),
                    ("results", Json::Arr(results)),
                ])
            }
        }
    }

    fn handle_job(&self, lineno: usize, mut job: Job) -> String {
        let start = Instant::now();
        if job.deadline_ms.is_none() {
            job.deadline_ms = self.default_deadline_ms;
        }
        // Correlation: the caller's own `request_id` wins; otherwise the
        // service assigns `r-<connection>-<line>`. Every result record,
        // telemetry span, and slow-log record for this job carries the
        // same id, so one `grep` joins all three.
        let request_id = job
            .request_id
            .clone()
            .unwrap_or_else(|| format!("r-{}-{lineno}", self.conn_id));
        // Global admission control: the engine's shed depth bounds the
        // number of jobs solving at once across every connection. The
        // RAII guard restores the gauge on every exit — shed, error,
        // solved, or a panic unwinding through the solver.
        let depth = self.engine.config().shed.max_queue_depth;
        let (inflight, _guard) = InflightGuard::admit(&self.stats.inflight);
        let mut queue_micros = 0u64;
        let mut reached_engine = false;
        let mut result = if depth > 0 && inflight as usize >= depth {
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            overloaded_record(job.id.clone())
        } else {
            let deadline_at = job.deadline_ms.map(|ms| start + Duration::from_millis(ms));
            match self.store.prepare(&job) {
                Err(detail) => error_result(job.id.clone(), detail),
                Ok(prepared) => {
                    reached_engine = true;
                    // Queue time (admission + store resolution) vs. solve
                    // time: the slow-log split that tells an operator
                    // whether a slow job waited or worked.
                    queue_micros = start.elapsed().as_micros() as u64;
                    let result =
                        self.engine
                            .solve_prepared(job.id.clone(), &prepared, deadline_at, start);
                    if let Some(slow) = &self.slow {
                        if result.micros >= slow.threshold_ms.saturating_mul(1000) {
                            self.stats.slow.fetch_add(1, Ordering::Relaxed);
                            // The canonical cache-key hash is computed
                            // only here, on the already-slow path — it
                            // names the query family (alpha-renaming
                            // collapsed) so recurring offenders dedupe.
                            let key = format!(
                                "{:016x}",
                                snapshot_id(
                                    &canonicalize(
                                        &prepared.context,
                                        &prepared.sigma,
                                        &prepared.phi
                                    )
                                    .key
                                )
                            );
                            let mut members = vec![
                                ("slow_query", Json::Bool(true)),
                                ("request_id", Json::Str(request_id.clone())),
                                ("id", Json::Str(result.id.clone())),
                                ("context", Json::Str(job.context.clone())),
                                ("key", Json::Str(key)),
                                ("verdict", Json::Str(result.verdict.as_str().to_owned())),
                            ];
                            if let Some(kind) = &result.unknown_kind {
                                members.push(("unknown_kind", Json::Str(kind.clone())));
                            }
                            if let Some(phase) = &result.unknown_phase {
                                members.push(("unknown_phase", Json::Str(phase.clone())));
                            }
                            members.extend([
                                ("queue_micros", Json::Num(queue_micros as f64)),
                                (
                                    "solve_micros",
                                    Json::Num(result.micros.saturating_sub(queue_micros) as f64),
                                ),
                                ("micros", Json::Num(result.micros as f64)),
                                ("threshold_ms", Json::Num(slow.threshold_ms as f64)),
                            ]);
                            slow.write_record(&obj_json(members));
                        }
                    }
                    result
                }
            }
        };
        result.request_id = Some(request_id.clone());
        self.metrics
            .record_job(&result, reached_engine, start.elapsed().as_micros() as u64);
        self.stats.jobs.fetch_add(1, Ordering::Relaxed);
        // The per-job telemetry event: when the engine runs traced
        // (`serve --trace`), the correlation id lands in the trace so a
        // slow-log record can be joined against its spans.
        if let Some(rec) = self.engine.config().budget.telemetry.active() {
            rec.event(
                schema::EVENT_SERVE_JOB,
                &[("micros", result.micros), ("queue_micros", queue_micros)],
                &[
                    (schema::LABEL_REQUEST_ID, request_id.as_str()),
                    ("verdict", result.verdict.as_str()),
                ],
            );
        }
        result.to_json().to_string()
    }
}

fn obj_json(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn obj(members: Vec<(&str, Json)>) -> String {
    obj_json(members).to_string()
}

/// The per-line error record, shaped exactly like `pathcons batch`'s
/// records for malformed job lines.
fn error_record(lineno: usize, detail: &str) -> JobResult {
    error_result(format!("line-{lineno}"), detail.to_owned())
}

fn error_result(id: String, detail: String) -> JobResult {
    JobResult {
        id,
        verdict: Verdict::Error,
        method: None,
        detail: Some(detail),
        unknown_kind: None,
        unknown_phase: None,
        cache: None,
        certificate: None,
        request_id: None,
        micros: 0,
    }
}

/// The shed answer, shaped exactly like the batch engine's
/// `Unknown(Overloaded)` records.
fn overloaded_record(id: String) -> JobResult {
    JobResult {
        id,
        verdict: Verdict::Unknown,
        method: None,
        detail: Some(pathcons_core::UnknownReason::Overloaded.to_string()),
        unknown_kind: Some("overloaded".to_owned()),
        unknown_phase: None,
        cache: None,
        certificate: None,
        request_id: None,
        micros: 0,
    }
}

/// The Prometheus exposition accept loop: one short-lived HTTP/1.1
/// exchange per connection, `GET /metrics` (or `/`) answered with text
/// exposition format 0.0.4, anything else with 404. It blocks in
/// `accept()` under the same [`accept_until_stopped`] discipline as the
/// JSONL loop, woken by the same [`Stopper`].
fn serve_prometheus(
    listener: TcpListener,
    plane: Arc<MetricsPlane>,
    stop: &AtomicBool,
    stats: &ServeStats,
) {
    let accept = || listener.accept().map(|(s, _)| s);
    accept_until_stopped(stop, &stats.accept_errors, accept, |stream| {
        let plane = plane.clone();
        let _ = std::thread::Builder::new().spawn(move || answer_scrape(stream, &plane));
    });
}

/// Longest HTTP request head a scrape connection may send; beyond this
/// the connection is dropped (same bounded-buffer discipline as
/// [`MAX_LINE_BYTES`] on the JSONL side, scaled to scrape requests).
const MAX_SCRAPE_REQUEST_BYTES: usize = 8 * 1024;

fn answer_scrape(mut stream: TcpStream, plane: &MetricsPlane) {
    if stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .is_err()
    {
        return;
    }
    let mut request = Vec::new();
    let mut chunk = [0u8; 1024];
    while !request.windows(4).any(|w| w == b"\r\n\r\n") {
        if request.len() > MAX_SCRAPE_REQUEST_BYTES {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => request.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    let head = String::from_utf8_lossy(&request);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method == "GET" && (path == "/metrics" || path == "/") {
        let body = plane.prometheus_text();
        format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    } else {
        let body = "not found\n";
        format!(
            "HTTP/1.1 404 Not Found\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )
    };
    let _ = stream.write_all(response.as_bytes());
}

/// A minimal blocking JSONL client for tests, the bench runner, and the
/// CI smoke: connect, send request lines, read response lines.
pub struct Client {
    stream: Stream,
    pending: Vec<u8>,
}

impl Client {
    /// Connects to a serve endpoint.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        let stream = match endpoint {
            Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
            Endpoint::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr.as_str())?),
        };
        Ok(Client {
            stream,
            pending: Vec::new(),
        })
    }

    /// Sends one request line (a newline is appended).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut payload = line.as_bytes().to_vec();
        payload.push(b'\n');
        self.stream.write_all(&payload)
    }

    /// Reads the next response line (blocking).
    pub fn recv(&mut self) -> io::Result<String> {
        loop {
            if let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=nl).collect();
                return Ok(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
            }
            let mut chunk = [0u8; 8192];
            let n = match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.pending.extend_from_slice(&chunk[..n]);
        }
    }

    /// Sends a request and waits for its response.
    pub fn round_trip(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_specs_parse() {
        assert_eq!(
            Endpoint::parse("unix:/tmp/s.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/s.sock"))
        );
        assert_eq!(
            Endpoint::parse("/tmp/s.sock").unwrap(),
            Endpoint::Unix(PathBuf::from("/tmp/s.sock"))
        );
        assert_eq!(
            Endpoint::parse("tcp:127.0.0.1:0").unwrap(),
            Endpoint::Tcp("127.0.0.1:0".into())
        );
        assert_eq!(
            Endpoint::parse("127.0.0.1:7878").unwrap(),
            Endpoint::Tcp("127.0.0.1:7878".into())
        );
        assert!(Endpoint::parse("nonsense").is_err());
    }
}
