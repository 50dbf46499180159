//! The served run: a fresh `pathcons serve` child process per workload,
//! driven over its JSONL socket protocol by a closed-loop load
//! generator.
//!
//! Load shape: one generator process with [`CONNECTIONS`] threads, one
//! connection each, each keeping one request outstanding. The threads
//! take sequence numbers from one shared cursor, so the requests
//! answered in a run are always the first ones of the workload's list,
//! which repeats from its start when the window outlasts it. Every list
//! holds well over the answer cache's 4096 distinct queries, so a
//! repeated request finds its entry evicted, as a fresh one would.

use crate::workload::{Expect, Request};
use pathcons_engine::Json;
use pathcons_store::{Client, Endpoint};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client connections (and generator threads). The benchmark host has
/// two hardware threads; more clients would mostly measure the
/// scheduler.
pub const CONNECTIONS: usize = 2;

/// Server starts per run; `setup_s` is the median over them.
pub const SETUP_STARTS: usize = 15;

/// How long a server may take to start, or to exit after `shutdown`.
const PROCESS_TIMEOUT: Duration = Duration::from_secs(60);

/// What came back for one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// A job result with a verdict other than `error`.
    Verdict {
        /// The wire verdict: `implied`, `not-implied` or `unknown`.
        verdict: &'static str,
        /// The server-side latency the result reports.
        micros: u64,
        /// Whether the result carries a certificate.
        certificate: bool,
    },
    /// A `check` op's results, one per listed constraint.
    Holds(Vec<bool>),
    /// An error record, or a response that does not answer the request.
    Error(String),
    /// The connection failed before the response arrived.
    Transport(String),
}

impl Answer {
    /// Whether the request failed operationally (error record,
    /// transport error or missing response).
    pub fn failed(&self) -> bool {
        matches!(self, Answer::Error(_) | Answer::Transport(_))
    }
}

/// One answered (or failed) request of the timed window.
#[derive(Clone, Debug)]
pub struct Completed {
    /// Sequence number in the window; the request sent is
    /// [`nth`]`(requests, index)`.
    pub index: usize,
    /// Client-side time from send to response.
    pub latency_ns: u64,
    /// Response line length in bytes.
    pub bytes: usize,
    /// The classified response.
    pub answer: Answer,
}

/// Everything the served run measured.
pub struct Served {
    /// Spawn-to-first-ping time of every server start, in seconds.
    pub setup_s: Vec<f64>,
    /// The timed window's requests, in index order.
    pub completed: Vec<Completed>,
    /// Full response lines of every `keep_stride`-th request, for the
    /// certificate audit.
    pub kept: Kept,
    /// Wall time of the timed window, in seconds.
    pub wall_s: f64,
    /// The server's peak resident set (`VmHWM`), in MiB.
    pub peak_rss_mb: f64,
    /// The `{"op":"stats"}` response after the window.
    pub stats: Json,
    /// The `{"op":"metrics"}` response after the window.
    pub metrics: Json,
}

/// A running `pathcons serve` child. Dropping it kills the process and
/// waits for it.
struct ServerProcess {
    child: Child,
    endpoint: Endpoint,
}

impl ServerProcess {
    /// Starts `pathcons serve` on `snapshot` and waits until it answers
    /// a ping. Returns the process, the connection that pinged, and the
    /// spawn-to-pong time.
    fn start(
        pathcons: &Path,
        snapshot: &Path,
        socket: &Path,
    ) -> Result<(ServerProcess, Client, f64), String> {
        let started = Instant::now();
        let child = Command::new(pathcons)
            .arg("serve")
            .arg("--snapshot")
            .arg(snapshot)
            .arg("--warm")
            .arg("--listen")
            .arg(format!("unix:{}", socket.display()))
            .arg("--quiet")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", pathcons.display()))?;
        let mut server = ServerProcess {
            child,
            endpoint: Endpoint::Unix(socket.to_path_buf()),
        };
        let mut client = loop {
            match Client::connect(&server.endpoint) {
                Ok(client) => break client,
                Err(_) => {
                    if let Ok(Some(status)) = server.child.try_wait() {
                        return Err(format!("server exited during start-up: {status}"));
                    }
                    if started.elapsed() > PROCESS_TIMEOUT {
                        return Err("server did not accept a connection within 60 s".into());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        let pong = client
            .round_trip(r#"{"op":"ping"}"#)
            .map_err(|e| format!("ping failed: {e}"))?;
        if !pong.contains(r#""ok":true"#) {
            return Err(format!("unexpected ping response: {pong}"));
        }
        Ok((server, client, started.elapsed().as_secs_f64()))
    }

    /// Peak resident set size from `/proc/<pid>/status`, in MiB.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("{path} has no VmHWM line"))
    }

    /// Asks the server to exit over `control` and waits until it has.
    fn shutdown(mut self, control: &mut Client) -> Result<(), String> {
        control
            .round_trip(r#"{"op":"shutdown"}"#)
            .map_err(|e| format!("shutdown failed: {e}"))?;
        let asked = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if asked.elapsed() < PROCESS_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return Err("server did not exit after shutdown".into()),
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        // Already exited after a clean shutdown; otherwise stop it.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts the server [`SETUP_STARTS`] times (timing each start), keeps
/// the last one, drives `requests` at it for `window`, collects its
/// counters and peak memory, and shuts it down.
pub fn run(
    pathcons: &Path,
    snapshot: &Path,
    socket: &Path,
    requests: &[Request],
    window: Duration,
    keep_stride: usize,
) -> Result<Served, String> {
    let mut setup_s = Vec::with_capacity(SETUP_STARTS);
    let mut started = None;
    for start in 0..SETUP_STARTS {
        let (server, mut control, seconds) = ServerProcess::start(pathcons, snapshot, socket)?;
        setup_s.push(seconds);
        if start + 1 < SETUP_STARTS {
            server.shutdown(&mut control)?;
        } else {
            started = Some((server, control));
        }
    }
    let (server, mut control) = started.expect("at least one start");

    let (completed, kept, wall_s) = drive(&server.endpoint, requests, window, keep_stride)?;

    let op = |control: &mut Client, line: &str| {
        control
            .round_trip(line)
            .map_err(|e| format!("{line}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{line}: {e}")))
    };
    let stats = op(&mut control, r#"{"op":"stats"}"#)?;
    let metrics = op(&mut control, r#"{"op":"metrics"}"#)?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.shutdown(&mut control)?;
    Ok(Served {
        setup_s,
        completed,
        kept,
        wall_s,
        peak_rss_mb,
        stats,
        metrics,
    })
}

/// Full response lines kept for the audit, by sequence number.
type Kept = Vec<(usize, String)>;

type Drive = (Vec<Completed>, Kept, f64);

/// The request sent as number `index` of a window.
pub fn nth(requests: &[Request], index: usize) -> &Request {
    &requests[index % requests.len()]
}

/// The closed loop: each connection sends its next request only after
/// the previous response arrived, until `window` has passed. Requests in
/// flight at the deadline complete and count.
fn drive(
    endpoint: &Endpoint,
    requests: &[Request],
    window: Duration,
    keep_stride: usize,
) -> Result<Drive, String> {
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(endpoint).map_err(|e| format!("connect failed: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + window;
    let per_thread: Vec<(Vec<Completed>, Kept)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut kept = Vec::new();
                    while Instant::now() < deadline {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let request = nth(requests, index);
                        let sent = Instant::now();
                        let response = client.round_trip(&request.line);
                        let latency_ns = sent.elapsed().as_nanos() as u64;
                        match response {
                            Ok(line) => {
                                let id = index % requests.len();
                                let answer = classify(&line, id, &request.expect);
                                done.push(Completed {
                                    index,
                                    latency_ns,
                                    bytes: line.len(),
                                    answer,
                                });
                                if index % keep_stride == 0 {
                                    kept.push((index, line));
                                }
                            }
                            Err(e) => {
                                done.push(Completed {
                                    index,
                                    latency_ns,
                                    bytes: 0,
                                    answer: Answer::Transport(e.to_string()),
                                });
                                match Client::connect(endpoint) {
                                    Ok(fresh) => client = fresh,
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    (done, kept)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut completed = Vec::new();
    let mut kept = Vec::new();
    for (done, keep) in per_thread {
        completed.extend(done);
        kept.extend(keep);
    }
    completed.sort_by_key(|c| c.index);
    kept.sort_by_key(|(i, _)| *i);
    Ok((completed, kept, wall_s))
}

/// Classifies the response to list entry `index` without parsing it as
/// a whole: the load generator shares the host's two hardware threads
/// with the server, so it reads only the members it needs.
pub fn classify(line: &str, index: usize, expect: &Expect) -> Answer {
    if matches!(expect, Expect::Holds(_)) {
        if !line.contains(r#""op":"check""#) || !line.contains(r#""ok":true"#) {
            return Answer::Error(line.to_owned());
        }
        let holds = line
            .match_indices(r#""holds":"#)
            .map(|(at, key)| line[at + key.len()..].starts_with("true"))
            .collect();
        return Answer::Holds(holds);
    }
    if !line.starts_with(&format!(r#"{{"id":"j{index}","#)) {
        return Answer::Error(format!("response does not answer request {index}: {line}"));
    }
    let verdict = match string_member(line, "verdict") {
        Some("implied") => "implied",
        Some("not-implied") => "not-implied",
        Some("unknown") => "unknown",
        _ => return Answer::Error(line.to_owned()),
    };
    let micros = line
        .rfind(r#""micros":"#)
        .map(|at| &line[at + r#""micros":"#.len()..])
        .and_then(|rest| rest[..rest.find(['}', ','])?].parse().ok());
    match micros {
        Some(micros) => Answer::Verdict {
            verdict,
            micros,
            certificate: line.contains(r#""certificate":"#),
        },
        None => Answer::Error(line.to_owned()),
    }
}

/// The first string member `key` of a compact JSON object line.
fn string_member<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!(r#""{key}":""#);
    let rest = &line[line.find(&marker)? + marker.len()..];
    Some(&rest[..rest.find('"')?])
}

/// A temporary directory for one run's snapshot and socket, removed when
/// dropped. Relative to the working directory, which keeps the socket
/// path well under the 108-byte limit of unix socket addresses.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<root>/run-<pid>`.
    pub fn create(root: &Path) -> Result<WorkDir, String> {
        let dir = root.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_responses_classify_by_member() {
        let line = r#"{"id":"j3","verdict":"not-implied","method":"WordAutomaton","cache":"miss","certificate":{"snapshot":"00","kind":"countermodel"},"request_id":"r-0-4","micros":150}"#;
        assert_eq!(
            classify(line, 3, &Expect::NotImplied),
            Answer::Verdict {
                verdict: "not-implied",
                micros: 150,
                certificate: true
            }
        );
        assert!(classify(line, 4, &Expect::NotImplied).failed());
        let error = r#"{"id":"j3","verdict":"error","detail":"bad","micros":0}"#;
        assert!(classify(error, 3, &Expect::Implied).failed());
    }

    #[test]
    fn check_responses_list_holds_in_order() {
        let line = r#"{"ok":true,"op":"check","context":"bib","all_hold":false,"results":[{"constraint":"a -> b","holds":true},{"constraint":"b -> a","holds":false}]}"#;
        assert_eq!(
            classify(line, 0, &Expect::Holds(vec![true, false])),
            Answer::Holds(vec![true, false])
        );
        let error = r#"{"id":"line-1","verdict":"error","detail":"unknown context","micros":0}"#;
        assert!(classify(error, 0, &Expect::Holds(vec![true])).failed());
    }
}
