//! Socket front-end: listener, per-connection I/O, drain/shutdown.
//!
//! Thread model (all accounted — [`Server::join`] returns only when every
//! thread the daemon ever spawned has exited, the zero-leaked-threads
//! contract E24 asserts):
//!
//! ```text
//! accept thread ──┬─► per-connection reader (parses requests, admits jobs)
//!                 └─► per-connection writer (drains that connection's
//!                     event channel, one compact JSON line per event,
//!                     one flush per burst of waiting events)
//! scheduler thread ─► solves, sends events into connection channels
//! ```
//!
//! Shutdown: `drain` stops admission (rejects carry reason `draining`),
//! lets the scheduler finish the backlog, then closes connections; `now`
//! additionally raises every job's cancel flag so in-flight solves return
//! [`vr_cg::Termination::Cancelled`] at their next iteration top. Either
//! way queued jobs are never silently lost — each produces exactly one
//! terminal event.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use vr_par::team::Team;

use crate::proto::{Event, Request, MAX_BATCH_WIDTH};
use crate::queue::AdmissionQueue;
use crate::routing::RoutingTable;
use crate::scheduler::{unsolved_done, Job, Ledger, Scheduler};

/// Where the daemon listens.
#[derive(Debug, Clone)]
pub enum Listen {
    /// TCP, e.g. `"127.0.0.1:7070"` (`:0` picks an ephemeral port).
    Tcp(String),
    /// Unix-domain socket path (unlinked on bind if stale, and on join).
    Uds(PathBuf),
}

/// How to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Finish queued and in-flight jobs, then stop.
    Drain,
    /// Cancel everything cooperatively, then stop.
    Now,
}

/// Daemon configuration.
pub struct ServerConfig {
    /// Listen address.
    pub listen: Listen,
    /// Team width when `team` is not supplied.
    pub width: usize,
    /// Explicit team (tests hand one in to drive `kill_worker`).
    pub team: Option<Arc<Team>>,
    /// Admission queue capacity.
    pub queue_cap: usize,
    /// Routing table (load from `BENCH_stability.json`, measure, or
    /// default to the standard-variant fallback).
    pub routing: RoutingTable,
}

impl ServerConfig {
    /// Ephemeral-port TCP config with sane defaults.
    #[must_use]
    pub fn tcp_ephemeral() -> Self {
        ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            width: 2,
            team: None,
            queue_cap: 16,
            routing: RoutingTable::default(),
        }
    }
}

enum Sock {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Sock {
    fn try_clone(&self) -> std::io::Result<Sock> {
        match self {
            Sock::Tcp(s) => s.try_clone().map(Sock::Tcp),
            Sock::Uds(s) => s.try_clone().map(Sock::Uds),
        }
    }

    fn shutdown(&self) {
        match self {
            Sock::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Sock::Uds(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Sock {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.read(buf),
            Sock::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Sock {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Sock::Tcp(s) => s.write(buf),
            Sock::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Sock::Tcp(s) => s.flush(),
            Sock::Uds(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener),
}

/// State shared by every daemon thread.
struct Shared {
    queue: Arc<AdmissionQueue<Job>>,
    ledger: Arc<Ledger>,
    next_job_id: AtomicU64,
    team: Arc<Team>,
    stopping: AtomicBool,
    /// Live connection sockets, for unblocking readers at shutdown.
    conns: Mutex<Vec<Sock>>,
}

impl Shared {
    fn begin_shutdown(&self, mode: ShutdownMode) {
        self.stopping.store(true, Ordering::SeqCst);
        match mode {
            ShutdownMode::Drain => self.queue.drain(),
            ShutdownMode::Now => {
                // raise every live cancel flag (queued AND running)...
                self.ledger.cancel_all();
                // ...and end the backlog here (the drained queue never
                // reaches the scheduler again) so no tenant waits on a
                // job that will never run
                for job in self.queue.drain_now() {
                    self.ledger.finish(
                        &job,
                        unsolved_done(job.id, "cancelled", "cancelled by shutdown"),
                    );
                }
            }
        }
    }
}

/// A running daemon.
pub struct Server {
    shared: Arc<Shared>,
    addr: String,
    uds_path: Option<PathBuf>,
    scheduler: Option<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind, spawn the scheduler and accept loop, and return.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        let team = cfg
            .team
            .unwrap_or_else(|| Arc::new(Team::new(cfg.width.max(1))));
        let queue = Arc::new(AdmissionQueue::new(cfg.queue_cap));
        let ledger = Arc::new(Ledger::default());
        let shared = Arc::new(Shared {
            queue: Arc::clone(&queue),
            ledger: Arc::clone(&ledger),
            next_job_id: AtomicU64::new(1),
            team: Arc::clone(&team),
            stopping: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
        });

        let scheduler = {
            let sched = Scheduler::new(queue, team, cfg.routing, ledger);
            std::thread::Builder::new()
                .name("vr-svc-sched".into())
                .spawn(move || sched.run())?
        };

        let (listener, addr, uds_path) = match &cfg.listen {
            Listen::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                let local = l.local_addr()?.to_string();
                (Listener::Tcp(l), local, None)
            }
            Listen::Uds(p) => {
                if p.exists() {
                    let _ = std::fs::remove_file(p);
                }
                let l = UnixListener::bind(p)?;
                (Listener::Uds(l), p.display().to_string(), Some(p.clone()))
            }
        };

        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::Builder::new()
                .name("vr-svc-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &conn_threads))?
        };

        Ok(Server {
            shared,
            addr,
            uds_path,
            scheduler: Some(scheduler),
            acceptor: Some(acceptor),
            conn_threads,
        })
    }

    /// The bound address: `host:port` for TCP (with the real ephemeral
    /// port), the socket path for UDS.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The persistent team every job runs on (tests use this to kill
    /// workers mid-job).
    #[must_use]
    pub fn team(&self) -> Arc<Team> {
        Arc::clone(&self.shared.team)
    }

    /// Begin shutdown; returns immediately. Call [`Server::join`] to wait.
    pub fn shutdown(&self, mode: ShutdownMode) {
        self.shared.begin_shutdown(mode);
    }

    /// Wait for full termination: scheduler drained, listener closed,
    /// every connection thread joined. Consumes the server; after this
    /// returns, zero daemon threads remain. Blocks until a shutdown is
    /// initiated — by [`Server::shutdown`] or by a client's `shutdown`
    /// request — which is what lets the standalone binary serve
    /// indefinitely with a bare `start` + `join`.
    pub fn join(mut self) {
        // 1. scheduler serves until a shutdown drains the queue, then
        //    finishes the backlog and exits
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        // 2. unblock the accept loop with a self-connection
        match &self.uds_path {
            Some(p) => {
                let _ = UnixStream::connect(p);
            }
            None => {
                let _ = TcpStream::connect(&self.addr);
            }
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // 3. unblock connection readers (EOF) and join them
        for sock in self.shared.conns.lock().unwrap().iter() {
            sock.shutdown();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conn_threads.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        if let Some(p) = &self.uds_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn accept_loop(
    listener: &Listener,
    shared: &Arc<Shared>,
    conn_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let sock = match listener {
            // no Nagle: a small event line must not wait for the peer's
            // delayed ACK of the previous one (DESIGN §17)
            Listener::Tcp(l) => l.accept().and_then(|(s, _)| {
                s.set_nodelay(true)?;
                Ok(Sock::Tcp(s))
            }),
            Listener::Uds(l) => l.accept().map(|(s, _)| Sock::Uds(s)),
        };
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        let Ok(sock) = sock else { continue };
        let Ok(reader_half) = sock.try_clone() else {
            continue;
        };
        let Ok(writer_half) = sock.try_clone() else {
            continue;
        };
        shared.conns.lock().unwrap().push(sock);

        let (tx, rx) = channel::<Event>();
        let writer = std::thread::Builder::new()
            .name("vr-svc-conn-write".into())
            .spawn(move || {
                // a write error means the peer is gone; the reader sees EOF
                let _ = write_events(writer_half, &rx);
            });
        let reader = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name("vr-svc-conn-read".into())
                .spawn(move || connection_loop(reader_half, &shared, &tx))
        };
        let mut g = conn_threads.lock().unwrap();
        if let Ok(h) = writer {
            g.push(h);
        }
        if let Ok(h) = reader {
            g.push(h);
        }
    }
}

/// Write one connection's events until its channel closes or a write
/// fails. Every event already waiting when one arrives goes out under the
/// same flush, so a burst (progress lines, then `done`) costs one write.
fn write_events(sock: Sock, events: &Receiver<Event>) -> std::io::Result<()> {
    let mut out = BufWriter::new(sock);
    while let Ok(first) = events.recv() {
        for ev in std::iter::once(first).chain(events.try_iter()) {
            out.write_all(ev.to_json().compact().as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()?;
    }
    Ok(())
}

/// Parse and serve one connection until EOF or shutdown. The event
/// sender is per-connection: every job submitted here streams back here.
fn connection_loop(sock: Sock, shared: &Arc<Shared>, events: &Sender<Event>) {
    let mut lines = BufReader::new(sock);
    let mut line = String::new();
    loop {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF or shutdown-unblocked
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let request = vr_obs::json::parse(trimmed)
            .map_err(|e| format!("malformed JSON: {e:?}"))
            .and_then(|j| Request::from_json(&j));
        match request {
            Err(detail) => {
                shared.ledger.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = events.send(Event::Rejected {
                    tag: -1,
                    reason: "bad-request".into(),
                    detail,
                });
            }
            Ok(Request::Ping) => {
                let _ = events.send(Event::Pong);
            }
            Ok(Request::Stats) => {
                let _ = events.send(Event::Stats {
                    queued: shared.queue.depth(),
                    admitted: shared.ledger.admitted.load(Ordering::Relaxed),
                    rejected: shared.ledger.rejected.load(Ordering::Relaxed),
                    completed: shared.ledger.completed.load(Ordering::Relaxed),
                    width: shared.team.width(),
                    live_width: shared.team.live_width(),
                });
            }
            Ok(Request::Cancel { job_id }) => shared.ledger.cancel(job_id),
            Ok(Request::Shutdown { drain }) => {
                shared.begin_shutdown(if drain {
                    ShutdownMode::Drain
                } else {
                    ShutdownMode::Now
                });
            }
            Ok(Request::Submit { tag, job: spec }) => {
                if spec.rhs.columns() > MAX_BATCH_WIDTH {
                    shared.ledger.rejected.fetch_add(1, Ordering::Relaxed);
                    let _ = events.send(Event::Rejected {
                        tag,
                        reason: "bad-request".into(),
                        detail: format!("a job may carry at most {MAX_BATCH_WIDTH} rhs columns"),
                    });
                    continue;
                }
                let id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
                let job = Job {
                    id,
                    spec,
                    cancel: shared.ledger.register(id),
                    events: events.clone(),
                };
                // `accepted` is sent under the queue lock, so it reaches the
                // connection's event channel before anything the scheduler
                // sends for the job
                let admitted = shared.queue.try_push(job, |depth| {
                    shared.ledger.admitted.fetch_add(1, Ordering::Relaxed);
                    let _ = events.send(Event::Accepted {
                        tag,
                        job_id: id,
                        queue_depth: depth,
                    });
                });
                if let Err(reason) = admitted {
                    shared.ledger.unregister(id);
                    shared.ledger.rejected.fetch_add(1, Ordering::Relaxed);
                    let _ = events.send(Event::Rejected {
                        tag,
                        reason: reason.name().into(),
                        detail: match reason {
                            crate::queue::RejectReason::QueueFull => {
                                format!("admission queue at capacity {}", shared.queue.capacity())
                            }
                            crate::queue::RejectReason::Draining => {
                                "daemon is draining toward shutdown".into()
                            }
                        },
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::proto::{JobSpec, OperatorSpec, RhsSpec};

    fn poisson(seed: u64) -> JobSpec {
        JobSpec::new(
            OperatorSpec::Poisson2d { grid: 8 },
            RhsSpec::Seeded { seed, count: 1 },
        )
    }

    /// Runs until cancelled, streaming progress from its first iteration.
    fn blocker() -> JobSpec {
        let mut spec = JobSpec::new(
            OperatorSpec::Poisson2d { grid: 48 },
            RhsSpec::Seeded { seed: 7, count: 1 },
        );
        spec.tol = 0.0;
        spec.max_iters = 500_000;
        spec.events_every = 1;
        spec.batch = false;
        spec
    }

    #[test]
    fn cancel_registry_holds_only_live_jobs_on_every_terminal_path() {
        let server = Server::start(ServerConfig::tcp_ephemeral()).expect("server starts");
        let client = Client::connect(server.addr()).expect("client connects");
        let ledger = &server.shared.ledger;
        let end = |spec: JobSpec| {
            let done = client.submit(spec).expect("admitted").wait();
            done.expect("terminal event").termination
        };

        // done
        for seed in 0..8 {
            assert_eq!(end(poisson(seed)), "converged");
        }
        // error, and a solver panic turned into an error
        let mut unknown = poisson(1);
        unknown.variant = Some("no_such_variant".into());
        assert_eq!(end(unknown), "error");
        let mut panics = JobSpec::new(
            OperatorSpec::Csr {
                n: 2,
                indptr: vec![0, 1, 2],
                indices: vec![1, 0],
                data: vec![1.0, 1.0],
            },
            RhsSpec::Seeded { seed: 1, count: 1 },
        );
        panics.variant = Some("precond_jacobi".into());
        assert_eq!(end(panics), "error");
        // cancelled while queued, and cancelled while running
        let running = client.submit(blocker()).expect("admitted");
        assert!(running.next_event().is_some(), "blocker runs");
        let queued = client.submit(poisson(2)).expect("admitted");
        client.cancel(queued.id).expect("cancel sent");
        client.cancel(running.id).expect("cancel sent");
        assert_eq!(running.wait().expect("done").termination, "cancelled");
        assert_eq!(queued.wait().expect("done").termination, "cancelled");
        assert_eq!(ledger.live_jobs(), 0, "12 jobs ended, none may stay");

        // `shutdown now`: the running job cancels, the queued one is
        // ended by the shutdown itself
        let running = client.submit(blocker()).expect("admitted");
        assert!(running.next_event().is_some(), "blocker runs");
        let queued = client.submit(poisson(3)).expect("admitted");
        server.shutdown(ShutdownMode::Now);
        assert_eq!(queued.wait().expect("done").termination, "cancelled");
        assert_eq!(running.wait().expect("done").termination, "cancelled");
        assert_eq!(ledger.live_jobs(), 0);
        assert_eq!(ledger.completed.load(Ordering::Relaxed), 14);

        drop(client);
        server.join();
    }
}
