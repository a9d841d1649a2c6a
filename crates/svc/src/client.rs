//! Blocking client library for the solve daemon.
//!
//! One background reader thread demultiplexes the connection's event
//! stream: submit replies are matched by correlation tag, job events by
//! job id, and stats/pong replies feed a miscellaneous channel. A
//! [`JobHandle`] is an iterator-style view of one job's event stream —
//! [`JobHandle::next_event`] for streamed convergence samples,
//! [`JobHandle::wait`] to block until the terminal event.
//!
//! The daemon sends a job's `accepted` reply before any event of the job,
//! and the reader registers the job's channel as it reads that reply, so
//! every progress sample finds its handle's channel.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::proto::{Event, JobSpec, Request, WireRouting};

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

/// Why a submit did not yield a job handle.
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Machine-readable reason: `queue-full`, `draining`, `bad-request`,
    /// or `disconnected` when the daemon went away mid-submit.
    pub reason: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Everything a finished job reported, terminal event plus the collected
/// convergence stream.
#[derive(Debug, Clone)]
pub struct Completed {
    /// Stable termination name (`converged`, `cancelled`, `maxiters`, …).
    pub termination: String,
    /// Whether the solve converged.
    pub converged: bool,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norms, one per rhs column.
    pub residuals: Vec<f64>,
    /// Scheduler wall time, milliseconds.
    pub solve_ms: f64,
    /// Routing decision the daemon made.
    pub routing: WireRouting,
    /// Critical-path phase shares `[reduction_wait, matvec, vector,
    /// overhead]`, when tracing was available.
    pub phase_shares: Option<[f64; 4]>,
    /// Streamed `(iteration, residual)` samples in arrival order.
    pub progress: Vec<(usize, f64)>,
}

/// A submit's reply, with the job's event channel when it was accepted.
type SubmitReply = (Event, Option<Receiver<Event>>);

#[derive(Default)]
struct Demux {
    submit_waiters: HashMap<i64, Sender<SubmitReply>>,
    jobs: HashMap<u64, Sender<Event>>,
    misc: Option<Sender<Event>>,
    closed: bool,
}

/// Blocking daemon client; cheap to share behind an `Arc` across tenant
/// threads (each method takes `&self`).
pub struct Client {
    writer: Mutex<BufWriter<Sock>>,
    sock: Sock,
    demux: Arc<Mutex<Demux>>,
    misc_rx: Mutex<Receiver<Event>>,
    next_tag: AtomicI64,
    reader: Mutex<Option<JoinHandle<()>>>,
}

impl Client {
    /// Connect to `"tcp:host:port"` or `"uds:/path/to.sock"` (a bare
    /// `host:port` is treated as TCP).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let sock = if let Some(path) = addr.strip_prefix("uds:") {
            Sock::Uds(UnixStream::connect(path)?)
        } else {
            let target = addr.strip_prefix("tcp:").unwrap_or(addr);
            let stream = TcpStream::connect(target)?;
            // no Nagle: a request line must not wait for the daemon's
            // delayed ACK of the previous one
            stream.set_nodelay(true)?;
            Sock::Tcp(stream)
        };
        let reader_half = sock.try_clone()?;
        let writer_half = sock.try_clone()?;
        let demux = Arc::new(Mutex::new(Demux::default()));
        let (misc_tx, misc_rx) = channel();
        demux.lock().unwrap().misc = Some(misc_tx);
        let reader = {
            let demux = Arc::clone(&demux);
            std::thread::Builder::new()
                .name("vr-svc-client-read".into())
                .spawn(move || reader_loop(reader_half, &demux))?
        };
        Ok(Client {
            writer: Mutex::new(BufWriter::new(writer_half)),
            sock,
            demux,
            misc_rx: Mutex::new(misc_rx),
            next_tag: AtomicI64::new(1),
            reader: Mutex::new(Some(reader)),
        })
    }

    fn send(&self, req: &Request) -> std::io::Result<()> {
        let mut w = self.writer.lock().unwrap();
        w.write_all(req.to_json().compact().as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    }

    /// Submit a job and block until the daemon admits or rejects it.
    /// Admission is fast (a bounded-queue push); solving is not — use the
    /// returned handle to wait for completion.
    pub fn submit(&self, job: JobSpec) -> Result<JobHandle, Rejection> {
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = channel();
        self.demux
            .lock()
            .unwrap()
            .submit_waiters
            .insert(tag, reply_tx);
        if let Err(e) = self.send(&Request::Submit { tag, job }) {
            self.demux.lock().unwrap().submit_waiters.remove(&tag);
            return Err(Rejection {
                reason: "disconnected".into(),
                detail: e.to_string(),
            });
        }
        match reply_rx.recv() {
            Ok((Event::Accepted { job_id, .. }, Some(events))) => {
                Ok(JobHandle { id: job_id, events })
            }
            Ok((Event::Rejected { reason, detail, .. }, _)) => Err(Rejection { reason, detail }),
            Ok((other, _)) => Err(Rejection {
                reason: "protocol".into(),
                detail: format!("unexpected submit reply: {other:?}"),
            }),
            Err(_) => Err(Rejection {
                reason: "disconnected".into(),
                detail: "connection closed before the daemon replied".into(),
            }),
        }
    }

    /// Request cancellation of a queued or running job. The job still
    /// produces its terminal event (`termination = "cancelled"` unless it
    /// finished first).
    pub fn cancel(&self, job_id: u64) -> std::io::Result<()> {
        self.send(&Request::Cancel { job_id })
    }

    /// Fetch daemon statistics: `(queued, admitted, rejected, completed,
    /// width, live_width)`.
    pub fn stats(&self) -> std::io::Result<(usize, u64, u64, u64, usize, usize)> {
        self.send(&Request::Stats)?;
        let rx = self.misc_rx.lock().unwrap();
        loop {
            match rx.recv() {
                Ok(Event::Stats {
                    queued,
                    admitted,
                    rejected,
                    completed,
                    width,
                    live_width,
                }) => return Ok((queued, admitted, rejected, completed, width, live_width)),
                Ok(_) => continue,
                Err(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "connection closed awaiting stats",
                    ))
                }
            }
        }
    }

    /// Liveness probe; blocks until the daemon answers.
    pub fn ping(&self) -> std::io::Result<()> {
        self.send(&Request::Ping)?;
        let rx = self.misc_rx.lock().unwrap();
        loop {
            match rx.recv() {
                Ok(Event::Pong) => return Ok(()),
                Ok(_) => continue,
                Err(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionAborted,
                        "connection closed awaiting pong",
                    ))
                }
            }
        }
    }

    /// Ask the daemon to shut down (`drain = true` finishes queued work
    /// first; `false` cancels everything cooperatively).
    pub fn shutdown_daemon(&self, drain: bool) -> std::io::Result<()> {
        self.send(&Request::Shutdown { drain })
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.sock.shutdown();
        if let Some(h) = self.reader.lock().unwrap().take() {
            let _ = h.join();
        }
    }
}

/// One submitted job's event stream.
pub struct JobHandle {
    /// Daemon-assigned job id (use with [`Client::cancel`]).
    pub id: u64,
    events: Receiver<Event>,
}

impl JobHandle {
    /// Next event for this job (progress or terminal), or `None` if the
    /// connection closed first.
    pub fn next_event(&self) -> Option<Event> {
        self.events.recv().ok()
    }

    /// Block until the terminal event, collecting the convergence stream
    /// along the way. `None` if the connection closed without one.
    pub fn wait(self) -> Option<Completed> {
        let mut progress = Vec::new();
        loop {
            match self.events.recv().ok()? {
                Event::Progress { iter, residual, .. } => progress.push((iter, residual)),
                Event::Done {
                    termination,
                    converged,
                    iterations,
                    residuals,
                    solve_ms,
                    routing,
                    phase_shares,
                    ..
                } => {
                    return Some(Completed {
                        termination,
                        converged,
                        iterations,
                        residuals,
                        solve_ms,
                        routing,
                        phase_shares,
                        progress,
                    })
                }
                _ => continue,
            }
        }
    }
}

fn reader_loop(sock: Sock, demux: &Arc<Mutex<Demux>>) {
    let mut lines = BufReader::new(sock);
    let mut line = String::new();
    loop {
        line.clear();
        match lines.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Ok(doc) = vr_obs::json::parse(trimmed) else {
            continue;
        };
        let Ok(event) = Event::from_json(&doc) else {
            continue;
        };
        let mut g = demux.lock().unwrap();
        match &event {
            Event::Accepted { tag, .. } | Event::Rejected { tag, .. } => {
                if let Some(tx) = g.submit_waiters.remove(tag) {
                    // register an accepted job's channel before reading on:
                    // the job's own events follow its `accepted`
                    let job = match &event {
                        Event::Accepted { job_id, .. } => {
                            let (ev_tx, ev_rx) = channel();
                            g.jobs.insert(*job_id, ev_tx);
                            Some(ev_rx)
                        }
                        _ => None,
                    };
                    let _ = tx.send((event, job));
                } else if let Some(misc) = &g.misc {
                    // unsolicited rejection (e.g. malformed line, tag -1)
                    let _ = misc.send(event);
                }
            }
            Event::Progress { job_id, .. } | Event::Done { job_id, .. } => {
                let id = *job_id;
                let terminal = matches!(event, Event::Done { .. });
                if let Some(tx) = g.jobs.get(&id) {
                    let _ = tx.send(event);
                    if terminal {
                        g.jobs.remove(&id);
                    }
                }
            }
            Event::Stats { .. } | Event::Pong | Event::Error { .. } => {
                if let Some(misc) = &g.misc {
                    let _ = misc.send(event);
                }
            }
        }
    }
    // connection gone: wake every waiter by dropping their senders
    let mut g = demux.lock().unwrap();
    g.closed = true;
    g.submit_waiters.clear();
    g.jobs.clear();
    g.misc = None;
}
