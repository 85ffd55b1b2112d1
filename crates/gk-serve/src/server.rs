//! The daemon side: a TCP listener on localhost speaking the
//! `gk_seq::frame` protocol, one reader + one writer thread per connection,
//! all requests funneled into one [`Batcher`].
//!
//! The server binds, accepts, and answers; policy (coalescing, fairness,
//! backpressure) lives entirely in the [`batcher`](crate::batcher). Start
//! one in-process for tests and benches — `"127.0.0.1:0"` picks a free
//! ephemeral port — or run the `gk-serve` binary as a standalone daemon.

use crate::batcher::{Batcher, BatcherConfig, Outcome, Request, SubmitError};
use gk_core::backend::{FilterBackend, FilterKind};
use gk_seq::frame::{
    decision_word, read_frame, write_frame, Frame, RequestFrame, ResponseFrame, ResponseStatus,
};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop naps when no connection is pending (the listener
/// is non-blocking so shutdown can interrupt it).
const ACCEPT_POLL: Duration = Duration::from_millis(2);

struct ServerShared {
    batcher: Batcher,
    stop: AtomicBool,
    next_ticket: AtomicU64,
    /// Connections whose thread may still run. The accept loop drops the
    /// finished ones, so a long-running daemon holds no descriptor or thread
    /// handle for a connection that has closed.
    connections: Mutex<Vec<Connection>>,
}

/// One accepted connection: a clone of its stream, which `stop()` shuts down
/// to unblock the reader, and the thread serving it.
struct Connection {
    stream: TcpStream,
    thread: JoinHandle<()>,
}

/// A running filter service.
///
/// See the [crate docs](crate) for an end-to-end client/server example.
pub struct GkServer {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl GkServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// serving requests through `backend` under `config`'s batching policy.
    pub fn start(
        addr: &str,
        backend: Arc<dyn FilterBackend>,
        config: BatcherConfig,
    ) -> io::Result<GkServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ServerShared {
            batcher: Batcher::start(config, backend),
            stop: AtomicBool::new(false),
            next_ticket: AtomicU64::new(1),
            connections: Mutex::new(Vec::new()),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("gk-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .ok();
        Ok(GkServer {
            local_addr,
            shared,
            accept_thread,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the batcher counters.
    pub fn stats(&self) -> crate::batcher::BatcherStats {
        self.shared.batcher.stats()
    }

    /// Stops accepting, closes live connections, drains the batcher and
    /// joins every worker thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let connections = match self.shared.connections.lock() {
            Ok(mut connections) => std::mem::take(&mut *connections),
            Err(_) => Vec::new(),
        };
        for connection in &connections {
            let _ = connection.stream.shutdown(std::net::Shutdown::Both);
        }
        for connection in connections {
            let _ = connection.thread.join();
        }
        // Batcher::drop drains outstanding work when `self.shared` releases;
        // nothing submits after the connections are gone.
    }
}

impl Drop for GkServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        if let Ok(mut connections) = shared.connections.lock() {
            connections.retain(|connection| !connection.thread.is_finished());
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                // Without a clone `stop()` could not close the connection,
                // so it is refused rather than served untracked.
                let Ok(clone) = stream.try_clone() else {
                    continue;
                };
                let conn_shared = shared.clone();
                let thread = std::thread::Builder::new()
                    .name("gk-serve-conn".to_string())
                    .spawn(move || connection_loop(stream, &conn_shared));
                if let (Ok(thread), Ok(mut connections)) = (thread, shared.connections.lock()) {
                    connections.push(Connection {
                        stream: clone,
                        thread,
                    });
                }
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn connection_loop(stream: TcpStream, shared: &Arc<ServerShared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (response_tx, response_rx) = mpsc::channel::<ResponseFrame>();
    let writer_thread = std::thread::Builder::new()
        .name("gk-serve-conn-writer".to_string())
        .spawn(move || {
            let mut writer = BufWriter::new(write_half);
            while let Ok(response) = response_rx.recv() {
                if write_frame(&mut writer, &Frame::Response(response)).is_err() {
                    return;
                }
            }
        });

    let mut reader = BufReader::new(stream);
    // request id (per connection) → batcher ticket, for cancellation.
    let mut tickets: HashMap<u64, u64> = HashMap::new();
    loop {
        match read_frame(&mut reader) {
            Ok(Some(Frame::Request(request))) => {
                handle_request(shared, &response_tx, &mut tickets, request);
            }
            Ok(Some(Frame::Cancel(cancel))) => {
                if let Some(ticket) = tickets.get(&cancel.id) {
                    shared.batcher.cancel(*ticket);
                }
            }
            // A client must not send response frames; drop the connection.
            Ok(Some(Frame::Response(_))) | Ok(None) | Err(_) => break,
        }
    }
    drop(response_tx); // Lets the writer finish flushing queued responses.
    if let Ok(handle) = writer_thread {
        let _ = handle.join();
    }
}

fn handle_request(
    shared: &Arc<ServerShared>,
    response_tx: &mpsc::Sender<ResponseFrame>,
    tickets: &mut HashMap<u64, u64>,
    request: RequestFrame,
) {
    let id = request.id;
    let Some(kind) = FilterKind::from_code(request.kind) else {
        let _ = response_tx.send(error_response(
            id,
            format!("unknown filter kind code {}", request.kind),
        ));
        return;
    };
    let ticket = shared.next_ticket.fetch_add(1, Ordering::Relaxed); // Relaxed: only uniqueness matters, no ordering with other memory.
    tickets.insert(id, ticket);
    let tx = response_tx.clone();
    let respond = Box::new(move |outcome: Outcome| {
        let response = match outcome {
            Outcome::Done(decisions) => ResponseFrame {
                id,
                status: ResponseStatus::Ok,
                retry_after_micros: 0,
                decisions: decisions
                    .iter()
                    .map(|d| decision_word(d.estimated_edits, d.accepted, d.undefined))
                    .collect(),
                message: String::new(),
            },
            Outcome::Cancelled => ResponseFrame {
                id,
                status: ResponseStatus::Cancelled,
                retry_after_micros: 0,
                decisions: Vec::new(),
                message: String::new(),
            },
        };
        let _ = tx.send(response);
    });
    let submit = shared.batcher.submit(
        ticket,
        Request {
            tenant: request.tenant,
            kind,
            threshold: request.threshold,
            deadline: Duration::from_micros(request.deadline_micros.max(1)),
            pairs: request.pairs,
        },
        respond,
    );
    match submit {
        Ok(()) => {}
        Err(SubmitError::QueueFull { retry_after }) => {
            let _ = response_tx.send(ResponseFrame {
                id,
                status: ResponseStatus::Rejected,
                retry_after_micros: retry_after.as_micros() as u64,
                decisions: Vec::new(),
                message: String::new(),
            });
        }
        Err(SubmitError::Closed) => {
            let _ = response_tx.send(error_response(id, "server shutting down".to_string()));
        }
    }
}

fn error_response(id: u64, message: String) -> ResponseFrame {
    ResponseFrame {
        id,
        status: ResponseStatus::Error,
        retry_after_micros: 0,
        decisions: Vec::new(),
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{GkClient, Reply};
    use gk_core::backend::CpuSimdBackend;
    use gk_seq::pairs::SequencePair;
    use std::time::Instant;

    #[test]
    fn closed_connections_leave_the_connection_list() {
        let server = GkServer::start(
            "127.0.0.1:0",
            Arc::new(CpuSimdBackend::new(1)),
            BatcherConfig::default(),
        )
        .expect("server starts");
        for _ in 0..200 {
            drop(TcpStream::connect(server.local_addr()).expect("connect"));
        }
        // Connections are accepted in order, so once this client's request is
        // answered all 200 closed connections have been accepted too.
        let client = GkClient::connect(server.local_addr()).expect("connect");
        let reply = client
            .filter(
                FilterKind::GateKeeper,
                2,
                Duration::from_millis(1),
                vec![SequencePair::new(&b"ACGTACGT"[..], &b"ACGTACGT"[..])],
            )
            .expect("reply");
        assert!(matches!(reply, Reply::Decisions(_)), "{reply:?}");

        // Only the client's connection stays once the closed ones' threads
        // finish.
        let tracked = || server.shared.connections.lock().map_or(0, |c| c.len());
        let deadline = Instant::now() + Duration::from_secs(10);
        while tracked() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(tracked(), 1);
        server.shutdown();
    }
}
