//! # gk-serve
//!
//! Filter-as-a-service: a daemon that accepts read-pair filter requests
//! from many concurrent clients and coalesces them into large backend
//! invocations — the ROADMAP's millions-of-users direction, built entirely
//! on the existing execution substrates.
//!
//! * [`batcher`] — the dynamic batcher: size-or-timeout flush with an
//!   idle-flush fast path, per-tenant deficit-weighted fair queuing,
//!   bounded-queue backpressure (reject-with-retry-after, never OOM) and
//!   client-initiated cancellation of not-yet-batched work.
//! * [`server`] — [`server::GkServer`]: a localhost TCP listener speaking
//!   the length-prefixed binary frames of `gk_seq::frame`, one reader +
//!   writer thread per connection, everything funneled into one batcher.
//! * [`client`] — [`client::GkClient`]: a thread-safe pipelined client with
//!   blocking and non-blocking submission, cancellation and decoded
//!   [`client::Reply`] results.
//!
//! Execution goes through the [`gk_core::backend::FilterBackend`] registry
//! (`cpu-simd`, `gpu-sim` on one or more devices), so service decisions are
//! digest-identical to the offline harness paths — that equivalence is a
//! tested invariant (`tests/service_equivalence.rs`), not an aspiration.
//!
//! # Quickstart
//!
//! ```
//! use gk_core::backend::{CpuSimdBackend, FilterKind};
//! use gk_serve::batcher::BatcherConfig;
//! use gk_serve::client::{GkClient, Reply};
//! use gk_serve::server::GkServer;
//! use gk_seq::pairs::SequencePair;
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! // Daemon on an ephemeral localhost port.
//! let server = GkServer::start(
//!     "127.0.0.1:0",
//!     Arc::new(CpuSimdBackend::new(1)),
//!     BatcherConfig::default(),
//! )?;
//!
//! // One client, one two-pair GateKeeper request with e = 2.
//! let client = GkClient::connect(server.local_addr())?;
//! let pairs = vec![
//!     SequencePair::new(&b"ACGTACGT"[..], &b"ACGTACGT"[..]),
//!     SequencePair::new(&b"ACGTACGT"[..], &b"TGCATGCA"[..]),
//! ];
//! let reply = client.filter(
//!     FilterKind::GateKeeper,
//!     2,
//!     Duration::from_millis(50),
//!     pairs,
//! )?;
//! match reply {
//!     Reply::Decisions(decisions) => {
//!         assert!(decisions[0].accepted);
//!         assert!(!decisions[1].accepted);
//!     }
//!     other => panic!("unexpected reply {other:?}"),
//! }
//! server.shutdown();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod batcher;
pub mod client;
pub mod server;

pub use batcher::{Batcher, BatcherConfig, BatcherStats, Outcome, Request, SubmitError};
pub use client::{GkClient, PendingReply, Reply};
pub use server::GkServer;

#[cfg(test)]
mod tests {
    use crate::batcher::BatcherConfig;
    use crate::client::{GkClient, Reply};
    use crate::server::GkServer;
    use gk_core::backend::{CpuSimdBackend, FilterJob, FilterKind};
    use gk_core::FilterBackend;
    use gk_filters::traits::decision_digest;
    use gk_seq::datasets::DatasetProfile;
    use std::sync::Arc;
    use std::time::Duration;

    fn start_server(config: BatcherConfig) -> (GkServer, Arc<CpuSimdBackend>) {
        let backend = Arc::new(CpuSimdBackend::new(1));
        let server =
            GkServer::start("127.0.0.1:0", backend.clone(), config).expect("bind ephemeral port");
        (server, backend)
    }

    #[test]
    fn socket_round_trip_matches_direct_backend() {
        let (server, backend) = start_server(BatcherConfig::default());
        let client = GkClient::connect(server.local_addr()).expect("connect");
        let pairs = DatasetProfile::set3().generate(200, 3).pairs;
        let direct = backend.run(&FilterJob::new(FilterKind::Shouji, 3, &pairs));
        let reply = client
            .filter(FilterKind::Shouji, 3, Duration::from_millis(50), pairs)
            .expect("reply");
        match reply {
            Reply::Decisions(decisions) => {
                assert_eq!(decision_digest(&decisions), decision_digest(&direct));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn malformed_kind_yields_error_reply() {
        use gk_seq::frame::{read_frame, write_frame, Frame, RequestFrame, ResponseStatus};
        use std::io::{BufReader, BufWriter};
        use std::net::TcpStream;

        let (server, _backend) = start_server(BatcherConfig::default());
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
        write_frame(
            &mut writer,
            &Frame::Request(RequestFrame {
                id: 1,
                tenant: 0,
                kind: 200, // no such filter
                threshold: 2,
                deadline_micros: 1000,
                pairs: vec![],
            }),
        )
        .expect("write");
        let mut reader = BufReader::new(stream);
        let frame = read_frame(&mut reader).expect("read").expect("frame");
        match frame {
            Frame::Response(response) => {
                assert_eq!(response.status, ResponseStatus::Error);
                assert!(response.message.contains("unknown filter kind"));
            }
            other => panic!("unexpected frame {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_each_get_their_own_answers() {
        let (server, backend) = start_server(BatcherConfig::default());
        let addr = server.local_addr();
        let handles: Vec<_> = (0..4u64)
            .map(|seed| {
                let backend = backend.clone();
                std::thread::spawn(move || {
                    let client = GkClient::connect_as(addr, seed as u32).expect("connect");
                    for round in 0..3u64 {
                        let pairs = DatasetProfile::set3()
                            .generate(64, seed * 100 + round)
                            .pairs;
                        let direct =
                            backend.run(&FilterJob::new(FilterKind::GateKeeper, 2, &pairs));
                        let reply = client
                            .filter(FilterKind::GateKeeper, 2, Duration::from_millis(50), pairs)
                            .expect("reply");
                        match reply {
                            Reply::Decisions(decisions) => {
                                assert_eq!(decision_digest(&decisions), decision_digest(&direct));
                            }
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
        let stats = server.stats();
        assert_eq!(stats.admitted, 12);
        server.shutdown();
    }
}
