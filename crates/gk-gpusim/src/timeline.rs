//! Whole-timeline scenarios: how [`PipelineClock`](crate::clock::PipelineClock)
//! overlaps a device's streams across chunks, and how
//! [`simulate_contended`](crate::topology::simulate_contended) arbitrates the
//! transfers of several devices on shared links.

mod tests {
    use crate::clock::tests::stages;
    use crate::clock::{Direction, PipelineClock};
    use crate::device::DeviceSpec;
    use crate::topology::{simulate_contended, ChunkLoad, LinkSpec, Topology, TopologyKind};

    /// One 1 GB/s link shared by two devices.
    fn shared_gigabyte_link() -> Topology {
        Topology::custom(
            "root",
            vec![LinkSpec {
                name: "root".to_string(),
                bandwidth_gb_per_s: 1.0,
            }],
            vec![0, 0],
        )
    }

    /// A chunk that only uploads `bytes` after `host_seconds` of host prep.
    fn upload_only(host_seconds: f64, bytes: u64) -> ChunkLoad {
        ChunkLoad {
            host_seconds,
            h2d_bytes: [bytes, 0],
            kernel_seconds: 0.0,
            d2h_bytes: 0,
        }
    }

    #[test]
    fn independent_streams_overlap_fully() {
        let mut clock = PipelineClock::new();
        let mut serialized = 0.0;
        clock.run(Direction::H2d, 1.0, &mut serialized);
        clock.run(Direction::D2h, 0.7, &mut serialized);
        assert_eq!(clock.makespan(), 1.0);
        assert!((serialized - 1.7).abs() < 1e-12);
        assert!((serialized - clock.makespan() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cross_stream_dependencies_serialize_the_chain() {
        // H2D -> kernel -> D2H for one chunk: no overlap is possible, so the
        // makespan equals the serialized sum.
        let mut clock = PipelineClock::new();
        let mut serialized = 0.0;
        clock.record(&stages(0.3, 0.5, 0.2), &mut serialized);
        assert!((clock.makespan() - 1.0).abs() < 1e-12);
        assert!((serialized - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pipelined_batches_beat_the_serialized_sum() {
        // Two chunks, three stages each: stage i of chunk 1 overlaps stage
        // i + 1 of chunk 0, the classic software-pipeline diagram.
        let mut clock = PipelineClock::new();
        let mut serialized = 0.0;
        for _ in 0..2 {
            clock.record(&stages(0.3, 0.5, 0.2), &mut serialized);
        }
        // Serialized: 2.0 s. Overlapped: 0.3 + 0.5 + 0.5 + 0.2 = 1.5 s.
        assert!((serialized - 2.0).abs() < 1e-12);
        assert!((clock.makespan() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn uncontended_transfer_matches_plain_enqueue_exactly() {
        // One device on its own link: the replayed upload must be
        // bit-identical to running `PcieLink::transfer_seconds(bytes)` on
        // the H2D stream, the contention-off equivalence the topology model
        // relies on.
        let devices = [DeviceSpec::gtx_1080_ti()];
        let bytes = 3_145_728u64;
        let topology = Topology::build(TopologyKind::Independent, &devices);
        let run = simulate_contended(&topology, &[vec![upload_only(0.0, bytes)]]);
        let mut plain = PipelineClock::new();
        let mut serialized = 0.0;
        plain.run(
            Direction::H2d,
            devices[0].pcie.transfer_seconds(bytes),
            &mut serialized,
        );
        assert_eq!(run.per_device_finish_seconds[0], plain.makespan());
        assert_eq!(run.makespan_seconds, plain.makespan());
        assert_eq!(run.serialized_seconds, serialized);
        assert_eq!(run.link_wait_seconds(), 0.0);
        assert_eq!(run.links[0].wait_seconds, 0.0);
        assert_eq!(run.links[0].h2d_bytes, bytes);
    }

    #[test]
    fn concurrent_transfers_on_a_shared_link_serialize() {
        // Two devices, each wanting 1 GB at 1 GB/s at time zero: on the
        // shared link the second stalls behind the first and finishes at 2 s.
        let gb = 1_000_000_000u64;
        let loads = vec![vec![upload_only(0.0, gb)]; 2];
        let run = simulate_contended(&shared_gigabyte_link(), &loads);
        assert_eq!(run.per_device_finish_seconds, vec![1.0, 2.0]);
        assert_eq!(run.makespan_seconds, 2.0);
        assert_eq!(run.per_device_link_wait_seconds, vec![0.0, 1.0]);
        let link = &run.links[0];
        assert_eq!(link.busy_seconds, 2.0);
        assert_eq!(link.wait_seconds, 1.0);
        assert_eq!(link.h2d_bytes, 2 * gb);
        assert_eq!(link.devices, 2);
        // The link never idled over the makespan.
        assert_eq!(link.utilization, 1.0);
    }

    #[test]
    fn separate_links_do_not_interfere() {
        // The same two transfers on private links finish together at 1 s.
        let gb = 1_000_000_000u64;
        let loads = vec![vec![upload_only(0.0, gb)]; 2];
        let run = simulate_contended(&shared_gigabyte_link().to_independent(), &loads);
        assert_eq!(run.per_device_finish_seconds, vec![1.0, 1.0]);
        assert_eq!(run.makespan_seconds, 1.0);
        assert_eq!(run.links.len(), 2);
        assert_eq!(run.links[0].wait_seconds, 0.0);
        assert_eq!(run.links[1].wait_seconds, 0.0);
    }

    #[test]
    fn link_frees_up_between_staggered_transfers() {
        // The second upload arrives after the first completed: no stall.
        let loads = vec![
            vec![upload_only(0.0, 500_000_000)],
            vec![upload_only(0.8, 500_000_000)],
        ];
        let run = simulate_contended(&shared_gigabyte_link(), &loads);
        assert!((run.per_device_finish_seconds[1] - 1.3).abs() < 1e-12);
        assert_eq!(run.link_wait_seconds(), 0.0);
        assert_eq!(run.links[0].wait_seconds, 0.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_links_panic() {
        // `PcieLink` has public fields, so a zero-lane device builds a
        // zero-bandwidth link that only the replay rejects.
        let mut device = DeviceSpec::gtx_1080_ti();
        device.pcie.lanes = 0;
        let topology = Topology::build(TopologyKind::Independent, &[device]);
        simulate_contended(&topology, &[Vec::new()]);
    }

    #[test]
    fn empty_timeline_has_zero_makespan() {
        let clock = PipelineClock::new();
        assert_eq!(clock.makespan(), 0.0);
        assert_eq!(clock.anomalies(), 0);
        assert_eq!(clock.upload_ready(), Some(0.0));
        assert_eq!(clock.drain_ready(), None);
    }

    #[test]
    fn healthy_timelines_report_zero_anomalies() {
        let loads = vec![vec![upload_only(1.0, 0)], vec![upload_only(0.0, 1_000)]];
        let run = simulate_contended(&shared_gigabyte_link(), &loads);
        assert_eq!(run.anomalies, 0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_clamps_surface_as_timeline_anomalies() {
        let mut load = upload_only(0.0, 0);
        load.kernel_seconds = -1.0;
        let run = simulate_contended(&shared_gigabyte_link(), &[vec![load], vec![load]]);
        assert_eq!(run.anomalies, 2);
        // The clamped kernels contribute nothing to either accounting.
        assert_eq!(run.makespan_seconds, 0.0);
        assert_eq!(run.serialized_seconds, 0.0);
    }
}
