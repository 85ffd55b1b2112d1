//! Stream-level checks of [`PipelineClock`](crate::clock::PipelineClock):
//! each of a device's streams serializes its own work, a wait on another
//! stream only ever moves a cursor forward, and an ill-formed duration
//! asserts in debug builds and is clamped and counted in release builds.

mod tests {
    #[cfg(not(debug_assertions))]
    use crate::clock::tests::stages;
    use crate::clock::{Direction, PipelineClock};

    #[test]
    fn enqueue_accumulates_time_in_order() {
        let mut clock = PipelineClock::new();
        let mut serialized = 0.0;
        assert_eq!(clock.run(Direction::H2d, 0.5, &mut serialized), 0.5);
        assert_eq!(clock.cursor(Direction::H2d), 0.5);
        clock.run(Direction::H2d, 1.5, &mut serialized);
        assert_eq!(clock.cursor(Direction::H2d), 2.0);
        assert_eq!(clock.makespan(), 2.0);
        assert_eq!(serialized, 2.0);
        // The other transfer stream did not move.
        assert_eq!(clock.cursor(Direction::D2h), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "negative duration")]
    fn negative_durations_assert_in_debug_builds() {
        PipelineClock::new().run(Direction::H2d, -1.0, &mut 0.0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn negative_durations_are_clamped_and_counted_in_release_builds() {
        let mut clock = PipelineClock::new();
        let mut serialized = 0.0;
        clock.record(&stages(-2.0, f64::NAN, -1.0), &mut serialized);
        // The clamped stages contribute nothing to either accounting…
        assert_eq!(clock.makespan(), 0.0);
        assert_eq!(serialized, 0.0);
        // …and the clamps are observable.
        assert_eq!(clock.anomalies(), 3);
        clock.record(&stages(0.5, 0.0, 0.0), &mut serialized);
        assert_eq!(clock.anomalies(), 3);
        assert_eq!(clock.makespan(), 0.5);
        assert_eq!(serialized, 0.5);
    }

    #[test]
    fn healthy_streams_record_no_anomalies() {
        let mut clock = PipelineClock::new();
        let mut serialized = 0.0;
        clock.run(Direction::H2d, 0.1, &mut serialized);
        clock.run(Direction::H2d, 0.0, &mut serialized);
        assert_eq!(clock.anomalies(), 0);
    }

    #[test]
    fn wait_event_advances_the_cursor_across_streams() {
        let mut clock = PipelineClock::new();
        let mut serialized = 0.0;
        clock.run(Direction::H2d, 1.0, &mut serialized);
        let uploaded = clock.cursor(Direction::H2d);
        // The read-back stream has done less work, so the wait inserts an
        // idle gap.
        clock.run(Direction::D2h, 0.4, &mut serialized);
        clock.wait(Direction::D2h, uploaded);
        assert_eq!(clock.cursor(Direction::D2h), 1.0);
        clock.run(Direction::D2h, 0.5, &mut serialized);
        assert_eq!(clock.cursor(Direction::D2h), 1.5);
        // A wait on a moment already passed is a no-op.
        clock.wait(Direction::D2h, uploaded);
        assert_eq!(clock.cursor(Direction::D2h), 1.5);
        // The waited-on stream is untouched, and an idle gap is not work.
        assert_eq!(clock.cursor(Direction::H2d), 1.0);
        assert!((serialized - 1.9).abs() < 1e-12);
    }
}
