//! `repro --trace` records each representative run once, into a columnar
//! store, writes the store as `.col` and decodes it to JSONL. This test
//! pins the store to the run it records: decoded, it must equal a
//! `Recorder`'s stream of the same run event for event, with nothing
//! dropped.

use spothost_bench::experiments;
use spothost_bench::ExpSettings;
use spothost_core::telemetry::Recorder;
use spothost_eventstore::{ColReader, StoredEvent};

fn store_equals_recorder(name: &str) {
    let settings = ExpSettings::quick();
    let store = experiments::representative_recording(name, &settings)
        .unwrap_or_else(|| panic!("{name} has no representative recording"));
    let decoded = ColReader::from_bytes(&store.bytes())
        .and_then(|r| r.decode_all())
        .expect("decode the recording");

    let mut rec = Recorder::with_capacity(1 << 20);
    experiments::run_representative(name, &settings, &mut rec).expect("a recorded experiment");
    assert_eq!(rec.dropped(), 0, "{name}: the recorder overflowed");
    assert!(!rec.is_empty(), "{name}: empty recording");
    let recorded: Vec<StoredEvent> = rec
        .into_events()
        .into_iter()
        .map(|(at, event)| StoredEvent {
            vm: None,
            at,
            event,
        })
        .collect();
    assert_eq!(
        decoded, recorded,
        "{name}: the store and the recorder diverge"
    );
}

#[test]
fn jobs_recording_equals_the_recorder_stream() {
    store_equals_recorder("jobs");
}

#[test]
fn scheduler_recording_equals_the_recorder_stream() {
    store_equals_recorder("fig6");
}
