//! The write path: a [`ColumnarStore`] owns the output stream (file or
//! memory) and one buffer of events shared by every [`ColumnarSink`] it
//! hands out, and seals that buffer into fleet-wide columnar blocks.
//!
//! Every sink appends `(vm, t, event)` to the store's one buffer, so a
//! block holds the events of every VM of a fleet in emission order, and
//! the VM tag is a per-event column ([`crate::block`]). The buffer
//! seals into a block when it reaches the store's events-per-block
//! threshold ([`DEFAULT_BLOCK_EVENTS`]), inside the `emit` that fills
//! it. When the last live sink drops, it seals the partial block, so
//! the bytes are complete as soon as a run returns;
//! [`ColumnarStore::finish`] seals whatever a still-live sink left.
//!
//! The store is single-threaded by design (the simulators step VMs
//! sequentially), so sinks share it through `Rc<RefCell<..>>` and need
//! no lock. The block `Encoder` and payload buffer are reused from block
//! to block. I/O errors are latched: emission never panics or returns
//! errors into the hot path; [`ColumnarStore::finish`] reports the first
//! failure at the end.

use crate::block::Encoder;
use crate::read::StoredEvent;
use spothost_market::time::SimTime;
use spothost_telemetry::{Sink, SinkFactory, TelemetryEvent};
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

/// File magic: first 8 bytes of every columnar store file. Version 2
/// holds fleet-wide blocks with a per-event VM column.
pub const MAGIC: &[u8; 8] = b"SPOTCOL2";

/// Default events buffered before a block is sealed.
///
/// 4096 events keeps blocks small enough that a time-range predicate
/// prunes usefully on day-scale runs, while amortising the per-block
/// header and dictionaries to well under a byte per event.
pub const DEFAULT_BLOCK_EVENTS: usize = 4096;

enum Output {
    Writer(Box<dyn Write>),
    Memory(Vec<u8>),
}

struct StoreInner {
    out: Output,
    wrote_magic: bool,
    blocks: u64,
    events: u64,
    io_error: Option<io::Error>,
    block_events: usize,
    /// Events emitted but not yet sealed, from every sink, in emission
    /// order.
    buf: Vec<StoredEvent>,
    /// Sinks alive; the last one to drop seals the partial block.
    live_sinks: usize,
    encoder: Encoder,
    /// The block being written, reused from block to block.
    payload: Vec<u8>,
}

impl StoreInner {
    /// Seal the buffered events into one block and append its frame (the
    /// magic first, if nothing was written yet) straight to the output.
    fn seal(&mut self) {
        if self.buf.is_empty() || self.io_error.is_some() {
            self.buf.clear();
            return;
        }
        self.payload.clear();
        self.encoder.seal(&self.buf, &mut self.payload);
        self.blocks += 1;
        self.events += self.buf.len() as u64;
        self.buf.clear();
        let magic: &[u8] = if self.wrote_magic { &[] } else { MAGIC };
        self.wrote_magic = true;
        let len = (self.payload.len() as u32).to_le_bytes();
        match &mut self.out {
            Output::Memory(buf) => {
                buf.extend_from_slice(magic);
                buf.extend_from_slice(&len);
                buf.extend_from_slice(&self.payload);
            }
            Output::Writer(w) => {
                let written = w
                    .write_all(magic)
                    .and_then(|()| w.write_all(&len))
                    .and_then(|()| w.write_all(&self.payload));
                if let Err(e) = written {
                    self.io_error = Some(e);
                }
            }
        }
    }
}

/// A columnar event store: the shared owner of one output stream and of
/// the buffer every sink appends to.
///
/// Create one per run (file-backed via [`ColumnarStore::create`], or
/// [`ColumnarStore::in_memory`] for tests), then obtain sinks with
/// [`ColumnarStore::sink`] / [`ColumnarStore::sink_for_vm`], or pass the
/// store itself as a [`SinkFactory`] to `fleet::sim`, which tags each
/// VM's events with its spawn index. Call [`ColumnarStore::finish`] at
/// the end to flush and surface any latched I/O error.
///
/// `Clone` produces another handle to the *same* store (it is
/// `Rc`-shared), so a caller can hand a clone to a simulator as the sink
/// factory and keep its own handle for [`ColumnarStore::finish`] /
/// [`ColumnarStore::bytes`] afterwards. A clone is not a sink: it never
/// holds back the seal of the last partial block.
#[derive(Clone)]
pub struct ColumnarStore {
    inner: Rc<RefCell<StoreInner>>,
}

impl std::fmt::Debug for ColumnarStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("ColumnarStore")
            .field("blocks", &inner.blocks)
            .field("events", &inner.events)
            .field("buffered", &inner.buf.len())
            .field("block_events", &inner.block_events)
            .finish()
    }
}

impl ColumnarStore {
    fn with_output(out: Output) -> Self {
        ColumnarStore {
            inner: Rc::new(RefCell::new(StoreInner {
                out,
                wrote_magic: false,
                blocks: 0,
                events: 0,
                io_error: None,
                block_events: DEFAULT_BLOCK_EVENTS,
                buf: Vec::new(),
                live_sinks: 0,
                encoder: Encoder::default(),
                payload: Vec::new(),
            })),
        }
    }

    /// A store that accumulates the encoded file in memory.
    pub fn in_memory() -> Self {
        ColumnarStore::with_output(Output::Memory(Vec::new()))
    }

    /// A store writing to an arbitrary `Write` impl.
    pub fn to_writer(w: Box<dyn Write>) -> Self {
        ColumnarStore::with_output(Output::Writer(w))
    }

    /// A store writing a `.col` file at `path` (buffered).
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let f = File::create(path)?;
        Ok(ColumnarStore::to_writer(Box::new(BufWriter::new(f))))
    }

    /// Override the events-per-block threshold (mainly for tests, where a
    /// small value forces multi-block files).
    pub fn with_block_events(self, n: usize) -> Self {
        self.inner.borrow_mut().block_events = n.max(1);
        self
    }

    /// A sink for an untagged (single-run) stream.
    pub fn sink(&self) -> ColumnarSink {
        self.tagged_sink(None)
    }

    /// A sink whose events are tagged with fleet VM index `vm`.
    pub fn sink_for_vm(&self, vm: u32) -> ColumnarSink {
        self.tagged_sink(Some(vm))
    }

    fn tagged_sink(&self, vm: Option<u32>) -> ColumnarSink {
        self.inner.borrow_mut().live_sinks += 1;
        ColumnarSink {
            inner: Rc::clone(&self.inner),
            vm,
        }
    }

    /// Blocks sealed so far.
    pub fn blocks_written(&self) -> u64 {
        self.inner.borrow().blocks
    }

    /// Events sealed so far (events still buffered while a sink is live
    /// are not counted until their block seals).
    pub fn events_written(&self) -> u64 {
        self.inner.borrow().events
    }

    /// Seal whatever is buffered, flush the output, and report the first
    /// latched I/O error, if any.
    ///
    /// Usually every sink has dropped by now (the last one sealed the
    /// partial block). Events a live sink emits later go into blocks
    /// this call does not flush.
    pub fn finish(&self) -> io::Result<()> {
        let mut inner = self.inner.borrow_mut();
        inner.seal();
        if let Some(e) = inner.io_error.take() {
            return Err(e);
        }
        match &mut inner.out {
            Output::Writer(w) => w.flush(),
            Output::Memory(_) => Ok(()),
        }
    }

    /// The encoded bytes of an in-memory store (empty for writer-backed
    /// stores). Clones; intended for tests and small runs.
    pub fn bytes(&self) -> Vec<u8> {
        match &self.inner.borrow().out {
            Output::Memory(buf) => buf.clone(),
            Output::Writer(_) => Vec::new(),
        }
    }
}

/// Handing the store to `FleetSim` tags each spawned VM's events with
/// its spawn index, so per-VM queries and Perfetto tracks survive the
/// merge into one file.
impl SinkFactory for ColumnarStore {
    type Sink = ColumnarSink;

    fn make(&mut self, idx: u32) -> ColumnarSink {
        self.sink_for_vm(idx)
    }
}

/// A telemetry [`Sink`]: a handle that appends its events, tagged with
/// its VM, to its parent [`ColumnarStore`]'s one buffer.
///
/// Dropping the last live sink seals the partial block, so simply
/// letting a `SimRun` (or every VM of a fleet) finish guarantees a
/// complete file.
pub struct ColumnarSink {
    inner: Rc<RefCell<StoreInner>>,
    vm: Option<u32>,
}

impl std::fmt::Debug for ColumnarSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarSink")
            .field("vm", &self.vm)
            .finish()
    }
}

impl Sink for ColumnarSink {
    const ENABLED: bool = true;

    fn emit(&mut self, at: SimTime, event: TelemetryEvent) {
        let mut inner = self.inner.borrow_mut();
        inner.buf.push(StoredEvent {
            vm: self.vm,
            at,
            event,
        });
        if inner.buf.len() >= inner.block_events {
            inner.seal();
        }
    }
}

impl Drop for ColumnarSink {
    fn drop(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.live_sinks -= 1;
        if inner.live_sinks == 0 {
            inner.seal();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::ColReader;
    use spothost_market::types::{InstanceType, MarketId, Zone};
    use spothost_telemetry::TimedEvent;

    fn ev(i: u64) -> TimedEvent {
        (
            SimTime::millis(i * 100),
            TelemetryEvent::QuotaExhausted {
                market: MarketId::new(Zone::UsEast1a, InstanceType::Small),
            },
        )
    }

    #[test]
    fn sinks_seal_on_capacity_and_on_drop() {
        let store = ColumnarStore::in_memory().with_block_events(4);
        {
            let mut sink = store.sink();
            for i in 0..10 {
                let (t, e) = ev(i);
                sink.emit(t, e);
            }
            assert_eq!(store.blocks_written(), 2); // 2 full blocks of 4
        }
        assert_eq!(store.blocks_written(), 3); // partial block of 2 on drop
        assert_eq!(store.events_written(), 10);
        store.finish().unwrap();

        let reader = ColReader::from_bytes(&store.bytes()).unwrap();
        assert_eq!(reader.block_count(), 3);
        assert_eq!(reader.event_count(), 10);
    }

    #[test]
    fn sinks_share_one_buffer_and_the_last_drop_seals() {
        let store = ColumnarStore::in_memory().with_block_events(4);
        let handle = store.clone();
        let (mut a, mut b) = (store.sink_for_vm(0), store.sink_for_vm(1));
        for i in 0..3 {
            let (t, e) = ev(i);
            a.emit(t, e);
            b.emit(t, e);
        }
        // The fourth event filled the shared buffer inside its emit.
        assert_eq!(store.blocks_written(), 1);
        drop(a);
        assert_eq!(store.blocks_written(), 1, "a sink is still live");
        drop(b);
        // Store handles are not sinks: the last sink's drop sealed.
        assert_eq!(handle.blocks_written(), 2);
        assert_eq!(handle.events_written(), 6);

        let reader = ColReader::from_bytes(&store.bytes()).unwrap();
        let tags: Vec<_> = reader.decode_all().unwrap().iter().map(|e| e.vm).collect();
        let want = [0, 1, 0, 1, 0, 1].map(Some);
        assert_eq!(tags, want);
        assert_eq!(reader.vms(), vec![Some(0), Some(1)]);
    }

    #[test]
    fn finish_seals_what_a_live_sink_left() {
        let store = ColumnarStore::in_memory();
        let mut sink = store.sink();
        let (t, e) = ev(0);
        sink.emit(t, e);
        assert_eq!(store.blocks_written(), 0);
        store.finish().unwrap();
        assert_eq!(store.blocks_written(), 1);
        drop(sink);
        assert_eq!(store.blocks_written(), 1, "nothing left to seal");
        assert_eq!(
            ColReader::from_bytes(&store.bytes()).unwrap().event_count(),
            1
        );
    }

    #[test]
    fn file_starts_with_magic() {
        let store = ColumnarStore::in_memory();
        {
            let mut sink = store.sink_for_vm(3);
            let (t, e) = ev(0);
            sink.emit(t, e);
        }
        let bytes = store.bytes();
        assert_eq!(&bytes[..8], MAGIC);
    }

    #[test]
    fn empty_store_yields_empty_file() {
        let store = ColumnarStore::in_memory();
        {
            let _sink = store.sink();
        }
        assert!(store.bytes().is_empty());
        assert_eq!(store.blocks_written(), 0);
    }
}
