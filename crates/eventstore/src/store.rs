//! The write path: a [`ColumnarStore`] owns the output stream (file or
//! memory) and hands out per-VM [`ColumnarSink`]s that buffer events and
//! seal them into columnar blocks.
//!
//! The store is single-threaded by design — the simulators step VMs
//! sequentially — so sinks share the store through `Rc<RefCell<..>>`,
//! along with the store's sealing buffers: a fleet seals one small block
//! per VM, and reusing one block `Encoder` and payload buffer for all
//! of them keeps sealing free of per-block allocation.
//! I/O errors are latched (like `Recorder`): emission never panics or
//! returns errors into the hot path; [`ColumnarStore::finish`] reports
//! the first failure at the end.

use crate::block::Encoder;
use spothost_market::time::SimTime;
use spothost_telemetry::{Sink, SinkFactory, TelemetryEvent, TimedEvent};
use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

/// File magic: first 8 bytes of every columnar store file.
pub const MAGIC: &[u8; 8] = b"SPOTCOL1";

/// Default events buffered per sink before a block is sealed.
///
/// 4096 events keeps blocks small enough that a time-range predicate
/// prunes usefully on day-scale runs, while amortising the per-block
/// header and dictionary to well under a byte per event.
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
    encoder: Encoder,
    /// The block being written, reused from block to block.
    payload: Vec<u8>,
}

impl StoreInner {
    /// Seal `events` into one block and append its frame (the magic
    /// first, if nothing was written yet) straight to the output.
    fn write_block(&mut self, vm: Option<u32>, events: &[TimedEvent]) {
        if events.is_empty() || self.io_error.is_some() {
            return;
        }
        self.payload.clear();
        self.encoder.seal(vm, events, &mut self.payload);
        self.blocks += 1;
        self.events += events.len() as u64;
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

/// A columnar event store: the shared owner of one output stream.
///
/// Create one per run (file-backed via [`ColumnarStore::create`], or
/// [`ColumnarStore::in_memory`] for tests), then obtain sinks with
/// [`ColumnarStore::sink`] / [`ColumnarStore::sink_for_vm`] — or pass the
/// store itself as a [`SinkFactory`] to `fleet::sim`, which tags each
/// VM's stream with its spawn index. Call [`ColumnarStore::finish`] after
/// all sinks are dropped to flush and surface any latched I/O error.
///
/// `Clone` produces another handle to the *same* output stream (the store
/// is `Rc`-shared), so a caller can hand a clone to a simulator as the
/// sink factory and keep its own handle for [`ColumnarStore::finish`] /
/// [`ColumnarStore::bytes`] afterwards.
#[derive(Clone)]
pub struct ColumnarStore {
    inner: Rc<RefCell<StoreInner>>,
    block_events: usize,
}

impl std::fmt::Debug for ColumnarStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("ColumnarStore")
            .field("blocks", &inner.blocks)
            .field("events", &inner.events)
            .field("block_events", &self.block_events)
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
                encoder: Encoder::default(),
                payload: Vec::new(),
            })),
            block_events: DEFAULT_BLOCK_EVENTS,
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
    pub fn with_block_events(mut self, n: usize) -> Self {
        self.block_events = n.max(1);
        self
    }

    /// A sink for an untagged (single-run) stream.
    pub fn sink(&self) -> ColumnarSink {
        self.tagged_sink(None)
    }

    /// A sink whose blocks are tagged with fleet VM index `vm`.
    pub fn sink_for_vm(&self, vm: u32) -> ColumnarSink {
        self.tagged_sink(Some(vm))
    }

    fn tagged_sink(&self, vm: Option<u32>) -> ColumnarSink {
        ColumnarSink {
            inner: Rc::clone(&self.inner),
            vm,
            buf: Vec::new(),
            block_events: self.block_events,
        }
    }

    /// Blocks sealed so far.
    pub fn blocks_written(&self) -> u64 {
        self.inner.borrow().blocks
    }

    /// Events sealed so far (events still buffered in live sinks are not
    /// counted until their block seals).
    pub fn events_written(&self) -> u64 {
        self.inner.borrow().events
    }

    /// Flush the output and report the first latched I/O error, if any.
    ///
    /// Call after every sink has been dropped (sinks seal their partial
    /// block on drop); blocks sealed later are still appended but won't
    /// be flushed by this call.
    pub fn finish(&self) -> io::Result<()> {
        let mut inner = self.inner.borrow_mut();
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

/// Handing the store to `FleetSim` tags each spawned VM's stream with its
/// spawn index, so per-VM queries and Perfetto tracks survive the merge
/// into one file.
impl SinkFactory for ColumnarStore {
    type Sink = ColumnarSink;

    fn make(&mut self, idx: u32) -> ColumnarSink {
        self.sink_for_vm(idx)
    }
}

/// A telemetry [`Sink`] that buffers events and seals them into columnar
/// blocks in its parent [`ColumnarStore`].
///
/// The buffer grows with the events emitted, up to the store's
/// events-per-block threshold, so a fleet's many short-lived VMs each
/// hold only what they emitted.
///
/// Dropping the sink seals any partial block, so simply letting a
/// `SimRun` finish guarantees a complete file.
pub struct ColumnarSink {
    inner: Rc<RefCell<StoreInner>>,
    vm: Option<u32>,
    buf: Vec<TimedEvent>,
    block_events: usize,
}

impl std::fmt::Debug for ColumnarSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarSink")
            .field("vm", &self.vm)
            .field("buffered", &self.buf.len())
            .finish()
    }
}

impl ColumnarSink {
    fn seal(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.inner.borrow_mut().write_block(self.vm, &self.buf);
        self.buf.clear();
    }
}

impl Sink for ColumnarSink {
    const ENABLED: bool = true;

    fn emit(&mut self, at: SimTime, event: TelemetryEvent) {
        self.buf.push((at, event));
        if self.buf.len() >= self.block_events {
            self.seal();
        }
    }
}

impl Drop for ColumnarSink {
    fn drop(&mut self) {
        self.seal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::ColReader;
    use spothost_market::types::{InstanceType, MarketId, Zone};

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
