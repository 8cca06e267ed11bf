//! The read path: [`ColReader`] parses a columnar file into raw blocks
//! (headers eagerly, bodies lazily) and serves predicate-filtered
//! selections, decoding only the blocks whose headers (time window,
//! kind, market and zone bitmaps, VM dictionary) survive pruning.
//!
//! A file is the magic `SPOTCOL2`, then one frame per block: the
//! payload's byte length (u32, little-endian) and the payload
//! ([`crate::block`]). Any other magic, the earlier per-VM-block
//! `SPOTCOL1` included, is [`ColError::BadMagic`].

use crate::block::{self, BlockMeta, Decoder};
use crate::query::Predicate;
use crate::store::MAGIC;
use crate::varint::Cursor;
use crate::ColError;
use spothost_market::time::SimTime;
use spothost_telemetry::TelemetryEvent;
use std::ops::Range;
use std::path::Path;

/// One decoded event with its stream tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredEvent {
    /// Fleet VM (spawn index) the event came from; `None` for untagged
    /// single-run streams.
    pub vm: Option<u32>,
    /// Emission time.
    pub at: SimTime,
    /// The event itself.
    pub event: TelemetryEvent,
}

/// A block's header and where its body (the payload after the header)
/// lies in the file.
struct RawBlock {
    meta: BlockMeta,
    body: Range<usize>,
}

/// The result of [`ColReader::select`]: matching events plus pruning
/// statistics, so callers (and tests) can see how much of the file the
/// predicate actually touched.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Events matching the predicate, in emission order across the
    /// whole store (so each VM's stream is in its own emission order).
    pub events: Vec<StoredEvent>,
    /// Total blocks in the file.
    pub blocks_total: usize,
    /// Blocks that survived header pruning and were decoded.
    pub blocks_decoded: usize,
}

/// A reader over one columnar store file.
pub struct ColReader {
    data: Vec<u8>,
    blocks: Vec<RawBlock>,
}

impl std::fmt::Debug for ColReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColReader")
            .field("blocks", &self.blocks.len())
            .field("events", &self.event_count())
            .finish()
    }
}

impl ColReader {
    /// Parse a columnar file from bytes. Headers are decoded up front
    /// (a few dozen bytes per block, plus the VM dictionary); block
    /// bodies stay raw until a predicate needs them.
    ///
    /// An empty input is a valid, empty store (a run that emitted no
    /// events writes no bytes).
    pub fn from_bytes(data: &[u8]) -> Result<Self, ColError> {
        ColReader::parse(data.to_vec())
    }

    /// Open and parse a `.col` file.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ColError> {
        ColReader::parse(std::fs::read(path)?)
    }

    /// Index the frames of `data`, which the reader keeps: bodies are
    /// decoded in place, not copied out per block.
    fn parse(data: Vec<u8>) -> Result<Self, ColError> {
        if data.is_empty() {
            return Ok(ColReader {
                data,
                blocks: Vec::new(),
            });
        }
        if data.len() < MAGIC.len() || &data[..MAGIC.len()] != MAGIC {
            return Err(ColError::BadMagic);
        }
        let mut pos = MAGIC.len();
        let mut blocks = Vec::new();
        while pos < data.len() {
            let rest = &data[pos..];
            if rest.len() < 4 {
                return Err(ColError::Truncated);
            }
            let mut len4 = [0u8; 4];
            len4.copy_from_slice(&rest[..4]);
            let len = u32::from_le_bytes(len4) as usize;
            if rest.len() - 4 < len {
                return Err(ColError::Truncated);
            }
            let end = pos + 4 + len;
            let mut c = Cursor::new(&data[pos + 4..end]);
            let meta = block::read_meta(&mut c)?;
            blocks.push(RawBlock {
                meta,
                body: end - c.remaining()..end,
            });
            pos = end;
        }
        Ok(ColReader { data, blocks })
    }

    /// Number of blocks in the file.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total events across all blocks (from headers; no decoding).
    pub fn event_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.meta.count as u64).sum()
    }

    /// Block headers, in file order (for `--stats`-style output).
    pub fn metas(&self) -> impl Iterator<Item = &BlockMeta> {
        self.blocks.iter().map(|b| &b.meta)
    }

    /// Distinct VM tags present, sorted, `None` first if present (the
    /// union of the blocks' VM dictionaries).
    pub fn vms(&self) -> Vec<Option<u32>> {
        let mut vms: Vec<Option<u32>> = self.metas().flat_map(|m| m.vms.iter().copied()).collect();
        vms.sort_unstable();
        vms.dedup();
        vms
    }

    /// Decode every block and return the full stream (no filtering).
    pub fn decode_all(&self) -> Result<Vec<StoredEvent>, ColError> {
        Ok(self.select(&Predicate::any())?.events)
    }

    /// Evaluate `pred`: prune blocks on their headers, decode survivors,
    /// then filter events. The returned [`Selection`] reports how many
    /// blocks were decoded vs. total — the pruning win.
    ///
    /// The output is reserved once for the blocks every event of which
    /// matches, and one block `Decoder` decodes every surviving block.
    pub fn select(&self, pred: &Predicate) -> Result<Selection, ColError> {
        let survivors = || self.blocks.iter().filter(|b| pred.matches_meta(&b.meta));
        let covered = survivors().filter(|b| pred.covers_meta(&b.meta));
        let mut events = Vec::with_capacity(covered.map(|b| b.meta.count).sum());
        let mut decoder = Decoder::default();
        let mut decoded = 0usize;
        for raw in survivors() {
            decoded += 1;
            let stream = decoder.decode(&raw.meta, &self.data[raw.body.clone()])?;
            if pred.covers_meta(&raw.meta) {
                events.extend(stream);
            } else {
                events.extend(stream.filter(|se| pred.matches_event(se)));
            }
        }
        Ok(Selection {
            events,
            blocks_total: self.blocks.len(),
            blocks_decoded: decoded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ColumnarStore;
    use crate::EventKind;
    use spothost_market::time::SimDuration;
    use spothost_market::types::{InstanceType, MarketId, Zone};
    use spothost_telemetry::Sink;

    fn quota(vm: u32, i: u64) -> (SimTime, TelemetryEvent) {
        (
            SimTime::millis(i * 60_000),
            TelemetryEvent::QuotaExhausted {
                market: MarketId::new(Zone::ALL[vm as usize], InstanceType::Large),
            },
        )
    }

    /// Two VMs of 20 events each, VM 0's sink dropped before VM 1's is
    /// made: the drop seals VM 0's partial block, so no block mixes them.
    fn write_two_vm_store() -> Vec<u8> {
        let store = ColumnarStore::in_memory().with_block_events(8);
        for vm in 0..2u32 {
            let mut sink = store.sink_for_vm(vm);
            for i in 0..20u64 {
                let (t, e) = quota(vm, i);
                sink.emit(t, e);
            }
        }
        store.bytes()
    }

    #[test]
    fn select_prunes_blocks_on_time_range() {
        let reader = ColReader::from_bytes(&write_two_vm_store()).unwrap();
        assert_eq!(reader.block_count(), 6); // 2 VMs × (2 full + 1 partial)

        // A range covering only the first block's window of each VM.
        let pred = Predicate::any().with_time_range(SimTime::ZERO, SimTime::millis(7 * 60_000));
        let sel = reader.select(&pred).unwrap();
        assert_eq!(sel.blocks_total, 6);
        assert!(sel.blocks_decoded < sel.blocks_total);
        assert_eq!(sel.events.len(), 16); // 8 per VM
    }

    #[test]
    fn select_prunes_blocks_on_zone_and_vm() {
        let reader = ColReader::from_bytes(&write_two_vm_store()).unwrap();
        let pred = Predicate::any().with_zone(Zone::ALL[1]);
        let sel = reader.select(&pred).unwrap();
        assert_eq!(sel.blocks_decoded, 3);
        assert_eq!(sel.events.len(), 20);
        assert!(sel.events.iter().all(|e| e.vm == Some(1)));

        let sel = reader.select(&Predicate::any().with_vm(0)).unwrap();
        assert_eq!(sel.blocks_decoded, 3);
        assert!(sel.events.iter().all(|e| e.vm == Some(0)));
    }

    #[test]
    fn interleaved_vms_share_blocks_and_demultiplex() {
        // Three live sinks emitting in turn: every block holds all three.
        let store = ColumnarStore::in_memory().with_block_events(8);
        {
            let mut sinks: Vec<_> = (0..3).map(|vm| store.sink_for_vm(vm)).collect();
            for i in 0..10u64 {
                for (vm, sink) in sinks.iter_mut().enumerate() {
                    let (t, e) = quota(vm as u32, i);
                    sink.emit(t, e);
                }
            }
        }
        let reader = ColReader::from_bytes(&store.bytes()).unwrap();
        assert_eq!(reader.block_count(), 4); // 30 events: 3 × 8 + 6
        assert!(reader.metas().all(|m| m.vms == [Some(0), Some(1), Some(2)]));
        assert_eq!(reader.vms(), vec![Some(0), Some(1), Some(2)]);
        let sel = reader.select(&Predicate::any().with_vm(1)).unwrap();
        assert_eq!(sel.blocks_decoded, 4);
        let want: Vec<_> = (0..10).map(|i| quota(1, i)).collect();
        let got: Vec<_> = sel.events.iter().map(|e| (e.at, e.event)).collect();
        assert_eq!(got, want);
        // A VM in no block's dictionary decodes nothing.
        let sel = reader.select(&Predicate::any().with_vm(3)).unwrap();
        assert_eq!((sel.blocks_decoded, sel.events.len()), (0, 0));
    }

    #[test]
    fn select_filters_events_within_blocks() {
        let store = ColumnarStore::in_memory();
        {
            let mut sink = store.sink();
            sink.emit(
                SimTime::millis(1),
                TelemetryEvent::MigrationPhase {
                    phase: spothost_telemetry::MigrationPhase::Prepare,
                    duration: SimDuration::millis(5),
                },
            );
            sink.emit(
                SimTime::millis(2),
                TelemetryEvent::StormStarted {
                    zone: Zone::UsEast1a,
                },
            );
        }
        let reader = ColReader::from_bytes(&store.bytes()).unwrap();
        let sel = reader
            .select(&Predicate::any().with_kind(EventKind::StormStarted))
            .unwrap();
        assert_eq!(sel.blocks_decoded, 1);
        assert_eq!(sel.events.len(), 1);
        assert_eq!(sel.events[0].event.kind(), EventKind::StormStarted);
    }

    #[test]
    fn bad_magic_and_truncation_error() {
        assert!(matches!(
            ColReader::from_bytes(b"NOTSPOT!rest"),
            Err(ColError::BadMagic)
        ));
        let bytes = write_two_vm_store();
        assert!(ColReader::from_bytes(&bytes[..bytes.len() - 2]).is_err());
        assert!(ColReader::from_bytes(&[]).unwrap().block_count() == 0);
    }

    #[test]
    fn version_one_files_are_bad_magic() {
        // The small fleet store as the per-VM-block format wrote it: it
        // is refused by type, not misread.
        let v1 = include_bytes!("../tests/fixtures/fleet_small_v1.col");
        assert_eq!(&v1[..8], b"SPOTCOL1");
        assert!(matches!(ColReader::from_bytes(v1), Err(ColError::BadMagic)));
    }
}
