//! Sealed-block encoding: a run of [`StoredEvent`]s (the events of
//! every VM of a fleet, in emission order) becomes one self-contained
//! binary block of per-kind struct-of-arrays columns.
//!
//! Layout of one block payload (everything varint/LEB128 unless noted):
//!
//! ```text
//! header   count · min_t · max_t-min_t
//!          kind bitmap (u32) · market bitmap (u16) · zone bitmap (u8)
//!          n_vms · VM dictionary: the block's stream tags ascending
//!                  (tag = vm+1, 0 = untagged), the first as is and
//!                  each later one as its gap from the one before
//! dict     n_ids · instance id × n_ids            (first-use order)
//! vms      count zigzag deltas, one per event in stream order: the
//!          event's VM-dictionary index minus the previous event's
//!          (absent when the dictionary has one entry: a single run)
//! kinds    count raw bytes, one kind index per event in stream order
//! columns  for each kind present, ascending index:
//!            column byte length · column payload
//! ```
//!
//! The VM dictionary sits in the header so that pruning can test exact
//! VM membership without touching the columns. A range would not prune:
//! a fleet's floor VMs live the whole run, so every block's smallest VM
//! is VM 0. The VM column is delta-coded because the fleet steps its VMs
//! in spawn order, so consecutive events mostly share a VM or move to
//! the next one: one byte each.
//!
//! A column payload is field-major (struct-of-arrays): first the kind's
//! timestamps as zigzag deltas chained from `min_t`, then each field of
//! the kind's `TelemetryEvent` variant, in declaration order, as its own
//! array. A field is stored by its type alone:
//!
//! - an instance id as a varint ref into the block's dictionary;
//! - a market, a zone, a `bool` or a closed enum as one byte, its code
//!   in `schema`;
//! - an in-variant `SimTime` as a zigzag delta *from the emission
//!   instant*;
//! - a `SimDuration` or a `u32` as a varint;
//! - an `f64` as its raw little-endian bits (bit-exact, NaN included);
//! - an `Option<f64>` as one presence byte per row, then the bits of the
//!   present values.
//!
//! That rule is the code: one codec per field type (the `Codec` trait)
//! and one declaration, the `columns!` table below the codecs, that
//! lists each kind's fields once and generates both the encoder and the
//! decoder of every column. `tests/fixtures/all_kinds.col` pins the
//! bytes of every kind.
//!
//! The fleet steps each VM to a control tick in turn, so the fleet-wide
//! stream steps back in time by up to one control interval when it
//! moves to the next VM; a zigzag delta keeps such a step as short as a
//! forward one.
//!
//! Decode reverses every step: per-kind columns are rebuilt into typed
//! events, then the kinds stream re-interleaves them (and the VM column
//! tags them) into the original stream order. `decode` ∘ `seal` is the
//! identity on any event stream (proptest-guarded in
//! `tests/columnar_properties.rs`), with f64 fields compared by
//! `to_bits`.
//!
//! Both directions keep their working buffers across blocks: an
//! `Encoder` (owned by the store) and a `Decoder` (one per selection)
//! allocate only while their buffers grow to the largest block seen.
//! [`seal`] and [`decode`] are one-block wrappers over them.

use crate::read::StoredEvent;
use crate::schema::{instance_of, market_code, markets_of, zone_code, zones_of, ByteCode};
use crate::varint::{write_f64_bits, write_i64, write_u64, Cursor};
use crate::{ColError, EventKind};
use spothost_cloudsim::{InstanceId, TerminationReason};
use spothost_faults::FaultKind;
use spothost_market::time::{SimDuration, SimTime};
use spothost_market::types::{MarketId, Zone};
use spothost_telemetry::{
    DenialReason, MigrationPhase, SchedulerState, TelemetryEvent, TimedEvent,
};
use spothost_virt::MigrationKind;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Number of event kinds: the size of every per-kind table.
const KINDS: usize = EventKind::ALL.len();

/// Parsed block header: everything predicate pruning needs, decodable
/// without touching the dictionary or columns. Only the reader builds
/// one, so its VM dictionary is always ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockMeta {
    /// The block's VM dictionary, ascending; see [`BlockMeta::vms`].
    pub(crate) vms: Vec<Option<u32>>,
    /// Events in the block.
    pub count: usize,
    /// Smallest emission timestamp in the block, ms.
    pub min_t_ms: u64,
    /// Largest emission timestamp in the block, ms.
    pub max_t_ms: u64,
    /// Bit `EventKind::index()` set iff the block holds that kind.
    pub kinds: u32,
    /// Bit `MarketId::dense_index()` set iff some event references it.
    pub markets: u16,
    /// Bit `Zone::index()` set iff some event touches the zone.
    pub zones: u8,
}

impl BlockMeta {
    /// The block's VM dictionary: every stream tag its events carry, a
    /// fleet VM's spawn index or `None` for an untagged single-run
    /// stream, ascending (`None` first).
    pub fn vms(&self) -> &[Option<u32>] {
        &self.vms
    }

    /// Does some event of the block carry stream tag `vm`?
    pub fn holds_vm(&self, vm: Option<u32>) -> bool {
        self.vms.binary_search(&vm).is_ok()
    }
}

/// A stream tag as the VM dictionary stores it: 0 for untagged, else
/// the VM's spawn index plus one.
fn vm_tag(vm: Option<u32>) -> u64 {
    vm.map_or(0, |v| u64::from(v) + 1)
}

/// Encode `events` (in emission order) into a block payload. Empty
/// input yields an empty payload (callers skip it).
pub fn seal(events: &[StoredEvent]) -> Vec<u8> {
    let mut buf = Vec::new();
    Encoder::default().seal(events, &mut buf);
    buf
}

/// Sealing buffers kept from block to block: the VM and instance-id
/// dictionaries, each event's instance-id ref, each kind's rows and the
/// column buffer.
#[derive(Debug, Default)]
pub(crate) struct Encoder {
    /// The block's distinct VM tags, ascending.
    vm_tags: Vec<u64>,
    /// Each VM tag's index in `vm_tags`.
    vm_slots: IdMap,
    dict_ids: Vec<u64>,
    dict_refs: IdMap,
    /// Dictionary ref of event `i`'s instance id (0 if it has none).
    refs: Vec<u32>,
    /// Indices of each kind's events, in stream order.
    by_kind: [Vec<usize>; KINDS],
    col: Vec<u8>,
}

/// A map from VM tag or instance id to its dictionary index.
type IdMap = HashMap<u64, u32, BuildHasherDefault<IdHasher>>;

/// Multiplicative hashing for the dictionaries: their keys come from the
/// simulator, not from outside input, so SipHash's resistance to
/// crafted collisions buys nothing here, and it costs sealing several
/// nanoseconds per event.
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Encoder {
    /// Append the block payload of `events` to `buf` (nothing for empty
    /// input). One pass over the events builds the header bitmaps, the
    /// VM tags, the instance-id dictionary and the per-kind rows; each
    /// column is then written from its rows.
    pub(crate) fn seal(&mut self, events: &[StoredEvent], buf: &mut Vec<u8>) {
        if events.is_empty() {
            return;
        }
        self.vm_tags.clear();
        self.dict_ids.clear();
        self.dict_refs.clear();
        self.refs.clear();
        for rows in &mut self.by_kind {
            rows.clear();
        }
        let mut min_t = u64::MAX;
        let mut max_t = 0u64;
        let mut kinds_bm = 0u32;
        let mut markets_bm = 0u16;
        let mut zones_bm = 0u8;
        let mut vm = None;
        for (i, se) in events.iter().enumerate() {
            let (t, ev) = (se.at.as_millis(), &se.event);
            min_t = min_t.min(t);
            max_t = max_t.max(t);
            // A VM emits a few events in a row: collect its tag once.
            if i == 0 || se.vm != vm {
                vm = se.vm;
                self.vm_tags.push(vm_tag(vm));
            }
            let kind = ev.kind().index();
            kinds_bm |= 1 << kind;
            self.by_kind[kind].push(i);
            let (m1, m2) = markets_of(ev);
            for m in [m1, m2].into_iter().flatten() {
                markets_bm |= 1 << market_code(m);
            }
            let (z1, z2) = zones_of(ev);
            for z in [z1, z2].into_iter().flatten() {
                zones_bm |= 1 << zone_code(z);
            }
            let dref = match instance_of(ev) {
                Some(id) => *self.dict_refs.entry(id.0).or_insert_with(|| {
                    self.dict_ids.push(id.0);
                    (self.dict_ids.len() - 1) as u32
                }),
                None => 0,
            };
            self.refs.push(dref);
        }
        // The fleet steps its VMs in spawn order, so the tags come in
        // ascending stretches, which the stable sort merges.
        self.vm_tags.sort();
        self.vm_tags.dedup();
        self.vm_slots.clear();
        for (slot, &tag) in self.vm_tags.iter().enumerate() {
            self.vm_slots.insert(tag, slot as u32);
        }

        buf.reserve(events.len() * 8);
        // Header.
        write_u64(buf, events.len() as u64);
        write_u64(buf, min_t);
        write_u64(buf, max_t - min_t);
        write_u64(buf, u64::from(kinds_bm));
        write_u64(buf, u64::from(markets_bm));
        write_u64(buf, u64::from(zones_bm));
        write_u64(buf, self.vm_tags.len() as u64);
        let mut prev = 0;
        for &tag in &self.vm_tags {
            write_u64(buf, tag - prev);
            prev = tag;
        }
        // Instance-id dictionary, first-use order.
        write_u64(buf, self.dict_ids.len() as u64);
        for id in &self.dict_ids {
            write_u64(buf, *id);
        }
        // VM column: each event's dictionary index, delta-coded, looked
        // up once per run of one VM's events. A single run needs no
        // column.
        if self.vm_tags.len() > 1 {
            let (mut slot, mut prev) = (0, 0);
            for (i, se) in events.iter().enumerate() {
                if i == 0 || se.vm != events[i - 1].vm {
                    slot = i64::from(self.vm_slots[&vm_tag(se.vm)]);
                }
                write_i64(buf, slot - prev);
                prev = slot;
            }
        }
        // Kind stream.
        buf.extend(events.iter().map(|se| se.event.kind().index() as u8));
        // Per-kind columns.
        for kind in EventKind::ALL {
            let rows = &self.by_kind[kind.index()];
            if rows.is_empty() {
                continue;
            }
            self.col.clear();
            encode_column(&mut self.col, kind, events, rows, &self.refs, min_t);
            write_u64(buf, self.col.len() as u64);
            buf.extend_from_slice(&self.col);
        }
    }
}

/// Parse a block's header (for pruning), leaving `c` at its body.
pub(crate) fn read_meta(c: &mut Cursor<'_>) -> Result<BlockMeta, ColError> {
    let count = usize::try_from(c.u64()?).map_err(|_| ColError::Corrupt("count overflow"))?;
    // The kind stream alone is `count` raw bytes, so a count exceeding
    // the payload is corrupt. Checking it on the header bounds every
    // buffer sized from header counts by the input size.
    if count > c.remaining() {
        return Err(ColError::Corrupt("count exceeds payload size"));
    }
    let min_t_ms = c.u64()?;
    let span = c.u64()?;
    let max_t_ms = min_t_ms
        .checked_add(span)
        .ok_or(ColError::Corrupt("time span overflow"))?;
    let kinds = u32::try_from(c.u64()?).map_err(|_| ColError::Corrupt("kind bitmap overflow"))?;
    if kinds >> KINDS != 0 {
        return Err(ColError::Corrupt("kind bitmap has unknown bits"));
    }
    let markets =
        u16::try_from(c.u64()?).map_err(|_| ColError::Corrupt("market bitmap overflow"))?;
    let zones = u8::try_from(c.u64()?).map_err(|_| ColError::Corrupt("zone bitmap overflow"))?;
    let n_vms = usize::try_from(c.u64()?).map_err(|_| ColError::Corrupt("VM dict overflow"))?;
    if n_vms > count {
        return Err(ColError::Corrupt("VM dict larger than block"));
    }
    let mut vms = Vec::with_capacity(n_vms);
    let mut tag = 0u64;
    for i in 0..n_vms {
        let gap = c.u64()?;
        if i > 0 && gap == 0 {
            return Err(ColError::Corrupt("VM dict not ascending"));
        }
        tag = tag
            .checked_add(gap)
            .ok_or(ColError::Corrupt("VM tag overflow"))?;
        vms.push(match tag {
            0 => None,
            t => Some(u32::try_from(t - 1).map_err(|_| ColError::Corrupt("VM tag overflows u32"))?),
        });
    }
    Ok(BlockMeta {
        vms,
        count,
        min_t_ms,
        max_t_ms,
        kinds,
        markets,
        zones,
    })
}

/// Decode a full block payload back into its header and event stream.
pub fn decode(payload: &[u8]) -> Result<(BlockMeta, Vec<StoredEvent>), ColError> {
    let mut c = Cursor::new(payload);
    let meta = read_meta(&mut c)?;
    let body = &payload[payload.len() - c.remaining()..];
    let events = Decoder::default().decode(&meta, body)?.collect();
    Ok((meta, events))
}

/// The block decoder. Its dictionary, VM, timestamp, numeric-field and
/// per-kind row buffers are kept from block to block, and byte columns
/// are read in place from the payload.
#[derive(Debug, Default)]
pub(crate) struct Decoder {
    dict: Vec<u64>,
    /// Each event's stream tag, in stream order.
    vms: Vec<Option<u32>>,
    ts: Vec<u64>,
    /// The current column's varint, time and `f64` fields, one run of
    /// values per field (see `Codec::Run`).
    nums: Vec<u64>,
    /// Each present kind's decoded events, in stream order.
    rows: [Vec<TimedEvent>; KINDS],
}

impl Decoder {
    /// Decode the `body` of a block (its payload after the header
    /// `meta`) into its events in stream order. The whole body is
    /// validated before the first event is handed out.
    pub(crate) fn decode<'a>(
        &'a mut self,
        meta: &BlockMeta,
        body: &'a [u8],
    ) -> Result<BlockEvents<'a>, ColError> {
        let mut c = Cursor::new(body);
        // Dictionary.
        let n_ids = usize::try_from(c.u64()?).map_err(|_| ColError::Corrupt("dict overflow"))?;
        if n_ids > meta.count {
            return Err(ColError::Corrupt("dict larger than block"));
        }
        self.dict.clear();
        for _ in 0..n_ids {
            self.dict.push(c.u64()?);
        }
        // VM column.
        self.vms.clear();
        if let [vm] = meta.vms[..] {
            self.vms.resize(meta.count, vm);
        } else {
            let mut at = 0i64;
            for _ in 0..meta.count {
                at = at.wrapping_add(c.i64()?);
                let vm = usize::try_from(at)
                    .ok()
                    .and_then(|i| meta.vms.get(i))
                    .ok_or(ColError::Corrupt("VM ref out of range"))?;
                self.vms.push(*vm);
            }
        }
        // Kind stream.
        let kinds = c.bytes(meta.count)?;
        let mut counts = [0usize; KINDS];
        for &b in kinds {
            let k = EventKind::from_index(usize::from(b))
                .ok_or(ColError::Corrupt("kind stream has unknown kind"))?;
            if meta.kinds & (1 << k.index()) == 0 {
                return Err(ColError::Corrupt("kind stream disagrees with bitmap"));
            }
            counts[k.index()] += 1;
        }
        // Columns, per present kind.
        for kind in EventKind::ALL {
            if meta.kinds & (1 << kind.index()) == 0 {
                continue;
            }
            let n = counts[kind.index()];
            if n == 0 {
                return Err(ColError::Corrupt("bitmap kind missing from stream"));
            }
            let len =
                usize::try_from(c.u64()?).map_err(|_| ColError::Corrupt("column overflow"))?;
            let mut cc = Cursor::new(c.bytes(len)?);
            decode_ts(&mut cc, n, meta.min_t_ms, &mut self.ts)?;
            let rows = &mut self.rows[kind.index()];
            rows.clear();
            decode_column(&mut cc, kind, &self.ts, &self.dict, &mut self.nums, rows)?;
            if !cc.is_empty() {
                return Err(ColError::Corrupt("column has trailing bytes"));
            }
        }
        if !c.is_empty() {
            return Err(ColError::Corrupt("block has trailing bytes"));
        }
        Ok(BlockEvents {
            kinds: kinds.iter(),
            vms: self.vms.iter(),
            rows: &self.rows,
            next: [0; KINDS],
        })
    }
}

/// The events of a block a [`Decoder`] has decoded, re-interleaved into
/// stream order by the block's kind stream and tagged by its VM column.
#[derive(Debug)]
pub(crate) struct BlockEvents<'a> {
    kinds: std::slice::Iter<'a, u8>,
    vms: std::slice::Iter<'a, Option<u32>>,
    rows: &'a [Vec<TimedEvent>; KINDS],
    next: [usize; KINDS],
}

impl Iterator for BlockEvents<'_> {
    type Item = StoredEvent;

    fn next(&mut self) -> Option<StoredEvent> {
        // The decoder checked every kind byte against the bitmap, counted
        // each kind's rows from the same stream, and read one VM per
        // kind byte.
        let k = usize::from(*self.kinds.next()?);
        let vm = *self.vms.next()?;
        let i = self.next[k];
        self.next[k] += 1;
        let (at, event) = self.rows[k][i];
        Some(StoredEvent { vm, at, event })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.kinds.size_hint()
    }
}

impl ExactSizeIterator for BlockEvents<'_> {}

// ---- column codecs -------------------------------------------------------

/// Encode the timestamps column: zigzag deltas chained from `min_t`,
/// so a step back in time costs what the same step forward does.
fn encode_ts(buf: &mut Vec<u8>, times: impl Iterator<Item = SimTime>, min_t: u64) {
    let mut prev = min_t;
    for t in times {
        let ms = t.as_millis();
        write_i64(buf, ms.wrapping_sub(prev) as i64);
        prev = ms;
    }
}

fn decode_ts(c: &mut Cursor<'_>, n: usize, min_t: u64, ts: &mut Vec<u64>) -> Result<(), ColError> {
    ts.clear();
    let mut prev = min_t;
    for _ in 0..n {
        prev = prev.wrapping_add(c.i64()? as u64);
        ts.push(prev);
    }
    Ok(())
}

/// How a column stores one field type. A column holds each field of its
/// kind as one array over the kind's rows: `write` appends the array,
/// `read` takes it back, and `get` builds one row's value from what
/// `read` took. Every field is read before the first row is built, so
/// byte arrays are used in place and the rest go to the decoder's
/// `nums`.
trait Codec: Sized {
    /// What `read` takes: the field's bytes, or where its values start
    /// in `nums`.
    type Run<'a>: Copy;

    /// Append the array of `rows`: each row's value, its emission
    /// instant and its instance-id dictionary ref.
    fn write(buf: &mut Vec<u8>, rows: impl Iterator<Item = (Self, SimTime, u32)> + Clone);

    /// Take the array of rows emitted at `ts`.
    fn read<'a>(
        c: &mut Cursor<'a>,
        ts: &[u64],
        nums: &mut Vec<u64>,
    ) -> Result<Self::Run<'a>, ColError>;

    /// Row `i`'s value.
    fn get(run: Self::Run<'_>, i: usize, nums: &[u64], dict: &[u64]) -> Result<Self, ColError>;
}

/// Append `n` varints to `nums`, returning where they start.
fn read_varints(c: &mut Cursor<'_>, n: usize, nums: &mut Vec<u64>) -> Result<usize, ColError> {
    let start = nums.len();
    for _ in 0..n {
        nums.push(c.u64()?);
    }
    Ok(start)
}

/// Markets, zones, `bool`s and the closed enums: one byte per row.
impl<T: ByteCode> Codec for T {
    type Run<'a> = &'a [u8];

    fn write(buf: &mut Vec<u8>, rows: impl Iterator<Item = (T, SimTime, u32)> + Clone) {
        buf.extend(rows.map(|(v, ..)| v.code()));
    }

    fn read<'a>(c: &mut Cursor<'a>, ts: &[u64], _: &mut Vec<u64>) -> Result<&'a [u8], ColError> {
        c.bytes(ts.len())
    }

    fn get(run: &[u8], i: usize, _: &[u64], _: &[u64]) -> Result<T, ColError> {
        T::from_code(run[i])
    }
}

/// Instance ids: a varint ref into the block's dictionary. The encoder
/// looks up each event's one instance id (`instance_of`) and hands its
/// ref along with the row.
impl Codec for InstanceId {
    type Run<'a> = usize;

    fn write(buf: &mut Vec<u8>, rows: impl Iterator<Item = (InstanceId, SimTime, u32)> + Clone) {
        for (_, _, dref) in rows {
            write_u64(buf, u64::from(dref));
        }
    }

    fn read(c: &mut Cursor<'_>, ts: &[u64], nums: &mut Vec<u64>) -> Result<usize, ColError> {
        read_varints(c, ts.len(), nums)
    }

    fn get(run: usize, i: usize, nums: &[u64], dict: &[u64]) -> Result<InstanceId, ColError> {
        let r =
            usize::try_from(nums[run + i]).map_err(|_| ColError::Corrupt("dict ref overflow"))?;
        dict.get(r)
            .map(|&id| InstanceId(id))
            .ok_or(ColError::Corrupt("dict ref out of range"))
    }
}

/// In-variant times: a zigzag delta from the row's emission instant,
/// tiny for the near past and future that variants carry, and lossless
/// over the whole `u64` range (wrapping).
impl Codec for SimTime {
    type Run<'a> = usize;

    fn write(buf: &mut Vec<u8>, rows: impl Iterator<Item = (SimTime, SimTime, u32)> + Clone) {
        for (v, at, _) in rows {
            write_i64(buf, v.as_millis().wrapping_sub(at.as_millis()) as i64);
        }
    }

    fn read(c: &mut Cursor<'_>, ts: &[u64], nums: &mut Vec<u64>) -> Result<usize, ColError> {
        let start = nums.len();
        for &t in ts {
            nums.push(t.wrapping_add(c.i64()? as u64));
        }
        Ok(start)
    }

    fn get(run: usize, i: usize, nums: &[u64], _: &[u64]) -> Result<SimTime, ColError> {
        Ok(SimTime(nums[run + i]))
    }
}

/// Durations: a varint of milliseconds.
impl Codec for SimDuration {
    type Run<'a> = usize;

    fn write(buf: &mut Vec<u8>, rows: impl Iterator<Item = (SimDuration, SimTime, u32)> + Clone) {
        for (v, ..) in rows {
            write_u64(buf, v.as_millis());
        }
    }

    fn read(c: &mut Cursor<'_>, ts: &[u64], nums: &mut Vec<u64>) -> Result<usize, ColError> {
        read_varints(c, ts.len(), nums)
    }

    fn get(run: usize, i: usize, nums: &[u64], _: &[u64]) -> Result<SimDuration, ColError> {
        Ok(SimDuration(nums[run + i]))
    }
}

/// Job ids and attempts: a varint.
impl Codec for u32 {
    type Run<'a> = usize;

    fn write(buf: &mut Vec<u8>, rows: impl Iterator<Item = (u32, SimTime, u32)> + Clone) {
        for (v, ..) in rows {
            write_u64(buf, u64::from(v));
        }
    }

    fn read(c: &mut Cursor<'_>, ts: &[u64], nums: &mut Vec<u64>) -> Result<usize, ColError> {
        read_varints(c, ts.len(), nums)
    }

    fn get(run: usize, i: usize, nums: &[u64], _: &[u64]) -> Result<u32, ColError> {
        u32::try_from(nums[run + i]).map_err(|_| ColError::Corrupt("varint overflows u32"))
    }
}

/// `f64`s: the raw little-endian bit pattern, so NaN payloads and
/// signed zeros round-trip.
impl Codec for f64 {
    type Run<'a> = usize;

    fn write(buf: &mut Vec<u8>, rows: impl Iterator<Item = (f64, SimTime, u32)> + Clone) {
        for (v, ..) in rows {
            write_f64_bits(buf, v);
        }
    }

    fn read(c: &mut Cursor<'_>, ts: &[u64], nums: &mut Vec<u64>) -> Result<usize, ColError> {
        let start = nums.len();
        for _ in ts {
            nums.push(c.f64_bits()?.to_bits());
        }
        Ok(start)
    }

    fn get(run: usize, i: usize, nums: &[u64], _: &[u64]) -> Result<f64, ColError> {
        Ok(f64::from_bits(nums[run + i]))
    }
}

/// `Option<f64>`s: a presence byte per row, then the bit patterns of the
/// present values.
impl Codec for Option<f64> {
    type Run<'a> = (&'a [u8], usize);

    fn write(buf: &mut Vec<u8>, rows: impl Iterator<Item = (Option<f64>, SimTime, u32)> + Clone) {
        buf.extend(rows.clone().map(|(v, ..)| u8::from(v.is_some())));
        for v in rows.filter_map(|(v, ..)| v) {
            write_f64_bits(buf, v);
        }
    }

    fn read<'a>(
        c: &mut Cursor<'a>,
        ts: &[u64],
        nums: &mut Vec<u64>,
    ) -> Result<(&'a [u8], usize), ColError> {
        let flags = c.bytes(ts.len())?;
        let start = nums.len();
        for &f in flags {
            nums.push(match f {
                0 => 0,
                1 => c.f64_bits()?.to_bits(),
                _ => return Err(ColError::Corrupt("option flag out of range")),
            });
        }
        Ok((flags, start))
    }

    fn get(
        (flags, run): (&[u8], usize),
        i: usize,
        nums: &[u64],
        _: &[u64],
    ) -> Result<Option<f64>, ColError> {
        Ok((flags[i] != 0).then_some(f64::from_bits(nums[run + i])))
    }
}

/// Generates [`encode_column`] and [`decode_column`] from one layout per
/// kind: its variant's fields, each as one array stored by its type's
/// [`Codec`], after the kind's timestamps.
macro_rules! columns {
    ($($kind:ident { $($field:ident: $ty:ty),+ $(,)? })+) => {
        /// Write `kind`'s column: timestamps, then each field's array.
        /// `idx` holds the kind's rows (indices into `events`, in stream
        /// order) and `refs[i]` is event `i`'s dictionary ref.
        fn encode_column(
            buf: &mut Vec<u8>,
            kind: EventKind,
            events: &[StoredEvent],
            idx: &[usize],
            refs: &[u32],
            min_t: u64,
        ) {
            encode_ts(buf, idx.iter().map(|&i| events[i].at), min_t);
            let rows = idx.iter().map(|&i| (&events[i], refs[i]));
            match kind {
                $(EventKind::$kind => {$(
                    <$ty as Codec>::write(buf, rows.clone().map(|(se, dref)| {
                        let TelemetryEvent::$kind { $field, .. } = se.event else {
                            unreachable!("bucketed by kind")
                        };
                        ($field, se.at, dref)
                    }));
                )+})+
            }
        }

        /// Decode `kind`'s column (after its timestamps `ts`) into `out`:
        /// every field's array first, then one event per row.
        fn decode_column(
            c: &mut Cursor<'_>,
            kind: EventKind,
            ts: &[u64],
            dict: &[u64],
            nums: &mut Vec<u64>,
            out: &mut Vec<TimedEvent>,
        ) -> Result<(), ColError> {
            nums.clear();
            match kind {
                $(EventKind::$kind => {
                    $(let $field = <$ty as Codec>::read(c, ts, nums)?;)+
                    for (i, &t) in ts.iter().enumerate() {
                        let event = TelemetryEvent::$kind {
                            $($field: <$ty as Codec>::get($field, i, nums, dict)?,)+
                        };
                        out.push((SimTime(t), event));
                    }
                })+
            }
            Ok(())
        }
    };
}

// The column layout of every kind: its `TelemetryEvent` variant's fields
// in declaration order. `tests/fixtures/all_kinds.col` pins the bytes.
columns! {
    BidPlaced { market: MarketId, bid: Option<f64>, predicted_risk: Option<f64> }
    LeaseGranted { id: InstanceId, market: MarketId, spot: bool, ready_at: SimTime }
    LeaseDenied { market: MarketId, spot: bool, reason: DenialReason }
    LeaseActivated { id: InstanceId, market: MarketId }
    ActivationFailed { id: InstanceId, market: MarketId, doomed: bool }
    LeaseClosed {
        id: InstanceId, market: MarketId, spot: bool, reason: TerminationReason,
        start: SimTime, end: SimTime, cost: f64,
    }
    PriceCrossing { id: InstanceId, market: MarketId, at: SimTime }
    RevocationWarning { id: InstanceId, market: MarketId, terminate_at: SimTime }
    UnwarnedDeath { id: InstanceId, market: MarketId }
    MigrationStarted { kind: MigrationKind, from: MarketId, to: MarketId }
    MigrationPhase { phase: MigrationPhase, duration: SimDuration }
    MigrationCompleted {
        kind: MigrationKind, from: MarketId, to: MarketId,
        downtime: SimDuration, degraded: SimDuration,
    }
    MigrationAborted { kind: MigrationKind, from: MarketId }
    Outage { start: SimTime, end: SimTime }
    Degraded { start: SimTime, end: SimTime }
    ServiceUp { id: InstanceId, market: MarketId, spot: bool, first: bool }
    FaultInjected { kind: FaultKind }
    BackoffScheduled { attempt: u32, until: SimTime }
    StateChange { state: SchedulerState }
    StormStarted { zone: Zone }
    StormEnded { zone: Zone }
    QuotaExhausted { market: MarketId }
    JobStarted { job: u32, market: MarketId, spot: bool }
    JobCheckpointed { job: u32, duration: SimDuration }
    JobRestarted { job: u32, market: MarketId, lost: SimDuration }
    JobFinished { job: u32, missed: bool, cost: f64 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spothost_market::types::InstanceType;

    fn m(i: usize) -> MarketId {
        MarketId::new(Zone::ALL[i % 4], InstanceType::ALL[i % 4])
    }

    fn sample_stream() -> Vec<TimedEvent> {
        vec![
            (
                SimTime::millis(10),
                TelemetryEvent::BidPlaced {
                    market: m(0),
                    bid: Some(0.25),
                    predicted_risk: None,
                },
            ),
            (
                SimTime::millis(10),
                TelemetryEvent::StateChange {
                    state: SchedulerState::Boot,
                },
            ),
            (
                SimTime::millis(500),
                TelemetryEvent::LeaseGranted {
                    id: InstanceId(3),
                    market: m(0),
                    spot: true,
                    ready_at: SimTime::millis(60_500),
                },
            ),
            (
                SimTime::millis(60_500),
                TelemetryEvent::LeaseClosed {
                    id: InstanceId(3),
                    market: m(0),
                    spot: true,
                    reason: spothost_cloudsim::TerminationReason::Revoked,
                    start: SimTime::millis(500),
                    end: SimTime::millis(60_500),
                    cost: 0.017,
                },
            ),
            (
                SimTime::millis(61_000),
                TelemetryEvent::Outage {
                    start: SimTime::millis(60_500),
                    end: SimTime::millis(61_000),
                },
            ),
        ]
    }

    /// The sample stream, with event `i` tagged `vms[i % vms.len()]`.
    fn tagged(vms: &[Option<u32>]) -> Vec<StoredEvent> {
        sample_stream()
            .into_iter()
            .enumerate()
            .map(|(i, (at, event))| StoredEvent {
                vm: vms[i % vms.len()],
                at,
                event,
            })
            .collect()
    }

    #[test]
    fn seal_decode_roundtrip_preserves_stream() {
        let events = tagged(&[Some(7), Some(2), Some(7)]);
        let payload = seal(&events);
        let (meta, decoded) = decode(&payload).unwrap();
        assert_eq!(meta.vms, vec![Some(2), Some(7)]);
        assert_eq!(meta.count, events.len());
        assert_eq!(meta.min_t_ms, 10);
        assert_eq!(meta.max_t_ms, 61_000);
        assert_eq!(decoded, events);
    }

    #[test]
    fn meta_bitmaps_reflect_contents() {
        let (meta, _) = decode(&seal(&tagged(&[None]))).unwrap();
        assert_eq!(meta.vms, vec![None]);
        assert!(meta.holds_vm(None));
        assert!(!meta.holds_vm(Some(0)));
        assert!(meta.kinds & (1 << EventKind::LeaseClosed.index()) != 0);
        assert!(meta.kinds & (1 << EventKind::StormStarted.index()) == 0);
        assert!(meta.markets & (1 << m(0).dense_index()) != 0);
        assert!(meta.zones & (1 << m(0).zone.index()) != 0);
    }

    #[test]
    fn backward_time_steps_cost_what_forward_steps_do() {
        // Two VMs a tick apart: the second VM's events step back in time.
        let at = |ms: u64, vm: u32| StoredEvent {
            vm: Some(vm),
            at: SimTime::millis(ms),
            event: TelemetryEvent::StateChange {
                state: SchedulerState::Active,
            },
        };
        let forward = [at(0, 0), at(200, 0), at(400, 1), at(600, 1)];
        let back = [at(0, 0), at(400, 0), at(200, 1), at(600, 1)];
        assert_eq!(seal(&back).len(), seal(&forward).len());
        assert_eq!(decode(&seal(&back)).unwrap().1, back);
    }

    #[test]
    fn empty_input_seals_to_empty_payload() {
        assert!(seal(&[]).is_empty());
    }

    #[test]
    fn corrupt_payloads_error_not_panic() {
        let payload = seal(&tagged(&[None, Some(1)]));
        assert!(decode(&payload[..payload.len() - 1]).is_err());
        assert!(decode(&payload[..3]).is_err());
        let mut trailing = payload.clone();
        trailing.push(0);
        assert!(decode(&trailing).is_err());
        assert!(decode(&[]).is_err());
    }

    #[test]
    fn reused_encoder_and_decoder_match_one_shot_calls() {
        // A long block, then a short one with fewer kinds and VMs:
        // nothing from the first may leak into the second through the
        // kept buffers.
        let long = tagged(&[Some(1), Some(4), None]);
        let short = vec![long[1], long[4]];
        let mut enc = Encoder::default();
        let mut dec = Decoder::default();
        for events in [&long, &short, &long] {
            let mut payload = Vec::new();
            enc.seal(events, &mut payload);
            assert_eq!(payload, seal(events));
            let mut c = Cursor::new(&payload);
            let meta = read_meta(&mut c).unwrap();
            let body = &payload[payload.len() - c.remaining()..];
            let decoded = dec.decode(&meta, body).unwrap();
            assert_eq!(decoded.len(), events.len());
            assert_eq!(decoded.collect::<Vec<_>>(), *events);
        }
    }

    #[test]
    fn bool_byte_above_one_is_corrupt() {
        let mut payload = seal(&[StoredEvent {
            vm: None,
            at: SimTime::millis(5),
            event: TelemetryEvent::ServiceUp {
                id: InstanceId(1),
                market: m(0),
                spot: true,
                first: false,
            },
        }]);
        // `first` is the last column of the block's one kind.
        let first = payload.last_mut().unwrap();
        assert_eq!(*first, 0);
        *first = 2;
        assert!(matches!(
            decode(&payload),
            Err(ColError::Corrupt("bool code out of range"))
        ));
    }

    #[test]
    fn header_count_beyond_payload_is_corrupt() {
        let mut payload = Vec::new();
        write_u64(&mut payload, 1 << 40); // count
        payload.extend_from_slice(&[0; 8]);
        assert!(matches!(
            decode(&payload),
            Err(ColError::Corrupt("count exceeds payload size"))
        ));
    }

    #[test]
    fn vm_dictionary_must_ascend_and_fit_u32() {
        // count 2 · times · bitmaps, then a VM dictionary of `gaps`.
        let header = |gaps: &[u64]| {
            let mut p = Vec::new();
            for v in [2, 0, 0, 0, 0, 0, gaps.len() as u64] {
                write_u64(&mut p, v);
            }
            for &g in gaps {
                write_u64(&mut p, g);
            }
            p.extend_from_slice(&[0; 4]);
            let mut c = Cursor::new(&p);
            read_meta(&mut c).map(|m| m.vms)
        };
        assert_eq!(header(&[0, 3]).unwrap(), vec![None, Some(2)]);
        assert!(matches!(
            header(&[3, 0]),
            Err(ColError::Corrupt("VM dict not ascending"))
        ));
        assert!(matches!(
            header(&[1 << 33]),
            Err(ColError::Corrupt("VM tag overflows u32"))
        ));
        assert!(matches!(
            header(&[1, 2, 3]),
            Err(ColError::Corrupt("VM dict larger than block"))
        ));
    }
}
