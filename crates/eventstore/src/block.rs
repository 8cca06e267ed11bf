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
//! timestamps as zigzag deltas chained from `min_t`, then each variant
//! field as its own array — dictionary refs for instance ids, dense u8
//! codes for markets/zones/enums, zigzag deltas *from the emission
//! instant* for in-variant times, plain varints for durations, and raw
//! little-endian bit patterns for `f64`s (bit-exact round-trip, NaN
//! included). The fleet steps each VM to a control tick in turn, so the
//! fleet-wide stream steps back in time by up to one control interval
//! when it moves to the next VM; a zigzag delta keeps such a step as
//! short as a forward one.
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
use crate::schema::{
    denial_code, denial_from_code, fault_code, fault_from_code, instance_of, market_code,
    market_from_code, markets_of, migkind_code, migkind_from_code, phase_code, phase_from_code,
    state_code, state_from_code, termination_code, termination_from_code, zone_code,
    zone_from_code, zones_of, EventKind,
};
use crate::varint::{write_f64_bits, write_i64, write_u64, Cursor};
use crate::ColError;
use spothost_cloudsim::InstanceId;
use spothost_market::time::{SimDuration, SimTime};
use spothost_telemetry::{TelemetryEvent, TimedEvent};
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
            let kind = EventKind::of(ev).index();
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
        buf.extend(
            events
                .iter()
                .map(|se| EventKind::of(&se.event).index() as u8),
        );
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
    /// `n` values per field (see [`fields`]).
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

/// Emission-relative time: lossless over the full u64 range (wrapping),
/// tiny for the near-past/near-future times variants actually carry.
fn t_delta(buf: &mut Vec<u8>, field: SimTime, at: SimTime) {
    write_i64(buf, field.as_millis().wrapping_sub(at.as_millis()) as i64);
}

fn dict_id(dict: &[u64], r: u64) -> Result<InstanceId, ColError> {
    let i = usize::try_from(r).map_err(|_| ColError::Corrupt("dict ref overflow"))?;
    dict.get(i)
        .map(|&id| InstanceId(id))
        .ok_or(ColError::Corrupt("dict ref out of range"))
}

fn u32_field(v: u64, what: &'static str) -> Result<u32, ColError> {
    u32::try_from(v).map_err(|_| ColError::Corrupt(what))
}

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

/// One `Option<f64>` column: a presence byte per row, then the bit
/// patterns of the present values.
fn encode_opt_f64(buf: &mut Vec<u8>, vals: impl Iterator<Item = Option<f64>> + Clone) {
    for v in vals.clone() {
        buf.push(u8::from(v.is_some()));
    }
    for v in vals.flatten() {
        write_f64_bits(buf, v);
    }
}

// Field readers: each appends one field's `n` values to `nums`.

fn read_varints(c: &mut Cursor<'_>, n: usize, nums: &mut Vec<u64>) -> Result<(), ColError> {
    for _ in 0..n {
        nums.push(c.u64()?);
    }
    Ok(())
}

/// In-variant times, as absolute ms: each row's zigzag delta from its
/// emission instant `ts[i]`.
fn read_times(c: &mut Cursor<'_>, ts: &[u64], nums: &mut Vec<u64>) -> Result<(), ColError> {
    for &t in ts {
        nums.push(t.wrapping_add(c.i64()? as u64));
    }
    Ok(())
}

fn read_f64s(c: &mut Cursor<'_>, n: usize, nums: &mut Vec<u64>) -> Result<(), ColError> {
    for _ in 0..n {
        nums.push(c.f64_bits()?.to_bits());
    }
    Ok(())
}

/// An `Option<f64>` column: returns the presence bytes and appends the
/// bit pattern of each row (0 for absent rows).
fn read_opt_f64s<'a>(
    c: &mut Cursor<'a>,
    n: usize,
    nums: &mut Vec<u64>,
) -> Result<&'a [u8], ColError> {
    let flags = c.bytes(n)?;
    for &f in flags {
        nums.push(match f {
            0 => 0,
            1 => c.f64_bits()?.to_bits(),
            _ => return Err(ColError::Corrupt("option flag out of range")),
        });
    }
    Ok(flags)
}

fn opt_f64(flag: u8, bits: u64) -> Option<f64> {
    (flag != 0).then_some(f64::from_bits(bits))
}

/// The `K` fields a column's readers appended to `nums`, `n` values each.
fn fields<const K: usize>(nums: &[u64], n: usize) -> [&[u64]; K] {
    std::array::from_fn(|j| &nums[j * n..(j + 1) * n])
}

/// Write `kind`'s column: timestamps, then each variant field as its own
/// array, each a pass over the kind's rows (`idx` into `events`, in
/// stream order; `refs[i]` is event `i`'s dictionary ref). The
/// `unreachable!` arms state that `idx` holds only `kind`.
fn encode_column(
    buf: &mut Vec<u8>,
    kind: EventKind,
    events: &[StoredEvent],
    idx: &[usize],
    refs: &[u32],
    min_t: u64,
) {
    let evs = || {
        idx.iter()
            .map(|&i| ((&events[i].at, &events[i].event), u64::from(refs[i])))
    };
    encode_ts(buf, evs().map(|((t, _), _)| *t), min_t);
    match kind {
        EventKind::BidPlaced => {
            let rows = || {
                evs().map(|((_, ev), _)| match ev {
                    TelemetryEvent::BidPlaced {
                        market,
                        bid,
                        predicted_risk,
                    } => (market_code(*market), *bid, *predicted_risk),
                    _ => unreachable!("bucketed by kind"),
                })
            };
            buf.extend(rows().map(|r| r.0));
            encode_opt_f64(buf, rows().map(|r| r.1));
            encode_opt_f64(buf, rows().map(|r| r.2));
        }
        EventKind::LeaseGranted => {
            let rows = || {
                evs().map(|((t, ev), dref)| match ev {
                    TelemetryEvent::LeaseGranted {
                        market,
                        spot,
                        ready_at,
                        ..
                    } => (dref, market_code(*market), *spot, *ready_at, *t),
                    _ => unreachable!("bucketed by kind"),
                })
            };
            for r in rows() {
                write_u64(buf, r.0);
            }
            buf.extend(rows().map(|r| r.1));
            buf.extend(rows().map(|r| u8::from(r.2)));
            for r in rows() {
                t_delta(buf, r.3, r.4);
            }
        }
        EventKind::LeaseDenied => {
            let rows = || {
                evs().map(|((_, ev), _)| match ev {
                    TelemetryEvent::LeaseDenied {
                        market,
                        spot,
                        reason,
                    } => (market_code(*market), *spot, denial_code(*reason)),
                    _ => unreachable!("bucketed by kind"),
                })
            };
            buf.extend(rows().map(|r| r.0));
            buf.extend(rows().map(|r| u8::from(r.1)));
            buf.extend(rows().map(|r| r.2));
        }
        EventKind::LeaseActivated | EventKind::UnwarnedDeath => {
            let rows = || {
                evs().map(|((_, ev), dref)| match ev {
                    TelemetryEvent::LeaseActivated { market, .. }
                    | TelemetryEvent::UnwarnedDeath { market, .. } => (dref, market_code(*market)),
                    _ => unreachable!("bucketed by kind"),
                })
            };
            for r in rows() {
                write_u64(buf, r.0);
            }
            buf.extend(rows().map(|r| r.1));
        }
        EventKind::ActivationFailed => {
            let rows = || {
                evs().map(|((_, ev), dref)| match ev {
                    TelemetryEvent::ActivationFailed { market, doomed, .. } => {
                        (dref, market_code(*market), *doomed)
                    }
                    _ => unreachable!("bucketed by kind"),
                })
            };
            for r in rows() {
                write_u64(buf, r.0);
            }
            buf.extend(rows().map(|r| r.1));
            buf.extend(rows().map(|r| u8::from(r.2)));
        }
        EventKind::LeaseClosed => {
            let rows = || {
                evs().map(|((t, ev), dref)| match ev {
                    TelemetryEvent::LeaseClosed {
                        market,
                        spot,
                        reason,
                        start,
                        end,
                        cost,
                        ..
                    } => (
                        dref,
                        market_code(*market),
                        *spot,
                        termination_code(*reason),
                        *start,
                        *end,
                        *cost,
                        *t,
                    ),
                    _ => unreachable!("bucketed by kind"),
                })
            };
            for r in rows() {
                write_u64(buf, r.0);
            }
            buf.extend(rows().map(|r| r.1));
            buf.extend(rows().map(|r| u8::from(r.2)));
            buf.extend(rows().map(|r| r.3));
            for r in rows() {
                t_delta(buf, r.4, r.7);
            }
            for r in rows() {
                t_delta(buf, r.5, r.7);
            }
            for r in rows() {
                write_f64_bits(buf, r.6);
            }
        }
        EventKind::PriceCrossing | EventKind::RevocationWarning => {
            let rows = || {
                evs().map(|((t, ev), dref)| match ev {
                    TelemetryEvent::PriceCrossing { market, at, .. } => {
                        (dref, market_code(*market), *at, *t)
                    }
                    TelemetryEvent::RevocationWarning {
                        market,
                        terminate_at,
                        ..
                    } => (dref, market_code(*market), *terminate_at, *t),
                    _ => unreachable!("bucketed by kind"),
                })
            };
            for r in rows() {
                write_u64(buf, r.0);
            }
            buf.extend(rows().map(|r| r.1));
            for r in rows() {
                t_delta(buf, r.2, r.3);
            }
        }
        EventKind::MigrationStarted => {
            let rows = || {
                evs().map(|((_, ev), _)| match ev {
                    TelemetryEvent::MigrationStarted { kind, from, to } => {
                        (migkind_code(*kind), market_code(*from), market_code(*to))
                    }
                    _ => unreachable!("bucketed by kind"),
                })
            };
            buf.extend(rows().map(|r| r.0));
            buf.extend(rows().map(|r| r.1));
            buf.extend(rows().map(|r| r.2));
        }
        EventKind::MigrationPhase => {
            let rows = || {
                evs().map(|((_, ev), _)| match ev {
                    TelemetryEvent::MigrationPhase { phase, duration } => {
                        (phase_code(*phase), duration.as_millis())
                    }
                    _ => unreachable!("bucketed by kind"),
                })
            };
            buf.extend(rows().map(|r| r.0));
            for r in rows() {
                write_u64(buf, r.1);
            }
        }
        EventKind::MigrationCompleted => {
            let rows = || {
                evs().map(|((_, ev), _)| match ev {
                    TelemetryEvent::MigrationCompleted {
                        kind,
                        from,
                        to,
                        downtime,
                        degraded,
                    } => (
                        migkind_code(*kind),
                        market_code(*from),
                        market_code(*to),
                        downtime.as_millis(),
                        degraded.as_millis(),
                    ),
                    _ => unreachable!("bucketed by kind"),
                })
            };
            buf.extend(rows().map(|r| r.0));
            buf.extend(rows().map(|r| r.1));
            buf.extend(rows().map(|r| r.2));
            for r in rows() {
                write_u64(buf, r.3);
            }
            for r in rows() {
                write_u64(buf, r.4);
            }
        }
        EventKind::MigrationAborted => {
            let rows = || {
                evs().map(|((_, ev), _)| match ev {
                    TelemetryEvent::MigrationAborted { kind, from } => {
                        (migkind_code(*kind), market_code(*from))
                    }
                    _ => unreachable!("bucketed by kind"),
                })
            };
            buf.extend(rows().map(|r| r.0));
            buf.extend(rows().map(|r| r.1));
        }
        EventKind::Outage | EventKind::Degraded => {
            let rows = || {
                evs().map(|((t, ev), _)| match ev {
                    TelemetryEvent::Outage { start, end }
                    | TelemetryEvent::Degraded { start, end } => (*start, *end, *t),
                    _ => unreachable!("bucketed by kind"),
                })
            };
            for r in rows() {
                t_delta(buf, r.0, r.2);
            }
            for r in rows() {
                t_delta(buf, r.1, r.2);
            }
        }
        EventKind::ServiceUp => {
            let rows = || {
                evs().map(|((_, ev), dref)| match ev {
                    TelemetryEvent::ServiceUp {
                        market,
                        spot,
                        first,
                        ..
                    } => (dref, market_code(*market), *spot, *first),
                    _ => unreachable!("bucketed by kind"),
                })
            };
            for r in rows() {
                write_u64(buf, r.0);
            }
            buf.extend(rows().map(|r| r.1));
            buf.extend(rows().map(|r| u8::from(r.2)));
            buf.extend(rows().map(|r| u8::from(r.3)));
        }
        EventKind::FaultInjected => {
            buf.extend(evs().map(|((_, ev), _)| match ev {
                TelemetryEvent::FaultInjected { kind } => fault_code(*kind),
                _ => unreachable!("bucketed by kind"),
            }));
        }
        EventKind::BackoffScheduled => {
            let rows = || {
                evs().map(|((t, ev), _)| match ev {
                    TelemetryEvent::BackoffScheduled { attempt, until } => (*attempt, *until, *t),
                    _ => unreachable!("bucketed by kind"),
                })
            };
            for r in rows() {
                write_u64(buf, u64::from(r.0));
            }
            for r in rows() {
                t_delta(buf, r.1, r.2);
            }
        }
        EventKind::StateChange => {
            buf.extend(evs().map(|((_, ev), _)| match ev {
                TelemetryEvent::StateChange { state } => state_code(*state),
                _ => unreachable!("bucketed by kind"),
            }));
        }
        EventKind::StormStarted | EventKind::StormEnded => {
            buf.extend(evs().map(|((_, ev), _)| match ev {
                TelemetryEvent::StormStarted { zone } | TelemetryEvent::StormEnded { zone } => {
                    zone_code(*zone)
                }
                _ => unreachable!("bucketed by kind"),
            }));
        }
        EventKind::QuotaExhausted => {
            buf.extend(evs().map(|((_, ev), _)| match ev {
                TelemetryEvent::QuotaExhausted { market } => market_code(*market),
                _ => unreachable!("bucketed by kind"),
            }));
        }
        EventKind::JobStarted => {
            let rows = || {
                evs().map(|((_, ev), _)| match ev {
                    TelemetryEvent::JobStarted { job, market, spot } => {
                        (*job, market_code(*market), *spot)
                    }
                    _ => unreachable!("bucketed by kind"),
                })
            };
            for r in rows() {
                write_u64(buf, u64::from(r.0));
            }
            buf.extend(rows().map(|r| r.1));
            buf.extend(rows().map(|r| u8::from(r.2)));
        }
        EventKind::JobCheckpointed => {
            let rows = || {
                evs().map(|((_, ev), _)| match ev {
                    TelemetryEvent::JobCheckpointed { job, duration } => {
                        (*job, duration.as_millis())
                    }
                    _ => unreachable!("bucketed by kind"),
                })
            };
            for r in rows() {
                write_u64(buf, u64::from(r.0));
            }
            for r in rows() {
                write_u64(buf, r.1);
            }
        }
        EventKind::JobRestarted => {
            let rows = || {
                evs().map(|((_, ev), _)| match ev {
                    TelemetryEvent::JobRestarted { job, market, lost } => {
                        (*job, market_code(*market), lost.as_millis())
                    }
                    _ => unreachable!("bucketed by kind"),
                })
            };
            for r in rows() {
                write_u64(buf, u64::from(r.0));
            }
            buf.extend(rows().map(|r| r.1));
            for r in rows() {
                write_u64(buf, r.2);
            }
        }
        EventKind::JobFinished => {
            let rows = || {
                evs().map(|((_, ev), _)| match ev {
                    TelemetryEvent::JobFinished { job, missed, cost } => (*job, *missed, *cost),
                    _ => unreachable!("bucketed by kind"),
                })
            };
            for r in rows() {
                write_u64(buf, u64::from(r.0));
            }
            buf.extend(rows().map(|r| u8::from(r.1)));
            for r in rows() {
                write_f64_bits(buf, r.2);
            }
        }
    }
}

/// Decode `kind`'s column (after its timestamps `ts`) into `out`: first
/// every field, byte fields as slices of the column and the others into
/// `nums`, then one event per row.
fn decode_column(
    c: &mut Cursor<'_>,
    kind: EventKind,
    ts: &[u64],
    dict: &[u64],
    nums: &mut Vec<u64>,
    out: &mut Vec<TimedEvent>,
) -> Result<(), ColError> {
    let n = ts.len();
    nums.clear();
    let mut push = |i: usize, ev: TelemetryEvent| out.push((SimTime(ts[i]), ev));
    match kind {
        EventKind::BidPlaced => {
            let markets = c.bytes(n)?;
            let has_bid = read_opt_f64s(c, n, nums)?;
            let has_risk = read_opt_f64s(c, n, nums)?;
            let [bids, risks] = fields(nums, n);
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::BidPlaced {
                        market: market_from_code(markets[i])?,
                        bid: opt_f64(has_bid[i], bids[i]),
                        predicted_risk: opt_f64(has_risk[i], risks[i]),
                    },
                );
            }
        }
        EventKind::LeaseGranted => {
            read_varints(c, n, nums)?;
            let markets = c.bytes(n)?;
            let spots = c.bytes(n)?;
            read_times(c, ts, nums)?;
            let [ids, ready] = fields(nums, n);
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::LeaseGranted {
                        id: dict_id(dict, ids[i])?,
                        market: market_from_code(markets[i])?,
                        spot: spots[i] != 0,
                        ready_at: SimTime(ready[i]),
                    },
                );
            }
        }
        EventKind::LeaseDenied => {
            let markets = c.bytes(n)?;
            let spots = c.bytes(n)?;
            let reasons = c.bytes(n)?;
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::LeaseDenied {
                        market: market_from_code(markets[i])?,
                        spot: spots[i] != 0,
                        reason: denial_from_code(reasons[i])?,
                    },
                );
            }
        }
        EventKind::LeaseActivated | EventKind::UnwarnedDeath => {
            read_varints(c, n, nums)?;
            let markets = c.bytes(n)?;
            let [ids] = fields(nums, n);
            for i in 0..n {
                let id = dict_id(dict, ids[i])?;
                let market = market_from_code(markets[i])?;
                let ev = if kind == EventKind::LeaseActivated {
                    TelemetryEvent::LeaseActivated { id, market }
                } else {
                    TelemetryEvent::UnwarnedDeath { id, market }
                };
                push(i, ev);
            }
        }
        EventKind::ActivationFailed => {
            read_varints(c, n, nums)?;
            let markets = c.bytes(n)?;
            let doomed = c.bytes(n)?;
            let [ids] = fields(nums, n);
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::ActivationFailed {
                        id: dict_id(dict, ids[i])?,
                        market: market_from_code(markets[i])?,
                        doomed: doomed[i] != 0,
                    },
                );
            }
        }
        EventKind::LeaseClosed => {
            read_varints(c, n, nums)?;
            let markets = c.bytes(n)?;
            let spots = c.bytes(n)?;
            let reasons = c.bytes(n)?;
            read_times(c, ts, nums)?;
            read_times(c, ts, nums)?;
            read_f64s(c, n, nums)?;
            let [ids, starts, ends, costs] = fields(nums, n);
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::LeaseClosed {
                        id: dict_id(dict, ids[i])?,
                        market: market_from_code(markets[i])?,
                        spot: spots[i] != 0,
                        reason: termination_from_code(reasons[i])?,
                        start: SimTime(starts[i]),
                        end: SimTime(ends[i]),
                        cost: f64::from_bits(costs[i]),
                    },
                );
            }
        }
        EventKind::PriceCrossing | EventKind::RevocationWarning => {
            read_varints(c, n, nums)?;
            let markets = c.bytes(n)?;
            read_times(c, ts, nums)?;
            let [ids, whens] = fields(nums, n);
            for i in 0..n {
                let id = dict_id(dict, ids[i])?;
                let market = market_from_code(markets[i])?;
                let when = SimTime(whens[i]);
                let ev = if kind == EventKind::PriceCrossing {
                    TelemetryEvent::PriceCrossing {
                        id,
                        market,
                        at: when,
                    }
                } else {
                    TelemetryEvent::RevocationWarning {
                        id,
                        market,
                        terminate_at: when,
                    }
                };
                push(i, ev);
            }
        }
        EventKind::MigrationStarted => {
            let kinds = c.bytes(n)?;
            let froms = c.bytes(n)?;
            let tos = c.bytes(n)?;
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::MigrationStarted {
                        kind: migkind_from_code(kinds[i])?,
                        from: market_from_code(froms[i])?,
                        to: market_from_code(tos[i])?,
                    },
                );
            }
        }
        EventKind::MigrationPhase => {
            let phases = c.bytes(n)?;
            read_varints(c, n, nums)?;
            let [durs] = fields(nums, n);
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::MigrationPhase {
                        phase: phase_from_code(phases[i])?,
                        duration: SimDuration(durs[i]),
                    },
                );
            }
        }
        EventKind::MigrationCompleted => {
            let kinds = c.bytes(n)?;
            let froms = c.bytes(n)?;
            let tos = c.bytes(n)?;
            read_varints(c, n, nums)?;
            read_varints(c, n, nums)?;
            let [downs, degs] = fields(nums, n);
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::MigrationCompleted {
                        kind: migkind_from_code(kinds[i])?,
                        from: market_from_code(froms[i])?,
                        to: market_from_code(tos[i])?,
                        downtime: SimDuration(downs[i]),
                        degraded: SimDuration(degs[i]),
                    },
                );
            }
        }
        EventKind::MigrationAborted => {
            let kinds = c.bytes(n)?;
            let froms = c.bytes(n)?;
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::MigrationAborted {
                        kind: migkind_from_code(kinds[i])?,
                        from: market_from_code(froms[i])?,
                    },
                );
            }
        }
        EventKind::Outage | EventKind::Degraded => {
            read_times(c, ts, nums)?;
            read_times(c, ts, nums)?;
            let [starts, ends] = fields(nums, n);
            for i in 0..n {
                let (start, end) = (SimTime(starts[i]), SimTime(ends[i]));
                let ev = if kind == EventKind::Outage {
                    TelemetryEvent::Outage { start, end }
                } else {
                    TelemetryEvent::Degraded { start, end }
                };
                push(i, ev);
            }
        }
        EventKind::ServiceUp => {
            read_varints(c, n, nums)?;
            let markets = c.bytes(n)?;
            let spots = c.bytes(n)?;
            let firsts = c.bytes(n)?;
            let [ids] = fields(nums, n);
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::ServiceUp {
                        id: dict_id(dict, ids[i])?,
                        market: market_from_code(markets[i])?,
                        spot: spots[i] != 0,
                        first: firsts[i] != 0,
                    },
                );
            }
        }
        EventKind::FaultInjected => {
            for (i, &k) in c.bytes(n)?.iter().enumerate() {
                push(
                    i,
                    TelemetryEvent::FaultInjected {
                        kind: fault_from_code(k)?,
                    },
                );
            }
        }
        EventKind::BackoffScheduled => {
            read_varints(c, n, nums)?;
            read_times(c, ts, nums)?;
            let [attempts, untils] = fields(nums, n);
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::BackoffScheduled {
                        attempt: u32_field(attempts[i], "attempt overflows u32")?,
                        until: SimTime(untils[i]),
                    },
                );
            }
        }
        EventKind::StateChange => {
            for (i, &s) in c.bytes(n)?.iter().enumerate() {
                push(
                    i,
                    TelemetryEvent::StateChange {
                        state: state_from_code(s)?,
                    },
                );
            }
        }
        EventKind::StormStarted | EventKind::StormEnded => {
            for (i, &z) in c.bytes(n)?.iter().enumerate() {
                let zone = zone_from_code(z)?;
                let ev = if kind == EventKind::StormStarted {
                    TelemetryEvent::StormStarted { zone }
                } else {
                    TelemetryEvent::StormEnded { zone }
                };
                push(i, ev);
            }
        }
        EventKind::QuotaExhausted => {
            for (i, &m) in c.bytes(n)?.iter().enumerate() {
                push(
                    i,
                    TelemetryEvent::QuotaExhausted {
                        market: market_from_code(m)?,
                    },
                );
            }
        }
        EventKind::JobStarted => {
            read_varints(c, n, nums)?;
            let markets = c.bytes(n)?;
            let spots = c.bytes(n)?;
            let [jobs] = fields(nums, n);
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::JobStarted {
                        job: u32_field(jobs[i], "job id overflows u32")?,
                        market: market_from_code(markets[i])?,
                        spot: spots[i] != 0,
                    },
                );
            }
        }
        EventKind::JobCheckpointed => {
            read_varints(c, n, nums)?;
            read_varints(c, n, nums)?;
            let [jobs, durs] = fields(nums, n);
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::JobCheckpointed {
                        job: u32_field(jobs[i], "job id overflows u32")?,
                        duration: SimDuration(durs[i]),
                    },
                );
            }
        }
        EventKind::JobRestarted => {
            read_varints(c, n, nums)?;
            let markets = c.bytes(n)?;
            read_varints(c, n, nums)?;
            let [jobs, losts] = fields(nums, n);
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::JobRestarted {
                        job: u32_field(jobs[i], "job id overflows u32")?,
                        market: market_from_code(markets[i])?,
                        lost: SimDuration(losts[i]),
                    },
                );
            }
        }
        EventKind::JobFinished => {
            read_varints(c, n, nums)?;
            let missed = c.bytes(n)?;
            read_f64s(c, n, nums)?;
            let [jobs, costs] = fields(nums, n);
            for i in 0..n {
                push(
                    i,
                    TelemetryEvent::JobFinished {
                        job: u32_field(jobs[i], "job id overflows u32")?,
                        missed: missed[i] != 0,
                        cost: f64::from_bits(costs[i]),
                    },
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spothost_market::types::{InstanceType, MarketId, Zone};
    use spothost_telemetry::SchedulerState;

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
