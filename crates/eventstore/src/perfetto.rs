//! Chrome-trace ("Perfetto") JSON export: render a selection as a trace
//! viewable in `ui.perfetto.dev` or `chrome://tracing`.
//!
//! Layout: one *process* per VM stream (`vm0`, `vm1`, ... — or a single
//! `run` process for untagged single-run stores), each with four fixed
//! threads:
//!
//! | tid | track      | spans |
//! |-----|------------|-------|
//! | 1   | leases     | one `X` span per `LeaseClosed`, `start..end` |
//! | 2   | service    | `Outage` / `Degraded` intervals |
//! | 3   | migrations | `MigrationStarted` paired with the stream's next `Completed`/`Aborted` |
//! | 4   | marks      | instants: faults, backoffs, warnings, deaths, storms, quota |
//!
//! Timestamps are simulated time: `ts`/`dur` are in microseconds with
//! sim-start at 0, so a 60-day run reads as a 60-day trace.
//!
//! The writer is hand-rolled JSON (the workspace is offline, no serde),
//! matching the repo's `telemetry::export` idiom.

use crate::read::StoredEvent;
use spothost_telemetry::TelemetryEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const TID_LEASES: u32 = 1;
const TID_SERVICE: u32 = 2;
const TID_MIGRATIONS: u32 = 3;
const TID_MARKS: u32 = 4;

/// Escape a string for a JSON string literal. Track names come from
/// closed vocabularies today, but the escaper keeps the output valid if
/// that ever changes.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn us(ms: u64) -> u64 {
    ms.saturating_mul(1_000)
}

struct TraceWriter {
    out: String,
    first: bool,
}

impl TraceWriter {
    fn new() -> Self {
        TraceWriter {
            out: String::from("{\"traceEvents\":[\n"),
            first: true,
        }
    }

    fn raw(&mut self, line: &str) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str(line);
    }

    /// A complete-span (`X`) event.
    fn span(&mut self, pid: u32, tid: u32, name: &str, ts_us: u64, dur_us: u64, args: &str) {
        self.raw(&format!(
            "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\"ts\":{ts_us},\"dur\":{dur_us},\"args\":{{{args}}}}}",
            esc(name)
        ));
    }

    /// An instant (`i`) event, thread-scoped.
    fn instant(&mut self, pid: u32, tid: u32, name: &str, ts_us: u64, args: &str) {
        self.raw(&format!(
            "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"name\":\"{}\",\"ts\":{ts_us},\"s\":\"t\",\"args\":{{{args}}}}}",
            esc(name)
        ));
    }

    /// A process/thread-name metadata (`M`) event.
    fn meta(&mut self, pid: u32, tid: Option<u32>, key: &str, name: &str) {
        let tid_part = tid.map(|t| format!("\"tid\":{t},")).unwrap_or_default();
        self.raw(&format!(
            "{{\"ph\":\"M\",\"pid\":{pid},{tid_part}\"name\":\"{key}\",\"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }

    fn finish(mut self) -> String {
        self.out.push_str("\n]}\n");
        self.out
    }
}

fn process_id(vm: Option<u32>) -> u32 {
    match vm {
        None => 1,
        Some(v) => v + 2,
    }
}

/// Render `events` (any order; grouped internally by VM stream, order
/// preserved within a stream) as Chrome-trace JSON.
pub fn to_perfetto_json(events: &[StoredEvent]) -> String {
    let mut streams: BTreeMap<u32, Vec<&StoredEvent>> = BTreeMap::new();
    for se in events {
        streams.entry(process_id(se.vm)).or_default().push(se);
    }

    let mut w = TraceWriter::new();
    for (&pid, stream) in &streams {
        let pname = match stream.first().and_then(|se| se.vm) {
            Some(v) => format!("vm{v}"),
            None => "run".to_string(),
        };
        w.meta(pid, None, "process_name", &pname);
        w.meta(pid, Some(TID_LEASES), "thread_name", "leases");
        w.meta(pid, Some(TID_SERVICE), "thread_name", "service");
        w.meta(pid, Some(TID_MIGRATIONS), "thread_name", "migrations");
        w.meta(pid, Some(TID_MARKS), "thread_name", "marks");

        // An open migration waiting for its Completed/Aborted partner.
        let mut open_mig: Option<(u64, String)> = None;

        for se in stream {
            let at = se.at.as_millis();
            match &se.event {
                TelemetryEvent::LeaseClosed {
                    id,
                    market,
                    spot,
                    reason,
                    start,
                    end,
                    cost,
                } => {
                    let dur = end.as_millis().saturating_sub(start.as_millis());
                    w.span(
                        pid,
                        TID_LEASES,
                        &format!("{market}"),
                        us(start.as_millis()),
                        us(dur),
                        &format!(
                            "\"instance\":\"{id}\",\"spot\":{spot},\"reason\":\"{}\",\"cost\":{cost:.6}",
                            reason.name()
                        ),
                    );
                }
                TelemetryEvent::Outage { start, end } => {
                    let dur = end.as_millis().saturating_sub(start.as_millis());
                    w.span(
                        pid,
                        TID_SERVICE,
                        "outage",
                        us(start.as_millis()),
                        us(dur),
                        "",
                    );
                }
                TelemetryEvent::Degraded { start, end } => {
                    let dur = end.as_millis().saturating_sub(start.as_millis());
                    w.span(
                        pid,
                        TID_SERVICE,
                        "degraded",
                        us(start.as_millis()),
                        us(dur),
                        "",
                    );
                }
                TelemetryEvent::MigrationStarted { kind, from, to } => {
                    open_mig = Some((at, format!("{} {from} -> {to}", kind.name())));
                }
                TelemetryEvent::MigrationCompleted { downtime, .. } => {
                    if let Some((start, name)) = open_mig.take() {
                        w.span(
                            pid,
                            TID_MIGRATIONS,
                            &name,
                            us(start),
                            us(at.saturating_sub(start)),
                            &format!("\"downtime_ms\":{}", downtime.as_millis()),
                        );
                    }
                }
                TelemetryEvent::MigrationAborted { .. } => {
                    if let Some((start, name)) = open_mig.take() {
                        w.span(
                            pid,
                            TID_MIGRATIONS,
                            &format!("{name} (aborted)"),
                            us(start),
                            us(at.saturating_sub(start)),
                            "",
                        );
                    }
                }
                TelemetryEvent::FaultInjected { kind } => {
                    w.instant(
                        pid,
                        TID_MARKS,
                        &format!("fault:{}", kind.name()),
                        us(at),
                        "",
                    );
                }
                TelemetryEvent::BackoffScheduled { attempt, until } => {
                    w.instant(
                        pid,
                        TID_MARKS,
                        &format!("backoff#{attempt}"),
                        us(at),
                        &format!("\"until_ms\":{}", until.as_millis()),
                    );
                }
                TelemetryEvent::RevocationWarning { market, .. } => {
                    w.instant(pid, TID_MARKS, &format!("warning {market}"), us(at), "");
                }
                TelemetryEvent::UnwarnedDeath { market, .. } => {
                    w.instant(
                        pid,
                        TID_MARKS,
                        &format!("unwarned death {market}"),
                        us(at),
                        "",
                    );
                }
                TelemetryEvent::StormStarted { zone } => {
                    w.instant(
                        pid,
                        TID_MARKS,
                        &format!("storm start {}", zone.name()),
                        us(at),
                        "",
                    );
                }
                TelemetryEvent::StormEnded { zone } => {
                    w.instant(
                        pid,
                        TID_MARKS,
                        &format!("storm end {}", zone.name()),
                        us(at),
                        "",
                    );
                }
                TelemetryEvent::QuotaExhausted { market } => {
                    w.instant(pid, TID_MARKS, &format!("quota {market}"), us(at), "");
                }
                // Granted/activated/bids/denials/phases/state changes are
                // high-frequency detail; the lease and migration spans
                // already tell the visual story, so they stay out of the
                // trace to keep it loadable at fleet scale.
                _ => {}
            }
        }
        if let Some((start, name)) = open_mig.take() {
            w.instant(
                pid,
                TID_MIGRATIONS,
                &format!("{name} (unfinished)"),
                us(start),
                "",
            );
        }
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spothost_cloudsim::{InstanceId, TerminationReason};
    use spothost_market::time::{SimDuration, SimTime};
    use spothost_market::types::{InstanceType, MarketId, Zone};
    use spothost_virt::MigrationKind;

    fn se(vm: Option<u32>, at_ms: u64, event: TelemetryEvent) -> StoredEvent {
        StoredEvent {
            vm,
            at: SimTime::millis(at_ms),
            event,
        }
    }

    #[test]
    fn export_builds_tracks_per_vm() {
        let m = MarketId::new(Zone::UsEast1a, InstanceType::Large);
        let m2 = MarketId::new(Zone::UsWest1a, InstanceType::Large);
        let events = vec![
            se(
                Some(0),
                3_600_000,
                TelemetryEvent::LeaseClosed {
                    id: InstanceId(1),
                    market: m,
                    spot: true,
                    reason: TerminationReason::Revoked,
                    start: SimTime::ZERO,
                    end: SimTime::hours(1),
                    cost: 0.1,
                },
            ),
            se(
                Some(0),
                3_600_000,
                TelemetryEvent::MigrationStarted {
                    kind: MigrationKind::Forced,
                    from: m,
                    to: m2,
                },
            ),
            se(
                Some(0),
                3_660_000,
                TelemetryEvent::MigrationCompleted {
                    kind: MigrationKind::Forced,
                    from: m,
                    to: m2,
                    downtime: SimDuration::secs(30),
                    degraded: SimDuration::ZERO,
                },
            ),
            se(
                Some(1),
                10_000,
                TelemetryEvent::Outage {
                    start: SimTime::ZERO,
                    end: SimTime::secs(10),
                },
            ),
            se(
                Some(1),
                20_000,
                TelemetryEvent::StormStarted {
                    zone: Zone::UsEast1a,
                },
            ),
        ];
        let json = to_perfetto_json(&events);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"vm0\""));
        assert!(json.contains("\"vm1\""));
        assert!(json.contains("forced us-east-1a/large -> us-west-1a/large"));
        assert!(json.contains("\"dur\":3600000000")); // 1h lease in µs
        assert!(json.contains("\"outage\""));
        assert!(json.contains("storm start us-east-1a"));
        // Balanced braces: crude but effective structural check for the
        // hand-rolled writer.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn untagged_stream_exports_as_single_run_process() {
        let events = vec![se(
            None,
            1_000,
            TelemetryEvent::FaultInjected {
                kind: spothost_faults::FaultKind::SpotCapacity,
            },
        )];
        let json = to_perfetto_json(&events);
        assert!(json.contains("\"run\""));
        assert!(json.contains("fault:spot-capacity"));
    }

    #[test]
    fn escapes_are_valid_json() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
