//! Hand-rolled JSONL serialization of the event stream (the workspace is
//! offline and carries no serde).
//!
//! One object per line: a `t_ms` emission timestamp and a `kind`
//! discriminator, then the variant's fields with times as `*_ms`
//! integers.

use crate::event::TelemetryEvent;
use spothost_market::time::{SimDuration, SimTime};

/// Minimal JSON object writer. All strings we serialize are internal
/// identifiers (market names, event kinds), but escape anyway so the
/// output is valid JSON no matter what.
struct JsonObj {
    buf: String,
}

impl JsonObj {
    fn new() -> Self {
        JsonObj {
            buf: String::with_capacity(128),
        }
    }

    fn key(&mut self, k: &str) {
        if self.buf.is_empty() {
            self.buf.push('{');
        } else {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    fn u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.buf.push_str(&v.to_string());
    }

    fn f64(&mut self, k: &str, v: f64) {
        self.key(k);
        // Rust's shortest-roundtrip Display is valid JSON for finite
        // values; costs and bids are always finite.
        self.buf.push_str(&v.to_string());
    }

    fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    fn time(&mut self, k: &str, t: SimTime) {
        self.u64(k, t.as_millis());
    }

    fn dur(&mut self, k: &str, d: SimDuration) {
        self.u64(k, d.as_millis());
    }

    fn finish(mut self) -> String {
        if self.buf.is_empty() {
            self.buf.push('{');
        }
        self.buf.push('}');
        self.buf
    }
}

/// Serialize one timed event as a single JSON object (no trailing newline).
pub fn event_to_json(at: SimTime, ev: &TelemetryEvent) -> String {
    let mut o = JsonObj::new();
    o.u64("t_ms", at.as_millis());
    o.str("kind", ev.name());
    match ev {
        TelemetryEvent::BidPlaced {
            market,
            bid,
            predicted_risk,
        } => {
            o.str("market", &market.to_string());
            match bid {
                Some(b) => o.f64("bid", *b),
                None => o.bool("on_demand", true),
            }
            if let Some(r) = predicted_risk {
                o.f64("risk", *r);
            }
        }
        TelemetryEvent::LeaseGranted {
            id,
            market,
            spot,
            ready_at,
        } => {
            o.str("id", &id.to_string());
            o.str("market", &market.to_string());
            o.bool("spot", *spot);
            o.time("ready_ms", *ready_at);
        }
        TelemetryEvent::LeaseDenied {
            market,
            spot,
            reason,
        } => {
            o.str("market", &market.to_string());
            o.bool("spot", *spot);
            o.str("reason", reason.name());
        }
        TelemetryEvent::LeaseActivated { id, market } => {
            o.str("id", &id.to_string());
            o.str("market", &market.to_string());
        }
        TelemetryEvent::ActivationFailed { id, market, doomed } => {
            o.str("id", &id.to_string());
            o.str("market", &market.to_string());
            o.bool("doomed", *doomed);
        }
        TelemetryEvent::LeaseClosed {
            id,
            market,
            spot,
            reason,
            start,
            end,
            cost,
        } => {
            o.str("id", &id.to_string());
            o.str("market", &market.to_string());
            o.bool("spot", *spot);
            o.str("reason", reason.name());
            o.time("start_ms", *start);
            o.time("end_ms", *end);
            o.f64("cost", *cost);
        }
        TelemetryEvent::PriceCrossing { id, market, at } => {
            o.str("id", &id.to_string());
            o.str("market", &market.to_string());
            o.time("crossing_ms", *at);
        }
        TelemetryEvent::RevocationWarning {
            id,
            market,
            terminate_at,
        } => {
            o.str("id", &id.to_string());
            o.str("market", &market.to_string());
            o.time("terminate_ms", *terminate_at);
        }
        TelemetryEvent::UnwarnedDeath { id, market } => {
            o.str("id", &id.to_string());
            o.str("market", &market.to_string());
        }
        TelemetryEvent::MigrationStarted { kind, from, to } => {
            o.str("migration", kind.name());
            o.str("from", &from.to_string());
            o.str("to", &to.to_string());
        }
        TelemetryEvent::MigrationPhase { phase, duration } => {
            o.str("phase", phase.name());
            o.dur("duration_ms", *duration);
        }
        TelemetryEvent::MigrationCompleted {
            kind,
            from,
            to,
            downtime,
            degraded,
        } => {
            o.str("migration", kind.name());
            o.str("from", &from.to_string());
            o.str("to", &to.to_string());
            o.dur("downtime_ms", *downtime);
            o.dur("degraded_ms", *degraded);
        }
        TelemetryEvent::MigrationAborted { kind, from } => {
            o.str("migration", kind.name());
            o.str("from", &from.to_string());
        }
        TelemetryEvent::Outage { start, end } | TelemetryEvent::Degraded { start, end } => {
            o.time("start_ms", *start);
            o.time("end_ms", *end);
            o.dur("duration_ms", *end - *start);
        }
        TelemetryEvent::ServiceUp {
            id,
            market,
            spot,
            first,
        } => {
            o.str("id", &id.to_string());
            o.str("market", &market.to_string());
            o.bool("spot", *spot);
            o.bool("first", *first);
        }
        TelemetryEvent::FaultInjected { kind } => {
            o.str("fault", kind.name());
        }
        TelemetryEvent::BackoffScheduled { attempt, until } => {
            o.u64("attempt", *attempt as u64);
            o.time("until_ms", *until);
        }
        TelemetryEvent::StateChange { state } => {
            o.str("state", state.name());
        }
        TelemetryEvent::StormStarted { zone } | TelemetryEvent::StormEnded { zone } => {
            o.str("zone", zone.name());
        }
        TelemetryEvent::QuotaExhausted { market } => {
            o.str("market", &market.to_string());
        }
        TelemetryEvent::JobStarted { job, market, spot } => {
            o.u64("job", *job as u64);
            o.str("market", &market.to_string());
            o.bool("spot", *spot);
        }
        TelemetryEvent::JobCheckpointed { job, duration } => {
            o.u64("job", *job as u64);
            o.dur("duration_ms", *duration);
        }
        TelemetryEvent::JobRestarted { job, market, lost } => {
            o.u64("job", *job as u64);
            o.str("market", &market.to_string());
            o.dur("lost_ms", *lost);
        }
        TelemetryEvent::JobFinished { job, missed, cost } => {
            o.u64("job", *job as u64);
            o.bool("missed", *missed);
            o.f64("cost", *cost);
        }
    }
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spothost_cloudsim::InstanceId;
    use spothost_market::types::{InstanceType, MarketId, Zone};

    fn market() -> MarketId {
        MarketId::new(Zone::UsEast1a, InstanceType::Small)
    }

    #[test]
    fn json_lines_are_well_formed() {
        let ev = TelemetryEvent::LeaseClosed {
            id: InstanceId(7),
            market: market(),
            spot: true,
            reason: spothost_cloudsim::TerminationReason::Revoked,
            start: SimTime::hours(1),
            end: SimTime::hours(3),
            cost: 0.052,
        };
        let line = event_to_json(SimTime::hours(3), &ev);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"lease_closed\""));
        assert!(line.contains("\"t_ms\":10800000"));
        assert!(line.contains("\"cost\":0.052"));
        assert!(line.contains("\"reason\":\"revoked\""));
        // Balanced braces and quotes (crude well-formedness check).
        assert_eq!(line.matches('"').count() % 2, 0);
    }

    #[test]
    fn json_escapes_control_and_quote_chars() {
        let mut o = JsonObj::new();
        o.str("k", "a\"b\\c\nd");
        let s = o.finish();
        assert_eq!(s, "{\"k\":\"a\\\"b\\\\c\\u000ad\"}");
    }

    #[test]
    fn storm_events_export_cleanly() {
        let ev = TelemetryEvent::StormStarted {
            zone: Zone::UsWest1a,
        };
        let json = event_to_json(SimTime::hours(1), &ev);
        assert!(json.contains("\"kind\":\"storm_started\""), "{json}");
        assert!(json.contains("\"zone\":\"us-west-1a\""), "{json}");
        let q = TelemetryEvent::QuotaExhausted { market: market() };
        let json = event_to_json(SimTime::ZERO, &q);
        assert!(json.contains("\"kind\":\"quota_exhausted\""), "{json}");
    }

    #[test]
    fn bid_exports_carry_predicted_risk_only_when_present() {
        let plain = TelemetryEvent::BidPlaced {
            market: market(),
            bid: Some(0.24),
            predicted_risk: None,
        };
        assert!(!event_to_json(SimTime::ZERO, &plain).contains("risk"));
        let risky = TelemetryEvent::BidPlaced {
            market: market(),
            bid: Some(0.12),
            predicted_risk: Some(0.004),
        };
        let json = event_to_json(SimTime::ZERO, &risky);
        assert!(json.contains("\"risk\":0.004"), "{json}");
    }
}
