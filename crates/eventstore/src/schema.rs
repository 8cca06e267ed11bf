//! The byte codes column encoding relies on: markets, zones, `bool`s
//! and the closed enums each store one byte per field, through
//! `ByteCode`; plus the market, zone and instance-id fields an event
//! carries, which block headers and dictionaries are built from.
//!
//! Every code here is stable: the on-disk format stores it, so a code
//! is never changed or reused, as [`crate::EventKind`] indices are not.

use crate::ColError;
use spothost_cloudsim::{InstanceId, TerminationReason};
use spothost_faults::FaultKind;
use spothost_market::types::{InstanceType, MarketId, Zone};
use spothost_telemetry::{DenialReason, MigrationPhase, SchedulerState, TelemetryEvent};
use spothost_virt::MigrationKind;

/// Dictionary code of a market: its dense index in `0..16`.
pub fn market_code(m: MarketId) -> u8 {
    m.dense_index() as u8
}

/// Dictionary code of a zone.
pub fn zone_code(z: Zone) -> u8 {
    z.index() as u8
}

/// A value a column stores as one byte.
pub(crate) trait ByteCode: Sized {
    /// The value's byte.
    fn code(self) -> u8;
    /// The value of a byte; a byte no value has is corrupt.
    fn from_code(c: u8) -> Result<Self, ColError>;
}

impl ByteCode for MarketId {
    fn code(self) -> u8 {
        market_code(self)
    }

    fn from_code(c: u8) -> Result<Self, ColError> {
        let types = InstanceType::ALL.len() as u8;
        if c >= Zone::ALL.len() as u8 * types {
            return Err(ColError::Corrupt("market code out of range"));
        }
        Ok(MarketId::new(
            Zone::ALL[(c / types) as usize],
            InstanceType::ALL[(c % types) as usize],
        ))
    }
}

impl ByteCode for Zone {
    fn code(self) -> u8 {
        zone_code(self)
    }

    fn from_code(c: u8) -> Result<Self, ColError> {
        Zone::ALL
            .get(usize::from(c))
            .copied()
            .ok_or(ColError::Corrupt("zone code out of range"))
    }
}

/// `false` is 0 and `true` is 1; any other byte is corrupt.
impl ByteCode for bool {
    fn code(self) -> u8 {
        u8::from(self)
    }

    fn from_code(c: u8) -> Result<Self, ColError> {
        match c {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ColError::Corrupt("bool code out of range")),
        }
    }
}

/// One code table per closed enum, listing each variant with its byte
/// once; both directions of [`ByteCode`] are generated from it. The
/// `match` in `code` is exhaustive, so a new variant does not compile
/// until it has a code.
macro_rules! code_tables {
    ($($ty:ident, $what:literal { $($v:ident = $c:literal),+ $(,)? })+) => {$(
        impl ByteCode for $ty {
            fn code(self) -> u8 {
                match self {
                    $($ty::$v => $c,)+
                }
            }

            fn from_code(c: u8) -> Result<Self, ColError> {
                match c {
                    $($c => Ok($ty::$v),)+
                    _ => Err(ColError::Corrupt($what)),
                }
            }
        }
    )+};
}

code_tables! {
    TerminationReason, "termination code out of range" {
        Revoked = 0, Voluntary = 1, FailedAllocation = 2,
    }
    DenialReason, "denial code out of range" {
        UnknownMarket = 0, BidBelowPrice = 1, BidAboveCap = 2, InsufficientCapacity = 3,
        QuotaExhausted = 4,
    }
    MigrationPhase, "phase code out of range" {
        Prepare = 0, LivePrecopy = 1, CkptFlush = 2, Restore = 3, LazyFaultIn = 4,
    }
    SchedulerState, "state code out of range" {
        Boot = 0, Active = 1, Migrating = 2, Evacuating = 3, DownWaiting = 4, Restoring = 5,
        Reacquiring = 6,
    }
    FaultKind, "fault code out of range" {
        SpotCapacity = 0, OdCapacity = 1, StartupFailure = 2, WarningMiss = 3, WarningDelay = 4,
        VolumeDelay = 5, CkptWriteFail = 6, LiveAbort = 7, LazyStorm = 8,
    }
    MigrationKind, "migration kind code out of range" {
        Forced = 0, Planned = 1, Reverse = 2,
    }
}

/// The market fields an event carries (`from`/`to` both count), for block
/// bitmap construction and market predicates.
pub fn markets_of(ev: &TelemetryEvent) -> (Option<MarketId>, Option<MarketId>) {
    match ev {
        TelemetryEvent::BidPlaced { market, .. }
        | TelemetryEvent::LeaseGranted { market, .. }
        | TelemetryEvent::LeaseDenied { market, .. }
        | TelemetryEvent::LeaseActivated { market, .. }
        | TelemetryEvent::ActivationFailed { market, .. }
        | TelemetryEvent::LeaseClosed { market, .. }
        | TelemetryEvent::PriceCrossing { market, .. }
        | TelemetryEvent::RevocationWarning { market, .. }
        | TelemetryEvent::UnwarnedDeath { market, .. }
        | TelemetryEvent::ServiceUp { market, .. }
        | TelemetryEvent::QuotaExhausted { market }
        | TelemetryEvent::JobStarted { market, .. }
        | TelemetryEvent::JobRestarted { market, .. } => (Some(*market), None),
        TelemetryEvent::MigrationStarted { from, to, .. }
        | TelemetryEvent::MigrationCompleted { from, to, .. } => (Some(*from), Some(*to)),
        TelemetryEvent::MigrationAborted { from, .. } => (Some(*from), None),
        TelemetryEvent::MigrationPhase { .. }
        | TelemetryEvent::Outage { .. }
        | TelemetryEvent::Degraded { .. }
        | TelemetryEvent::FaultInjected { .. }
        | TelemetryEvent::BackoffScheduled { .. }
        | TelemetryEvent::StateChange { .. }
        | TelemetryEvent::StormStarted { .. }
        | TelemetryEvent::StormEnded { .. }
        | TelemetryEvent::JobCheckpointed { .. }
        | TelemetryEvent::JobFinished { .. } => (None, None),
    }
}

/// The zones an event touches: zones of its market fields, or the storm
/// zone for storm events.
pub fn zones_of(ev: &TelemetryEvent) -> (Option<Zone>, Option<Zone>) {
    match ev {
        TelemetryEvent::StormStarted { zone } | TelemetryEvent::StormEnded { zone } => {
            (Some(*zone), None)
        }
        _ => {
            let (a, b) = markets_of(ev);
            (a.map(|m| m.zone), b.map(|m| m.zone))
        }
    }
}

/// The instance id an event references, if any (dictionary building).
pub fn instance_of(ev: &TelemetryEvent) -> Option<InstanceId> {
    match ev {
        TelemetryEvent::LeaseGranted { id, .. }
        | TelemetryEvent::LeaseActivated { id, .. }
        | TelemetryEvent::ActivationFailed { id, .. }
        | TelemetryEvent::LeaseClosed { id, .. }
        | TelemetryEvent::PriceCrossing { id, .. }
        | TelemetryEvent::RevocationWarning { id, .. }
        | TelemetryEvent::UnwarnedDeath { id, .. }
        | TelemetryEvent::ServiceUp { id, .. } => Some(*id),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    #[test]
    fn kind_indices_are_dense_and_stable() {
        for (i, k) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i);
            assert_eq!(EventKind::from_index(i), Some(k));
            assert_eq!(EventKind::parse(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_index(EventKind::ALL.len()), None);
        assert_eq!(EventKind::parse("nope"), None);
    }

    #[test]
    fn kind_names_match_event_names() {
        let ev = TelemetryEvent::StormStarted {
            zone: Zone::UsEast1a,
        };
        assert_eq!(ev.kind().name(), ev.name());
        assert_eq!(ev.kind(), EventKind::StormStarted);
    }

    #[test]
    fn market_codes_roundtrip_all_sixteen() {
        for m in MarketId::all() {
            assert_eq!(MarketId::from_code(market_code(m)).unwrap(), m);
        }
        assert!(MarketId::from_code(16).is_err());
    }

    #[test]
    fn enum_codes_roundtrip() {
        for z in Zone::ALL {
            assert_eq!(Zone::from_code(zone_code(z)).unwrap(), z);
        }
        for c in 0..3 {
            assert_eq!(TerminationReason::from_code(c).unwrap().code(), c);
            assert_eq!(MigrationKind::from_code(c).unwrap().code(), c);
        }
        for c in 0..5 {
            assert_eq!(DenialReason::from_code(c).unwrap().code(), c);
            assert_eq!(MigrationPhase::from_code(c).unwrap().code(), c);
        }
        for c in 0..7 {
            assert_eq!(SchedulerState::from_code(c).unwrap().code(), c);
        }
        for c in 0..9 {
            assert_eq!(FaultKind::from_code(c).unwrap().code(), c);
        }
        assert!(Zone::from_code(4).is_err());
        assert!(TerminationReason::from_code(3).is_err());
        assert!(MigrationKind::from_code(3).is_err());
        assert!(DenialReason::from_code(5).is_err());
        assert!(MigrationPhase::from_code(5).is_err());
        assert!(SchedulerState::from_code(7).is_err());
        assert!(FaultKind::from_code(9).is_err());
    }
}
