//! Instance identity and lifecycle.

use spothost_market::time::SimTime;
use spothost_market::types::MarketId;
use std::fmt;

/// Opaque handle to a provisioned server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i-{:06}", self.0)
    }
}

/// Purchase mode of an instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstanceKind {
    /// Fixed-price, non-revocable.
    OnDemand,
    /// Variable-price, revoked when the spot price exceeds `bid`.
    Spot { bid: f64 },
}

impl InstanceKind {
    pub fn is_spot(&self) -> bool {
        matches!(self, InstanceKind::Spot { .. })
    }

    pub fn bid(&self) -> Option<f64> {
        match self {
            InstanceKind::Spot { bid } => Some(*bid),
            InstanceKind::OnDemand => None,
        }
    }
}

/// Why an instance lease ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TerminationReason {
    /// The provider revoked a spot server (price exceeded bid). The final
    /// partial instance-hour is not billed.
    Revoked,
    /// The customer released the server. The final partial hour is billed.
    Voluntary,
    /// A spot request whose price rose above the bid while the server was
    /// still booting; no lease ever started and nothing is billed.
    FailedAllocation,
}

impl TerminationReason {
    /// Short lowercase label used in telemetry exports.
    pub fn name(self) -> &'static str {
        match self {
            TerminationReason::Revoked => "revoked",
            TerminationReason::Voluntary => "voluntary",
            TerminationReason::FailedAllocation => "failed-allocation",
        }
    }
}

/// Lifecycle state machine:
/// `Pending -> Running -> Terminated`, with `Running -> RevocationPending ->
/// Terminated` for provider-initiated revocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InstanceState {
    /// Requested, booting; becomes ready at the contained time.
    Pending { ready_at: SimTime },
    /// Serving. The lease clock (billing hours) started at `ready_at`.
    Running,
    /// Revocation warning delivered; the server dies at `terminate_at`.
    RevocationPending { terminate_at: SimTime },
    /// Lease closed.
    Terminated {
        at: SimTime,
        reason: TerminationReason,
    },
}

/// A provisioned (or provisioning) server.
#[derive(Debug, Clone)]
pub struct Instance {
    pub id: InstanceId,
    pub market: MarketId,
    pub kind: InstanceKind,
    pub requested_at: SimTime,
    /// When the server became (or will become) available; also the start of
    /// the billing lease.
    pub ready_at: SimTime,
    pub state: InstanceState,
}

impl Instance {
    pub fn is_running(&self) -> bool {
        matches!(
            self.state,
            InstanceState::Running | InstanceState::RevocationPending { .. }
        )
    }

    pub fn is_terminated(&self) -> bool {
        matches!(self.state, InstanceState::Terminated { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_accessors() {
        assert!(InstanceKind::Spot { bid: 0.2 }.is_spot());
        assert!(!InstanceKind::OnDemand.is_spot());
        assert_eq!(InstanceKind::Spot { bid: 0.2 }.bid(), Some(0.2));
        assert_eq!(InstanceKind::OnDemand.bid(), None);
    }

    #[test]
    fn display_id() {
        assert_eq!(InstanceId(7).to_string(), "i-000007");
    }

    #[test]
    fn running_includes_revocation_pending() {
        use spothost_market::types::{InstanceType, Zone};
        let mut inst = Instance {
            id: InstanceId(1),
            market: MarketId::new(Zone::UsEast1a, InstanceType::Small),
            kind: InstanceKind::Spot { bid: 0.06 },
            requested_at: SimTime::ZERO,
            ready_at: SimTime::secs(280),
            state: InstanceState::Running,
        };
        assert!(inst.is_running());
        inst.state = InstanceState::RevocationPending {
            terminate_at: SimTime::secs(1000),
        };
        assert!(inst.is_running());
        inst.state = InstanceState::Terminated {
            at: SimTime::secs(1000),
            reason: TerminationReason::Revoked,
        };
        assert!(!inst.is_running());
        assert!(inst.is_terminated());
    }
}
