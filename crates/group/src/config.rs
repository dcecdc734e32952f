//! Configuration of the group-communication layer.

use std::time::Duration;

use orca_amoeba::message::WIRE_HEADER_BYTES;
use orca_amoeba::network::DEFAULT_PACKET_PAYLOAD;

/// Which broadcast protocol to use for outgoing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodPolicy {
    /// Paper default: PB for messages that fit in one packet, BB for larger
    /// messages.
    Auto,
    /// Always use the PB (point-to-point then broadcast) protocol.
    AlwaysPb,
    /// Always use the BB (broadcast then accept) protocol.
    AlwaysBb,
}

/// Largest payload (bytes) still sent with PB under [`MethodPolicy::Auto`]:
/// what one network packet ([`DEFAULT_PACKET_PAYLOAD`]) carries beside the
/// network's per-message header. The paper switches protocols at one packet.
pub const PB_MAX_PAYLOAD: usize = DEFAULT_PACKET_PAYLOAD - WIRE_HEADER_BYTES;

/// How often the protocol thread wakes up to check timers even when no
/// traffic arrives.
pub const TICK: Duration = Duration::from_millis(20);

/// Most entries a member keeps in its history buffer: what it can still
/// retransmit, and the messages whose ids it remembers.
pub const HISTORY_LIMIT: usize = 65_536;

/// Tunables of one group member.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Protocol selection policy.
    pub method: MethodPolicy,
    /// How long a sender waits for its own message to come back sequenced
    /// before retransmitting the request.
    pub retransmit_timeout: Duration,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            method: MethodPolicy::Auto,
            retransmit_timeout: Duration::from_millis(100),
        }
    }
}

impl GroupConfig {
    /// Configuration that always uses PB (used by the protocol benchmarks).
    pub fn always_pb() -> Self {
        GroupConfig {
            method: MethodPolicy::AlwaysPb,
            ..GroupConfig::default()
        }
    }

    /// Configuration that always uses BB (used by the protocol benchmarks).
    pub fn always_bb() -> Self {
        GroupConfig {
            method: MethodPolicy::AlwaysBb,
            ..GroupConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_choices() {
        let config = GroupConfig::default();
        assert_eq!(config.method, MethodPolicy::Auto);
        assert_eq!(PB_MAX_PAYLOAD, 1448);
        assert!(config.retransmit_timeout > TICK);
    }

    #[test]
    fn forced_policies() {
        assert_eq!(GroupConfig::always_pb().method, MethodPolicy::AlwaysPb);
        assert_eq!(GroupConfig::always_bb().method, MethodPolicy::AlwaysBb);
    }
}
