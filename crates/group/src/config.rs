//! Configuration of the group-communication layer.

use std::time::Duration;

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

/// Tunables of one group member.
#[derive(Debug, Clone)]
pub struct GroupConfig {
    /// Protocol selection policy.
    pub method: MethodPolicy,
    /// Largest payload (bytes) still sent with PB under [`MethodPolicy::Auto`].
    /// The paper switches protocols at one network packet.
    pub pb_max_payload: usize,
    /// How long a sender waits for its own message to come back sequenced
    /// before retransmitting the request.
    pub retransmit_timeout: Duration,
    /// How often the protocol thread wakes up to check timers even when no
    /// traffic arrives.
    pub tick: Duration,
    /// Maximum number of entries kept in the sequencer's history buffer.
    pub history_limit: usize,
}

impl Default for GroupConfig {
    fn default() -> Self {
        GroupConfig {
            method: MethodPolicy::Auto,
            pb_max_payload: 1448, // one Ethernet packet minus protocol headers
            retransmit_timeout: Duration::from_millis(100),
            tick: Duration::from_millis(20),
            history_limit: 65_536,
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
        assert!(config.pb_max_payload <= 1480);
        assert!(config.retransmit_timeout > config.tick);
    }

    #[test]
    fn forced_policies() {
        assert_eq!(GroupConfig::always_pb().method, MethodPolicy::AlwaysPb);
        assert_eq!(GroupConfig::always_bb().method, MethodPolicy::AlwaysBb);
    }
}
