//! Per-member protocol statistics.

orca_telemetry::counter_set! {
    /// Live counters of one group member's protocol activity,
    /// `group.node<i>.<field>` in the registry.
    ///
    /// These are the numbers behind the PB-vs-BB table (§3.1): how many
    /// messages went through each protocol, how many retransmissions were
    /// needed under message loss, and how much work (duplicates,
    /// out-of-order buffering) the member had to do.
    pub struct GroupStats => GroupStatsSnapshot {
        /// Application messages sent using the PB protocol.
        pb_sent,
        /// Application messages sent using the BB protocol.
        bb_sent,
        /// Messages delivered to the application (in total order).
        delivered,
        /// Messages this member sequenced while acting as sequencer.
        sequenced,
        /// Retransmission requests this member sent (gaps detected).
        retransmit_requests,
        /// Retransmissions this member served from its history buffer.
        retransmissions_served,
        /// Sender-side retries because an own message was not sequenced in time.
        send_retries,
        /// Duplicate protocol messages that were ignored.
        duplicates_ignored,
        /// Messages buffered out of order before they could be delivered.
        buffered_out_of_order,
    }
}

impl GroupStatsSnapshot {
    /// Total application messages this member sent (either protocol).
    pub fn sent(&self) -> u64 {
        self.pb_sent + self.bb_sent
    }

    /// Element-wise difference `self - earlier`, saturating at zero so a
    /// swapped snapshot pair (or one taken around a reset) yields zeros
    /// instead of wrapped near-`u64::MAX` values.
    pub fn since(&self, earlier: &GroupStatsSnapshot) -> GroupStatsSnapshot {
        GroupStatsSnapshot {
            pb_sent: self.pb_sent.saturating_sub(earlier.pb_sent),
            bb_sent: self.bb_sent.saturating_sub(earlier.bb_sent),
            delivered: self.delivered.saturating_sub(earlier.delivered),
            sequenced: self.sequenced.saturating_sub(earlier.sequenced),
            retransmit_requests: self
                .retransmit_requests
                .saturating_sub(earlier.retransmit_requests),
            retransmissions_served: self
                .retransmissions_served
                .saturating_sub(earlier.retransmissions_served),
            send_retries: self.send_retries.saturating_sub(earlier.send_retries),
            duplicates_ignored: self
                .duplicates_ignored
                .saturating_sub(earlier.duplicates_ignored),
            buffered_out_of_order: self
                .buffered_out_of_order
                .saturating_sub(earlier.buffered_out_of_order),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_telemetry::Registry;

    #[test]
    fn snapshot_reflects_bumps() {
        let stats = GroupStats::new(&Registry::new(), "group.node0");
        stats.pb_sent.add(2);
        stats.bb_sent.inc();
        stats.delivered.inc();
        let snap = stats.snapshot();
        assert_eq!(snap.pb_sent, 2);
        assert_eq!(snap.bb_sent, 1);
        assert_eq!(snap.sent(), 3);
        assert_eq!(snap.delivered, 1);
        assert_eq!(snap.retransmit_requests, 0);
    }

    #[test]
    fn since_saturates_instead_of_underflowing() {
        let stats = GroupStats::new(&Registry::new(), "group.node0");
        stats.pb_sent.inc();
        let before = stats.snapshot();
        stats.bb_sent.inc();
        let after = stats.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.pb_sent, 0);
        assert_eq!(delta.bb_sent, 1);
        // Swapped order yields zeros, never wrapped values.
        assert_eq!(before.since(&after), GroupStatsSnapshot::default());
    }
}
