//! The sequencer's history buffer.
//!
//! Every message the sequencer assigns a global sequence number to is stored
//! here so that members which missed the broadcast can ask for a
//! retransmission. The buffer is bounded; when it overflows, the oldest
//! entry is discarded and handed back, so the member forgets its id too (in
//! the real system the sequencer additionally tracks acknowledgements so it
//! never discards an entry some member still needs — the simulation relies
//! on the generous limit instead, and reports how many entries were ever
//! discarded).

use std::collections::BTreeMap;

use crate::messages::MsgId;

/// One sequenced message kept for retransmission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Identity assigned by the origin.
    pub id: MsgId,
    /// Application payload.
    pub payload: Vec<u8>,
}

/// Bounded buffer of sequenced messages, indexed by global sequence number.
#[derive(Debug)]
pub struct HistoryBuffer {
    entries: BTreeMap<u64, HistoryEntry>,
    limit: usize,
    discarded: u64,
}

impl HistoryBuffer {
    /// Create a buffer keeping at most `limit` entries.
    pub fn new(limit: usize) -> Self {
        assert!(limit > 0, "history limit must be positive");
        HistoryBuffer {
            entries: BTreeMap::new(),
            limit,
            discarded: 0,
        }
    }

    /// Store a sequenced message; when that overfills the buffer, the
    /// oldest entry is discarded and returned.
    pub fn insert(&mut self, global_seq: u64, entry: HistoryEntry) -> Option<(u64, HistoryEntry)> {
        self.entries.insert(global_seq, entry);
        if self.entries.len() <= self.limit {
            return None;
        }
        self.discarded += 1;
        self.entries.pop_first()
    }

    /// Look up a sequenced message for retransmission.
    pub fn get(&self, global_seq: u64) -> Option<&HistoryEntry> {
        self.entries.get(&global_seq)
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries that have been discarded because of the size limit.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Highest sequence number stored so far (0 if none).
    pub fn highest_seq(&self) -> u64 {
        self.entries.keys().next_back().copied().unwrap_or(0)
    }

    /// Lowest sequence number still stored (0 if none). Numbers below this
    /// may have been evicted by the size bound, so their absence proves
    /// nothing about whether they ever existed.
    pub fn lowest_seq(&self) -> u64 {
        self.entries.keys().next().copied().unwrap_or(0)
    }

    /// Entries in the inclusive range `from..=to` that are still available.
    pub fn range(&self, from: u64, to: u64) -> Vec<(u64, HistoryEntry)> {
        self.entries
            .range(from..=to)
            .map(|(&seq, entry)| (seq, entry.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_amoeba::NodeId;

    fn entry(n: u64) -> HistoryEntry {
        HistoryEntry {
            id: MsgId {
                origin: NodeId(0),
                origin_seq: n,
            },
            payload: vec![n as u8],
        }
    }

    #[test]
    fn insert_get_and_range() {
        let mut buffer = HistoryBuffer::new(100);
        for seq in 1..=10 {
            buffer.insert(seq, entry(seq));
        }
        assert_eq!(buffer.len(), 10);
        assert_eq!(buffer.get(5).unwrap().payload, vec![5]);
        assert!(buffer.get(11).is_none());
        assert_eq!(buffer.highest_seq(), 10);
        let range = buffer.range(3, 5);
        assert_eq!(range.len(), 3);
        assert_eq!(range[0].0, 3);
    }

    #[test]
    fn overflow_discards_oldest() {
        let mut buffer = HistoryBuffer::new(3);
        for seq in 1..=3 {
            assert_eq!(buffer.insert(seq, entry(seq)), None);
        }
        for seq in 4..=5 {
            assert_eq!(
                buffer.insert(seq, entry(seq)),
                Some((seq - 3, entry(seq - 3)))
            );
        }
        assert_eq!(buffer.len(), 3);
        assert_eq!(buffer.discarded(), 2);
        assert!(buffer.get(1).is_none());
        assert!(buffer.get(2).is_none());
        assert!(buffer.get(3).is_some());
        assert!(!buffer.is_empty());
    }
}
