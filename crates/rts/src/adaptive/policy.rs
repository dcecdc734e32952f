//! Regime decisions: does an object shard, or is it one copy with mirrors?
//!
//! Each object's home node accumulates per-node read/write counts (from the
//! usage reports every node sends, one per [`AdaptivePolicy::window`]
//! accesses) into a decayed aggregate and, every two windows of reported
//! accesses, re-derives the regime that fits the observed mix:
//!
//! * write-hot (write fraction at or above
//!   [`AdaptivePolicy::shard_write_fraction`]) *and* the type shards →
//!   **sharded** — writes spread over partition owners;
//! * anything else → **replicated** — one copy where the object is written,
//!   a mirror wherever it is read: reads are local there, writes pay the
//!   update fan-out, and a copy nobody reads has nobody to push to.
//!
//! The aggregate is decayed (halved) after every evaluation
//! ([`UsageAggregate::end_window`]), so a stale burst loses half its
//! weight per window and cannot pin a regime after the workload shifts.
//!
//! The same per-node counts decide *where* an object lives
//! ([`UsageAggregate::users`], by the count that matters): a sharded-regime
//! object's partitions on the nodes that access it, spread evenly over them
//! ([`place`]) and mirrored where reads pay for it
//! ([`UsageAggregate::partition_mirrors`]); a replicated-regime object's
//! authoritative copy on a node that writes it and its mirrors on the
//! nodes that read it ([`UsageAggregate::replicate`]).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use orca_object::shard::spread_owner;
use orca_object::ObjectId;
use orca_wire::RegimeKind;

use crate::RtsKind;

/// How a completed write reaches the mirrors of a replicated-regime object
/// (§3.2.2 of the paper: invalidate, or two-phase update).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Discard the mirrors' copies; a listed mirror fetches a fresh one at
    /// its next read.
    Invalidate,
    /// Push the operation to every mirror with a two-phase
    /// lock/update/unlock exchange.
    Update,
}

/// Configuration of the adaptive runtime system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePolicy {
    /// Number of partitions a shardable object is split into when it enters
    /// the sharded regime.
    pub partitions: u32,
    /// Per-invocation deadline for shipped operations; a dropped reply
    /// surfaces [`crate::RtsError::Timeout`]. Guard retries restart it.
    pub op_timeout: Duration,
    /// How long a cached table that lists mirrors — or of the replicated
    /// regime — stays fresh: a mirror's reads ask nobody, so the lease bounds
    /// how long a node can act on a retired regime when the explicit drop
    /// notifications were lost (any other table's operations are answered by
    /// an owner, which refuses an outdated epoch). Also how long a node the
    /// table names — an owner, a mirror — keeps its place without being
    /// heard from.
    pub regime_lease: Duration,
    /// The size of the evidence the regime follows: a node reports its
    /// per-object read/write counts to the object's home every `window`
    /// local accesses, and the home re-evaluates after `2 · window` newly
    /// reported ones. An explicit [`super::AdaptiveRts::propose`] evaluates
    /// whatever has been reported (nothing at all keeps the regime), so
    /// `u64::MAX` leaves every decision to proposals.
    pub window: u64,
    /// Write fraction (writes / total) at or above which a shardable
    /// object becomes sharded.
    pub shard_write_fraction: f64,
    /// How long a caller sleeps before retrying an operation whose guard
    /// was false at the replica, or whose destination is being re-homed.
    pub blocked_retry_delay: Duration,
    /// How long a caller sleeps before re-fetching the regime table after
    /// an operation bounced off a regime switch in flight. Model-checking
    /// scenarios stretch this past their schedule horizon so a bounced
    /// operation waits out the switch instead of flooding the network
    /// with table re-fetches.
    pub stale_retry_delay: Duration,
    /// Validity, in milliseconds, of the read leases an owner — of a copy or
    /// a partition — grants to its mirrors (0 disables leases).
    ///
    /// While a mirror's lease is valid it serves reads with **zero
    /// messages**; every update push renews it, and a write whose push
    /// could not reach a live mirror waits out that mirror's grant before
    /// completing, which keeps leased reads linearizable even though the
    /// mirror fan-out is otherwise best-effort. A mirror whose lease
    /// lapsed (idle owner) asks the owner for a renewal, and gets the state
    /// with it only if it fell behind.
    pub read_lease_ms: u64,
    /// How a completed write reaches a replicated-regime object's mirrors.
    pub write: WritePolicy,
    /// Serve every object in this regime, from its creation on, instead of
    /// picking one from its access mix. A pin fixes the regime; placement is
    /// always by use: usage is counted, reported and evaluated as without
    /// one, and an evaluation re-places the object within its regime.
    ///
    /// * `Some(Sharded)` — the `sharded` backend: an object is created
    ///   partitioned (a type that does not shard as one partition at its
    ///   creator) and spread over all nodes, where nobody's use has placed
    ///   it yet; its partitions then follow the nodes that access it, and
    ///   are mirrored where reads pay for it. A hand move
    ///   ([`super::AdaptiveRts::migrate`]) lasts until the next evaluation.
    /// * `Some(Replicated)` — the `primary` backend, the paper's
    ///   point-to-point runtime system: one authoritative copy, created at
    ///   the creator, and a dynamic set of secondary copies: the copy moves
    ///   to a node that writes it, mirrors come and go where it is read.
    pub pin: Option<RegimeKind>,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            partitions: 4,
            op_timeout: Duration::from_secs(10),
            regime_lease: Duration::from_millis(200),
            window: 64,
            shard_write_fraction: 0.5,
            blocked_retry_delay: Duration::from_millis(20),
            stale_retry_delay: Duration::from_millis(5),
            read_lease_ms: 150,
            write: WritePolicy::Update,
            pin: None,
        }
    }
}

impl AdaptivePolicy {
    /// An eager variant that reports, evaluates and switches after very
    /// little evidence — used by tests and the conformance suite so short
    /// runs actually exercise regime switches.
    pub fn eager() -> Self {
        AdaptivePolicy {
            window: 8,
            regime_lease: Duration::from_millis(50),
            ..AdaptivePolicy::default()
        }
    }

    /// The regime pinned to sharded, `partitions` partitions per shardable
    /// object.
    pub fn sharded(partitions: u32) -> Self {
        AdaptivePolicy {
            partitions,
            pin: Some(RegimeKind::Sharded),
            ..AdaptivePolicy::default()
        }
    }

    /// The regime pinned to replicated — primary copy — with the given
    /// write policy.
    pub fn primary_copy(write: WritePolicy) -> Self {
        AdaptivePolicy {
            write,
            pin: Some(RegimeKind::Replicated),
            ..AdaptivePolicy::default()
        }
    }

    /// Which runtime system a node running this policy is.
    pub fn kind(&self) -> RtsKind {
        match (self.pin, self.write) {
            (None, _) => RtsKind::Adaptive,
            (Some(RegimeKind::Sharded), _) => RtsKind::Sharded,
            (Some(_), WritePolicy::Update) => RtsKind::PrimaryUpdate,
            (Some(_), WritePolicy::Invalidate) => RtsKind::PrimaryInvalidate,
        }
    }
}

/// How far the evidence must miss the sharded regime's threshold before an
/// object *leaves* it: entering takes the threshold, staying half of it —
/// the band [`UsageAggregate::users`] gives a node the table names. Decayed
/// counts are noisy, a mix that sits on the threshold crosses it every other
/// window, and every switch re-ships the object's state.
const LEAVE_FACTOR: f64 = 2.0;

/// Pick the regime that fits an observed read/write mix, for an object now
/// served in `current`: sharded when its type shards and the write share
/// clears the bar, else replicated.
pub(crate) fn pick_regime(
    reads: u64,
    writes: u64,
    shardable: bool,
    num_nodes: usize,
    current: RegimeKind,
    policy: &AdaptivePolicy,
) -> RegimeKind {
    let bar = match current {
        RegimeKind::Sharded => policy.shard_write_fraction / LEAVE_FACTOR,
        _ => policy.shard_write_fraction,
    };
    let spreads = shardable && num_nodes > 1 && policy.partitions > 1;
    if spreads && writes > 0 && writes as f64 >= bar * (reads + writes) as f64 {
        RegimeKind::Sharded
    } else {
        RegimeKind::Replicated
    }
}

/// Owner of partition `partition` of `object` under the sharded regime:
/// the deterministic hashed spread
/// ([`orca_object::shard::spread_owner`]) over the nodes that use the
/// object ([`UsageAggregate::users`]) — all of them when nothing is known,
/// which is where an object is created under the sharded pin. With `k` of
/// `N` nodes using an object evenly, `1 − 1/k` of the operations travel
/// instead of `1 − 1/N`, pinned or not.
pub(crate) fn place(object: ObjectId, partition: u32, users: &[u16]) -> u16 {
    users[usize::from(spread_owner(object.0, partition, users.len()))]
}

/// Which of a node's decayed counts makes it a user
/// ([`UsageAggregate::users`]).
#[derive(Clone, Copy)]
pub(crate) enum Count {
    /// Reads and writes: who a sharded regime's partitions serve.
    Accesses,
    /// Reads: who a replicated regime's mirrors serve.
    Reads,
    /// Writes: who its authoritative copy serves.
    Writes,
}

impl Count {
    /// Counts arrive in reports off the wire: wide enough not to wrap.
    fn of(self, usage: &NodeUsage) -> u128 {
        let (reads, writes) = (u128::from(usage.reads), u128::from(usage.writes));
        match self {
            Count::Accesses => reads + writes,
            Count::Reads => reads,
            Count::Writes => writes,
        }
    }
}

/// What the home knows of one node's use of an object.
struct NodeUsage {
    /// Decayed read and write counts.
    reads: u64,
    writes: u64,
    /// When the node last reported.
    heard: Instant,
    /// When it last reported reads.
    heard_reading: Option<Instant>,
}

/// The home node's decayed per-node usage aggregate for one object.
#[derive(Default)]
pub(crate) struct UsageAggregate {
    per_node: HashMap<u16, NodeUsage>,
    /// Accesses reported since the last evaluation.
    since_eval: u64,
}

impl UsageAggregate {
    /// Fold one usage report in. Returns true if enough new evidence has
    /// accumulated for an evaluation: two windows of it.
    pub(crate) fn report(&mut self, node: u16, reads: u64, writes: u64, window: u64) -> bool {
        let now = Instant::now();
        let usage = self.per_node.entry(node).or_insert_with(|| NodeUsage {
            reads: 0,
            writes: 0,
            heard: now,
            heard_reading: None,
        });
        usage.reads = usage.reads.saturating_add(reads);
        usage.writes = usage.writes.saturating_add(writes);
        usage.heard = now;
        if reads > 0 {
            usage.heard_reading = Some(now);
        }
        self.since_eval += reads + writes;
        self.since_eval >= window.saturating_mul(2)
    }

    /// Drop what `node` has reported: it stopped answering, and whatever it
    /// goes on to use the object for it will report again.
    pub(crate) fn forget(&mut self, node: u16) {
        self.per_node.remove(&node);
    }

    /// Total decayed (reads, writes) over all reporting nodes.
    pub(crate) fn totals(&self) -> (u64, u64) {
        self.per_node
            .values()
            .fold((0, 0), |(r, w), usage| (r + usage.reads, w + usage.writes))
    }

    /// The nodes that use the object, sorted, `by` the count that matters
    /// to what is being placed: the ones a sharded regime's partitions are
    /// spread over, a replicated regime's readers, its writers. A node is a
    /// user when its share of the decayed count is at least a quarter of an
    /// even share (`1 / (4 · num_nodes)`); a node in `current_owners` — the
    /// nodes the published table names — stays one until it falls below an
    /// eighth, so a node hovering at the threshold does not move anything
    /// back and forth — and, whatever its share, for as long as its last
    /// report is younger than `grace`: windows are counted in accesses, a
    /// busy object closes one every millisecond, and a node whose reports
    /// were held up for a few of them (a descheduled thread is enough) has
    /// stalled, not left. A reader is held to more: its last report *of
    /// reads* — a mirror costs a push every write, and a node that goes on
    /// reporting writes has not stalled, it has stopped reading. With no
    /// evidence of any use at all every node is a user; with evidence, none
    /// of it counted `by`, nobody is.
    ///
    /// Membership, not seats in proportion to the counts: in a closed loop
    /// the node that owns more partitions is faster and therefore reports
    /// more, so a proportional split confirms whatever it last produced,
    /// while an even spread over the users has one answer.
    pub(crate) fn users(
        &self,
        by: Count,
        num_nodes: usize,
        current_owners: &[u16],
        grace: Duration,
    ) -> Vec<u16> {
        let total_of = |by: Count| -> u128 {
            let counts = self.per_node.values().map(|usage| by.of(usage));
            counts.sum()
        };
        if total_of(Count::Accesses) == 0 {
            return (0..num_nodes as u16).collect();
        }
        let total = total_of(by);
        let mut users: Vec<u16> = self
            .per_node
            .iter()
            .filter(|(node, usage)| {
                let owner = current_owners.contains(node);
                let per_even_share = if owner { 8 } else { 4 };
                let accesses = by.of(usage);
                let share = accesses > 0 && accesses * per_even_share * num_nodes as u128 >= total;
                let heard = match by {
                    Count::Reads => usage.heard_reading,
                    Count::Accesses | Count::Writes => Some(usage.heard),
                };
                let lately = heard.is_some_and(|heard| heard.elapsed() < grace);
                usize::from(**node) < num_nodes && (share || (owner && lately))
            })
            .map(|(node, _)| *node)
            .collect();
        users.sort_unstable();
        users
    }

    /// Owner and mirrors (sorted, without the owner) of a replicated-regime
    /// object, by use, given the `owner` and `mirrors` it has now — the
    /// home and none when it enters the regime. Mirrors are the users by
    /// reads. The owner stays while it is among the users by writes;
    /// otherwise the copy moves to the one with the most decayed writes,
    /// the lowest id among equals. Membership again, not "whoever writes
    /// more": with the handful of writes a node reports per window a
    /// proportional rule would flip on noise several times a second, and
    /// every flip re-ships the state. Nothing known about writes keeps the
    /// owner; nothing known at all — a forced switch — puts a mirror
    /// everywhere, the placement before there was a rule.
    pub(crate) fn replicate(
        &self,
        num_nodes: usize,
        owner: u16,
        mirrors: &[u16],
        grace: Duration,
    ) -> (u16, Vec<u16>) {
        let named: Vec<u16> = mirrors.iter().copied().chain([owner]).collect();
        let writes = |node: &u16| self.per_node.get(node).map_or(0, |u| u.writes);
        let writers = self.users(Count::Writes, num_nodes, &named, grace);
        let busiest = writers
            .iter()
            .filter(|node| writes(node) > 0)
            .max_by_key(|node| (writes(node), std::cmp::Reverse(**node)));
        let owner = match busiest {
            Some(&busiest) if !writers.contains(&owner) => busiest,
            _ => owner,
        };
        let mut readers = self.users(Count::Reads, num_nodes, &named, grace);
        readers.retain(|node| *node != owner);
        (owner, readers)
    }

    /// The nodes that mirror every partition of a sharded-regime object they
    /// do not own (sorted), given the ones the table lists: a mirror costs two
    /// messages per write of another node and saves two per read, so a user
    /// by reads joins at twice the others' decayed writes and, listed, stays
    /// at once or while heard reading within `grace` ([`UsageAggregate::users`]).
    pub(crate) fn partition_mirrors(
        &self,
        num_nodes: usize,
        listed: &[u16],
        grace: Duration,
    ) -> Vec<u16> {
        let (_, writes) = self.totals();
        let pays = |node: &u16, usage: &NodeUsage| {
            let (reads, others) = (u128::from(usage.reads), u128::from(writes - usage.writes));
            let lately = usage.heard_reading.is_some_and(|at| at.elapsed() < grace);
            match listed.contains(node) {
                true => lately || reads >= others,
                false => reads > 0 && reads >= 2 * others,
            }
        };
        let mut readers = self.users(Count::Reads, num_nodes, listed, grace);
        readers.retain(|node| self.per_node.get(node).is_some_and(|u| pays(node, u)));
        readers
    }

    /// Close the evaluation window: halve every node's counts — a stale
    /// burst loses half its weight per window instead of pinning the regime
    /// forever, as a running total would, or being forgotten at once — and
    /// reset the evaluation trigger.
    pub(crate) fn end_window(&mut self) {
        for usage in self.per_node.values_mut() {
            usage.reads /= 2;
            usage.writes /= 2;
        }
        self.since_eval = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl UsageAggregate {
        /// An aggregate holding `reads[node]` decayed reads and
        /// `writes[node]` decayed writes per node (a missing entry is
        /// zero), each reported just now; a node of no weight was never
        /// heard from.
        pub(crate) fn of(reads: &[u64], writes: &[u64]) -> Self {
            let mut usage = UsageAggregate::default();
            for node in 0..reads.len().max(writes.len()) {
                let count = |counts: &[u64]| counts.get(node).copied().unwrap_or(0);
                if count(reads) + count(writes) > 0 {
                    usage.report(node as u16, count(reads), count(writes), u64::MAX);
                }
            }
            // Evidence to place by, not a window about to close.
            usage.since_eval = 0;
            usage
        }

        /// [`UsageAggregate::of`] writes alone.
        pub(crate) fn of_writes(weights: &[u64]) -> Self {
            UsageAggregate::of(&[], weights)
        }
    }

    /// The share rule alone: no owner is kept for having reported lately.
    const NO_GRACE: Duration = Duration::ZERO;

    #[test]
    fn regime_decision_rules() {
        let policy = AdaptivePolicy::default();
        // What an object in the replicated regime — where the sharded one
        // has a threshold to clear — is offered.
        let pick = |reads, writes, shardable, nodes| {
            let current = RegimeKind::Replicated;
            pick_regime(reads, writes, shardable, nodes, current, &policy)
        };
        // Write-hot shardable: shard.
        assert_eq!(pick(10, 90, true, 4), RegimeKind::Sharded);
        assert_eq!(pick(50, 50, true, 4), RegimeKind::Sharded);
        // Everything else is one copy and whatever mirrors its readers are
        // worth: read-dominated or mixed, write-hot but not shardable (or
        // nothing to spread over), nothing known.
        assert_eq!(pick(90, 10, true, 4), RegimeKind::Replicated);
        assert_eq!(pick(50, 0, false, 4), RegimeKind::Replicated);
        assert_eq!(pick(60, 40, true, 4), RegimeKind::Replicated);
        assert_eq!(pick(10, 90, false, 4), RegimeKind::Replicated);
        assert_eq!(pick(10, 90, true, 1), RegimeKind::Replicated);
        assert_eq!(pick(0, 0, true, 4), RegimeKind::Replicated);
    }

    #[test]
    fn a_mix_on_a_threshold_never_flaps() {
        let policy = AdaptivePolicy::default();
        let pick = |reads, writes, current| pick_regime(reads, writes, true, 3, current, &policy);
        // Every read-modify-write loop is an even mix, which is the sharded
        // regime's threshold exactly: decay noise puts the window on either
        // side of it. Once sharded the object stays sharded.
        for reads in [48, 52, 47, 53, 50, 60, 70] {
            assert_eq!(pick(reads, 50, RegimeKind::Sharded), RegimeKind::Sharded);
        }
        // It leaves when the writes miss the threshold by half.
        assert_eq!(pick(150, 50, RegimeKind::Sharded), RegimeKind::Sharded);
        assert_eq!(pick(154, 50, RegimeKind::Sharded), RegimeKind::Replicated);
        // Seen from the replicated regime that lower bar means nothing: a
        // count hovering around it never enters.
        for writes in [26, 30, 25, 31, 28, 49] {
            let offered = pick(50, writes, RegimeKind::Replicated);
            assert_eq!(offered, RegimeKind::Replicated, "{writes} writes");
        }
        assert_eq!(pick(50, 50, RegimeKind::Replicated), RegimeKind::Sharded);
    }

    fn owners_of(object: ObjectId, partitions: u32, users: &[u16]) -> Vec<u16> {
        (0..partitions).map(|p| place(object, p, users)).collect()
    }

    #[test]
    fn users_are_the_nodes_that_access_the_object() {
        // No evidence: every node, which is the fixed hashed spread.
        assert_eq!(
            UsageAggregate::default().users(Count::Accesses, 3, &[], NO_GRACE),
            vec![0, 1, 2]
        );
        assert_eq!(
            UsageAggregate::of_writes(&[0, 0, 0]).users(Count::Accesses, 3, &[0], NO_GRACE),
            vec![0, 1, 2]
        );
        // The idle creator of a table two other nodes write is not a user,
        // whether or not it owns a partition today.
        assert_eq!(
            UsageAggregate::of_writes(&[0, 64, 64]).users(Count::Accesses, 3, &[], NO_GRACE),
            vec![1, 2]
        );
        assert_eq!(
            UsageAggregate::of_writes(&[0, 64, 64]).users(
                Count::Accesses,
                3,
                &[0, 1, 2, 0],
                NO_GRACE
            ),
            vec![1, 2]
        );
        // One node's evidence alone places everything on that node.
        assert_eq!(
            UsageAggregate::of_writes(&[0, 64, 0]).users(Count::Accesses, 3, &[], NO_GRACE),
            vec![1]
        );
        // A count that decayed to nothing is no evidence of use.
        let mut faded = UsageAggregate::of_writes(&[1, 64, 64]);
        faded.end_window();
        assert_eq!(faded.users(Count::Accesses, 3, &[0], NO_GRACE), vec![1, 2]);
        // A report naming a node outside the pool never places anything.
        assert_eq!(
            UsageAggregate::of_writes(&[0, 64, 64, 64]).users(Count::Accesses, 3, &[], NO_GRACE),
            vec![1, 2]
        );
    }

    #[test]
    fn users_join_at_a_quarter_share_and_owners_leave_below_an_eighth() {
        // Three nodes: an even share is 1/3, joining takes 1/12 of the
        // accesses, an owner stays down to 1/24.
        let joins = UsageAggregate::of_writes(&[10, 55, 55]); // 10/120 = 1/12
        assert_eq!(
            joins.users(Count::Accesses, 3, &[], NO_GRACE),
            vec![0, 1, 2]
        );
        let short = UsageAggregate::of_writes(&[9, 55, 56]); // 9/120 < 1/12
        assert_eq!(short.users(Count::Accesses, 3, &[], NO_GRACE), vec![1, 2]);
        assert_eq!(
            short.users(Count::Accesses, 3, &[0, 1], NO_GRACE),
            vec![0, 1, 2],
            "an owner stays"
        );
        let stays = UsageAggregate::of_writes(&[5, 57, 58]); // 5/120 = 1/24
        assert_eq!(
            stays.users(Count::Accesses, 3, &[0, 1], NO_GRACE),
            vec![0, 1, 2]
        );
        let leaves = UsageAggregate::of_writes(&[4, 58, 58]); // 4/120 < 1/24
        assert_eq!(
            leaves.users(Count::Accesses, 3, &[0, 1], NO_GRACE),
            vec![1, 2]
        );
        // A 2 % trickle never joins.
        assert_eq!(
            UsageAggregate::of_writes(&[2, 49, 49]).users(Count::Accesses, 3, &[], NO_GRACE),
            vec![1, 2]
        );

        // A node oscillating between the two thresholds never changes the
        // list, from either side.
        for owned in [&[1u16, 2][..], &[0, 1, 2][..]] {
            let mut owners: Vec<u16> = owned.to_vec();
            let before = UsageAggregate::of_writes(&[6, 57, 57]).users(
                Count::Accesses,
                3,
                &owners,
                NO_GRACE,
            );
            for weight in [6u64, 9, 5, 8, 6, 9] {
                let users = UsageAggregate::of_writes(&[weight, 57, 57]).users(
                    Count::Accesses,
                    3,
                    &owners,
                    NO_GRACE,
                );
                assert_eq!(users, before, "weight {weight} moved the list");
                owners = users;
            }
        }
    }

    #[test]
    fn an_owner_heard_from_lately_has_stalled_not_left() {
        // Node 2's reports were held up for a handful of windows: its
        // decayed share is gone, but the home heard from it a moment ago.
        let mut usage = UsageAggregate::of_writes(&[0, 64, 64]);
        for _ in 0..8 {
            usage.report(1, 0, 128, u64::MAX);
            usage.end_window();
        }
        let lease = Duration::from_secs(3600);
        assert_eq!(
            usage.users(Count::Accesses, 3, &[1, 2, 1, 2], lease),
            vec![1, 2]
        );
        // The grace keeps owners, it admits nobody: a node that owns
        // nothing joins on its share alone.
        assert_eq!(
            usage.users(Count::Accesses, 3, &[1, 1, 1, 1], lease),
            vec![1]
        );
        // Once the silence has outlasted the grace, the share decides.
        assert_eq!(
            usage.users(Count::Accesses, 3, &[1, 2, 1, 2], NO_GRACE),
            vec![1]
        );
    }

    #[test]
    fn owners_are_an_even_deterministic_spread_over_the_users() {
        let object = ObjectId::compose(0, 1);
        // (0, ½, ½) of three nodes: both users own two of four partitions.
        let users =
            UsageAggregate::of_writes(&[0, 64, 64]).users(Count::Accesses, 3, &[], NO_GRACE);
        let owners = owners_of(object, 4, &users);
        assert_eq!(owners.len(), 4);
        assert!(owners.iter().all(|owner| users.contains(owner)));
        for user in &users {
            assert_eq!(owners.iter().filter(|o| *o == user).count(), 2);
        }
        // The same list presented again — now with hysteresis in play —
        // gives the same vector, so a steady load never moves a partition.
        let again =
            UsageAggregate::of_writes(&[0, 64, 64]).users(Count::Accesses, 3, &owners, NO_GRACE);
        assert_eq!(owners_of(object, 4, &again), owners);
        // No evidence is the fixed sharded runtime's placement.
        let everyone = UsageAggregate::default().users(Count::Accesses, 3, &[], NO_GRACE);
        let spread: Vec<u16> = (0..4).map(|p| spread_owner(object.0, p, 3)).collect();
        assert_eq!(owners_of(object, 4, &everyone), spread);

        // More users than partitions: some user owns nothing, and must not
        // count as a change when the same evidence comes back (owner
        // *vectors* are compared, never owner sets with user sets).
        let crowd = UsageAggregate::of_writes(&[40, 40, 40, 40, 40, 40]);
        let users = crowd.users(Count::Accesses, 6, &[], NO_GRACE);
        assert_eq!(users, vec![0, 1, 2, 3, 4, 5]);
        let owners = owners_of(object, 4, &users);
        let distinct: std::collections::BTreeSet<u16> = owners.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "consecutive partitions, distinct users");
        assert_eq!(
            owners_of(
                object,
                4,
                &crowd.users(Count::Accesses, 6, &owners, NO_GRACE)
            ),
            owners
        );
    }

    /// One hour: any report made in this test is inside the grace.
    const LONG_GRACE: Duration = Duration::from_secs(3600);

    #[test]
    fn a_replicated_object_is_owned_where_it_is_written_and_mirrored_where_it_is_read() {
        // The ledger's read-mostly cell: the creator idle, two nodes at
        // 90/10. Entering the regime (the copy is at the home, no mirrors):
        // the owner is one of the two, the mirror the other, nothing on 0.
        let usage = UsageAggregate::of(&[0, 58, 58], &[0, 6, 6]);
        let placed = usage.replicate(3, 0, &[], NO_GRACE);
        assert_eq!(placed, (1, vec![2]), "equal writers: the lowest id");
        // The same evidence presented again moves nothing, with or without
        // the grace: no switch under a steady load.
        for grace in [NO_GRACE, LONG_GRACE] {
            assert_eq!(usage.replicate(3, placed.0, &placed.1, grace), placed);
        }
        // Reads only: the owner stays, the mirrors are the readers.
        let readers = UsageAggregate::of(&[0, 40, 40, 0], &[]);
        assert_eq!(readers.replicate(4, 0, &[], NO_GRACE), (0, vec![1, 2]));
        assert_eq!(readers.replicate(4, 3, &[0], NO_GRACE), (3, vec![1, 2]));
        // No evidence: what a forced switch has always built.
        let nothing = UsageAggregate::default();
        assert_eq!(nothing.replicate(3, 0, &[], NO_GRACE), (0, vec![1, 2]));
        assert_eq!(nothing.replicate(3, 2, &[1], LONG_GRACE), (2, vec![0, 1]));
    }

    #[test]
    fn the_replicated_owner_is_sticky() {
        // Out-written six to one, the owner is still a writer: it stays.
        let lopsided = UsageAggregate::of_writes(&[0, 5, 30]);
        assert_eq!(lopsided.replicate(3, 1, &[2], NO_GRACE).0, 1);
        // It stopped writing (it still reads, so the home hears from it):
        // inside the grace it has stalled, past it the copy moves.
        let stopped = UsageAggregate::of(&[0, 10, 10], &[0, 0, 30]);
        assert_eq!(stopped.replicate(3, 1, &[2], LONG_GRACE), (1, vec![2]));
        assert_eq!(stopped.replicate(3, 1, &[2], NO_GRACE), (2, vec![1]));
        // Silence alone moves nothing: only a writer can take the copy.
        let silent = UsageAggregate::of(&[0, 0, 10], &[]);
        assert_eq!(silent.replicate(3, 1, &[2], NO_GRACE), (1, vec![2]));
        // Equal writers: the lowest id, whatever order the map iterates in
        // (every aggregate hashes with its own keys).
        for _ in 0..32 {
            let tied = UsageAggregate::of_writes(&[0, 7, 7, 7]);
            assert_eq!(tied.replicate(4, 0, &[], NO_GRACE).0, 1);
        }
    }

    #[test]
    fn a_node_that_only_writes_keeps_no_mirror() {
        // The ledger's write workloads under the replicated pin: nodes 1
        // and 2 write in turns and read nothing. Evidence, none of it
        // reads: no mirror anywhere — not even on the node the table names,
        // which the home heard from (writing) a moment ago.
        let writers = UsageAggregate::of_writes(&[0, 64, 64]);
        for grace in [NO_GRACE, LONG_GRACE] {
            assert_eq!(writers.replicate(3, 1, &[2], grace), (1, vec![]));
            assert_eq!(writers.replicate(3, 0, &[], grace), (1, vec![]));
        }
        // A mirror whose reads stalled — decayed to nothing — but who was
        // heard *reading* inside the grace stays; past it, it goes.
        let mut stalled = UsageAggregate::of(&[0, 0, 4], &[0, 64, 64]);
        for _ in 0..4 {
            stalled.report(1, 0, 64, u64::MAX);
            stalled.report(2, 0, 64, u64::MAX);
            stalled.end_window();
        }
        assert_eq!(stalled.replicate(3, 1, &[2], LONG_GRACE), (1, vec![2]));
        assert_eq!(stalled.replicate(3, 1, &[2], NO_GRACE), (1, vec![]));
        // The grace keeps mirrors, it makes none.
        assert_eq!(stalled.replicate(3, 1, &[], LONG_GRACE), (1, vec![]));
        // No evidence at all — the forced switch — still mirrors everywhere.
        let nothing = UsageAggregate::default();
        assert_eq!(nothing.replicate(3, 1, &[], LONG_GRACE), (1, vec![0, 2]));
    }

    #[test]
    fn trickle_readers_never_mirror_and_hovering_ones_never_move_the_list() {
        // A 2 % reader ships its reads; it is not worth a push per write.
        let trickle = UsageAggregate::of(&[2, 49, 49], &[0, 5, 5]);
        assert_eq!(trickle.replicate(3, 1, &[2], NO_GRACE), (1, vec![2]));
        // Between an eighth and a quarter of an even share (1/24 .. 1/12
        // of the reads) a node stays what it is, from either side.
        for mirrors in [&[2u16][..], &[0, 2][..]] {
            let mut placed = (1, mirrors.to_vec());
            for weight in [6u64, 9, 5, 8, 6, 9] {
                let usage = UsageAggregate::of(&[weight, 57, 57], &[0, 6, 6]);
                let again = usage.replicate(3, placed.0, &placed.1, NO_GRACE);
                assert_eq!(again.1, mirrors, "weight {weight} moved the list");
                placed = again;
            }
        }
    }

    #[test]
    fn a_read_mostly_object_mirrors_its_partitions_on_its_readers() {
        // The ledger's read-mostly cell under the sharded pin: the creator
        // idle, two nodes at 90/10. Each reads nine times what the other
        // writes: both mirror, the idle creator does not.
        let usage = UsageAggregate::of(&[0, 58, 58], &[0, 6, 6]);
        assert_eq!(usage.partition_mirrors(3, &[], NO_GRACE), vec![1, 2]);
        // A pure reader beside a writer: the reader only.
        let reader = UsageAggregate::of(&[0, 0, 40], &[0, 10, 0]);
        assert_eq!(reader.partition_mirrors(3, &[], NO_GRACE), vec![2]);
        // An even mix never mirrors: a node's reads are the other's writes.
        let even = UsageAggregate::of(&[0, 32, 32], &[0, 32, 32]);
        assert_eq!(even.partition_mirrors(3, &[], NO_GRACE), Vec::<u16>::new());
        // No evidence — a forced switch — mirrors nothing.
        let nothing = UsageAggregate::default();
        assert_eq!(
            nothing.partition_mirrors(3, &[], NO_GRACE),
            Vec::<u16>::new()
        );
    }

    #[test]
    fn a_write_hot_object_read_at_a_trickle_mirrors_nothing() {
        // Two writers; a third node reads a little. Its reads are a user's
        // share, but a mirror would cost a push per write of the others for
        // a round trip saved per read: none of them pays.
        let trickle = UsageAggregate::of(&[0, 4, 4, 20], &[0, 40, 40, 0]);
        assert_eq!(
            trickle.users(Count::Reads, 4, &[], NO_GRACE),
            vec![1, 2, 3],
            "every reader is a user"
        );
        assert_eq!(
            trickle.partition_mirrors(4, &[], NO_GRACE),
            Vec::<u16>::new()
        );
        // Writes only: no reader, no mirror.
        let writers = UsageAggregate::of_writes(&[0, 64, 64]);
        assert_eq!(
            writers.partition_mirrors(3, &[], NO_GRACE),
            Vec::<u16>::new()
        );
    }

    #[test]
    fn a_listed_partition_mirror_survives_a_dip_from_twice_to_once() {
        // Node 2 reads 30 against node 1's 10 writes (3x): it joins.
        let joins = UsageAggregate::of(&[0, 0, 30], &[0, 10, 0]);
        assert_eq!(joins.partition_mirrors(3, &[], NO_GRACE), vec![2]);
        // Its reads dip to 1.5x, then 1x: unlisted it would not join, listed
        // it stays — the band a node the table names gets.
        for reads in [15, 10] {
            let dipped = UsageAggregate::of(&[0, 0, reads], &[0, 10, 0]);
            let none = Vec::<u16>::new();
            assert_eq!(dipped.partition_mirrors(3, &[], NO_GRACE), none, "{reads}");
            assert_eq!(
                dipped.partition_mirrors(3, &[2], NO_GRACE),
                vec![2],
                "{reads}"
            );
        }
        // Below the writes it goes — once it has not been heard reading for
        // a grace: a reader whose count decayed while a switch stalled it
        // has not left.
        let below = UsageAggregate::of(&[0, 0, 9], &[0, 10, 0]);
        let none = Vec::<u16>::new();
        assert_eq!(below.partition_mirrors(3, &[2], NO_GRACE), none);
        assert_eq!(below.partition_mirrors(3, &[2], LONG_GRACE), vec![2]);
        // The grace keeps mirrors, it makes none.
        assert_eq!(below.partition_mirrors(3, &[], LONG_GRACE), none);
    }

    #[test]
    fn usage_aggregate_windows_and_decays() {
        // Two windows of 64 reported accesses are an evaluation.
        let window = AdaptivePolicy::default().window;
        let mut usage = UsageAggregate::default();
        assert!(!usage.report(0, 30, 2, window));
        assert!(!usage.report(1, 60, 4, window));
        assert!(usage.report(2, 30, 2, window));
        assert_eq!(usage.totals(), (120, 8));
        usage.end_window();
        assert_eq!(usage.totals(), (60, 4));
        // A workload shift overturns the decayed history within a couple of
        // windows.
        for _ in 0..2 {
            usage.report(0, 0, 128, u64::MAX);
            usage.end_window();
        }
        let (reads, writes) = usage.totals();
        assert!(
            writes > reads * 4,
            "fresh writes must dominate: {reads}/{writes}"
        );
    }

    #[test]
    fn each_window_halves_a_nodes_usage_counts() {
        // Each window halves a node's counts, so the mix survives decay
        // while the weight of an old burst fades until fresh evidence
        // overturns it.
        let mut burst = UsageAggregate::default();
        burst.report(0, 40, 10, u64::MAX);
        assert_eq!(burst.totals(), (40, 10));
        burst.end_window();
        assert_eq!(burst.totals(), (20, 5));
        for _ in 0..3 {
            burst.end_window();
        }
        assert_eq!(burst.totals(), (2, 0));
        burst.report(0, 0, 16, u64::MAX);
        let (reads, writes) = burst.totals();
        assert!(writes > reads, "fresh writes dominate: {reads}/{writes}");
    }
}
