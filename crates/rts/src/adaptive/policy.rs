//! Placement decisions priced in messages: which regime serves an object,
//! over which nodes.
//!
//! Each object's home folds the usage reports every node sends (one per
//! [`AdaptivePolicy::window`] accesses) into decayed per-node read/write
//! counts — halved after every evaluation, so a stale burst cannot pin a
//! placement — and, every two windows of reported accesses, prices candidate
//! placements with [`cost`], by the formulas the wire budgets pin: the
//! paper's question of one copy (§3.2.2: a copy pays where its reads save
//! more than the writes pushed to it cost) asked of the regime too. The
//! candidates: the current placement, the copy on a node that writes it and
//! mirrors on the nodes that read it ([`UsageAggregate::replicate`]), the
//! partitions of a type that shards over the nodes that access it, mirrored
//! on those that read it ([`place`], [`UsageAggregate::users`]), and each
//! with one mirror fewer. [`UsageAggregate::choose`] moves to the cheapest,
//! in all and at the busiest node, once the saving, summed over the
//! evaluations in a row that showed one, exceeds what the switch costs
//! ([`switch_cost`]): amortisation is the regime's band.
//!
//! A finding follows: with hash placement, sharding never beats a copy at the
//! busiest writer on messages — partitions spread over the writers cost a
//! write `2 · (1 − owned / P)`, a copy at the busiest writer `2 · (1 − its
//! share)`, never more. But a copy's owner is an end of every message, and
//! partitions over three or more writers share them out: only then are they
//! offered unpinned. The sharded pin ([`AdaptivePolicy::sharded`]) spreads
//! any object; per-partition counts, a partition at its dominant accessor,
//! are where sharding could pay in messages too.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use orca_amoeba::message::WIRE_HEADER_BYTES;
use orca_object::shard::spread_owner;
use orca_object::ObjectId;
use orca_wire::{RegimeKind, RegimeTable};

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
    /// surfaces [`crate::RtsError::Timeout`]. A guard wait restarts it.
    pub op_timeout: Duration,
    /// How long a cached table that lists mirrors — or of the replicated
    /// regime — stays fresh: a mirror's reads ask nobody, so the lease bounds
    /// how long a node can act on a retired regime when the explicit drop
    /// notifications were lost (any other table's operations are answered by
    /// an owner, which refuses an outdated epoch). Also how long a node the
    /// table names — an owner, a mirror — keeps its place without being
    /// heard from.
    pub regime_lease: Duration,
    /// The size of the evidence placement follows: a node reports its
    /// per-object read/write counts to the object's home every `window`
    /// local accesses, and the home re-evaluates after `2 · window` newly
    /// reported ones. An explicit [`super::AdaptiveRts::propose`] evaluates
    /// what has been reported and moves to the cheapest placement at once,
    /// so `u64::MAX` leaves every move to proposals.
    pub window: u64,
    /// How long a caller sleeps before re-fetching the regime table again
    /// after an operation bounced off a regime switch in flight, or off a
    /// dead node while the object is re-homed. Model-checking scenarios
    /// stretch this past their schedule horizon so a bounced operation waits
    /// out the switch instead of flooding the network with table re-fetches.
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
    /// Serve every object in this regime from its creation on: placement is
    /// by use as without a pin, but the pinned regime's owners are taken as
    /// its rule gives them, and only its mirror sets are priced.
    ///
    /// * `Some(Sharded)` — the `sharded` backend, the way to spread load
    ///   whatever the writers: an object is created partitioned over all
    ///   nodes (a type that does not shard as one partition at its
    ///   creator); its partitions then follow the nodes that access it. A
    ///   hand move ([`super::AdaptiveRts::migrate`]) lasts until the next
    ///   evaluation.
    /// * `Some(Replicated)` — the `primary` backend, the paper's
    ///   point-to-point runtime system: the copy moves to a node that writes
    ///   it, mirrors come and go where they pay.
    pub pin: Option<RegimeKind>,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            partitions: 4,
            op_timeout: Duration::from_secs(10),
            regime_lease: Duration::from_millis(200),
            window: 64,
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

/// Messages the accesses `usage` counts cost where the table `placed` puts
/// an object, by the formulas the wire budgets pin, per partition (the one
/// copy is one) with a node's accesses spread evenly over them; the most of
/// them any one node sends or receives; and their variance, the counts
/// taken as Poisson. A read is free at the owner or a mirror, a request and
/// a reply elsewhere. A write is a request and a reply unless its writer
/// owns the partition, plus `3m − 1` for the `m > 0` mirrors pushed to — an
/// update and its acknowledgement each, an unlock for all but the last; a
/// writer's own mirror writes through and is left out. Under
/// [`WritePolicy::Invalidate`] a replicated copy's mirror is dropped instead
/// (a request and an acknowledgement) and fetches again at its next read.
pub(crate) fn cost(
    placed: &RegimeTable,
    usage: &UsageAggregate,
    write: WritePolicy,
) -> (f64, f64, f64) {
    let drops = write == WritePolicy::Invalidate && placed.regime == RegimeKind::Replicated;
    let all_writes = usage.totals().1 as f64;
    let (mirrors, partitions) = (&placed.mirrors[..], placed.owners.len() as f64);
    let (mut messages, mut variance, mut per_node) = (0.0, 0.0, HashMap::new());
    // `count` accesses at `each` messages apiece, `ends` sending or receiving
    // `share` of each.
    let mut add = |count: f64, each: f64, ends: &[(u16, f64)]| {
        messages += each * count / partitions;
        variance += each * each * count / partitions;
        for &(end, share) in ends {
            *per_node.entry(end).or_insert(0.0) += share * count / partitions;
        }
    };
    for &owner in &placed.owners {
        for (&node, usage) in &usage.per_node {
            let (reads, writes) = (usage.reads as f64, usage.writes as f64);
            let pushed = mirrors
                .iter()
                .filter(|&&m| m != owner && m != node && !drops);
            let pushed: Vec<u16> = pushed.copied().collect();
            let push = (3 * pushed.len()).saturating_sub(1) as f64;
            let share = push / pushed.len().max(1) as f64;
            let mut ends: Vec<(u16, f64)> = pushed.iter().map(|&m| (m, share)).collect();
            ends.push((owner, push));
            let ship = if node == owner { 0.0 } else { 2.0 };
            ends.extend([(owner, ship), (node, ship)]);
            add(writes, ship + push, &ends);
            let mirror = ship > 0.0 && mirrors.contains(&node);
            if !mirror {
                add(reads, ship, &[(owner, ship), (node, ship)]);
            } else if drops {
                let others = all_writes - writes;
                add(
                    others + reads.min(others),
                    2.0,
                    &[(owner, 2.0), (node, 2.0)],
                );
            }
        }
    }
    let busiest = per_node.into_values().fold(0.0, f64::max);
    (messages, busiest, variance)
}

/// Messages a switch from `from` to `to` costs, carried out by the home
/// `home`, of an object whose state was `state` bytes: a request and a reply
/// to drain every old owner and install every new one but the home, and to
/// prime every mirror of every partition, plus the state at one message per
/// [`WIRE_HEADER_BYTES`].
fn switch_cost(from: &RegimeTable, to: &RegimeTable, home: u16, state: usize) -> f64 {
    let remote = |owners: &[u16]| owners.iter().filter(|owner| **owner != home).count();
    let primes = to.owners.iter();
    let primes = primes.map(|owner| to.mirrors.iter().filter(|m| *m != owner).count());
    let messages = remote(&from.owners) + remote(&to.owners) + primes.sum::<usize>();
    (2 * messages + state / WIRE_HEADER_BYTES) as f64
}

/// Owners of the `parts` partitions of sharded-regime `object`, now `owned`,
/// over its `users`: with no owners the hashed spread ([`spread_owner`]);
/// else a partition stays with an owner that is a user within its even share
/// — ⌊parts / users⌋, one more for the first `parts mod users` to reach it —
/// the lowest-numbered first; the rest go to the user holding the fewest.
pub(crate) fn stable_place(object: ObjectId, parts: u32, users: &[u16], owned: &[u16]) -> Vec<u16> {
    if owned.len() != parts as usize {
        let spread = |p| users[usize::from(spread_owner(object.0, p, users.len()))];
        return (0..parts).map(spread).collect();
    }
    let (share, mut more) = (owned.len() / users.len(), owned.len() % users.len());
    let mut held: HashMap<u16, usize> = users.iter().map(|&user| (user, 0)).collect();
    let (mut owners, mut moving) = (owned.to_vec(), Vec::new());
    for (at, owner) in owned.iter().enumerate() {
        match held.get_mut(owner) {
            Some(n) if *n < share || (*n == share && more > 0) => {
                more -= usize::from(*n == share);
                *n += 1;
            }
            _ => moving.push(at),
        }
    }
    for at in moving {
        let fewest = held.iter_mut().min_by_key(|(user, n)| (**n, **user));
        let (&user, n) = fewest.expect("a user");
        (owners[at], *n) = (user, *n + 1);
    }
    owners
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
    /// The object's state in bytes when the home last had it whole.
    pub(crate) state: usize,
    /// Messages the current placement has cost beyond the cheapest, summed
    /// over the evaluations in a row that showed a saving, and the saving
    /// the last of them showed.
    regret: f64,
    shown: f64,
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
    /// reads. The owner stays while it is among the users by writes, not
    /// "whoever writes more" (which flips on noise); otherwise the copy moves
    /// to the one with the most decayed writes, the lowest id among equals.
    /// Nothing known about writes keeps the owner; nothing known at all — a
    /// forced switch — puts a mirror everywhere.
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

    /// The placement to switch to from `current`, if any: the cheapest of
    /// `candidates` ([`cost`]), the first of equals, `current` on a tie. A
    /// move away from a `current` that is itself a candidate (not where a
    /// pin's rule moved its owners), unless `at_once` (a proposal), waits
    /// until the saving, summed over the evaluations in a row that showed
    /// one, exceeds [`switch_cost`]. A saving within the noise of the two
    /// placements — a standard deviation of the messages of each — is a tie:
    /// decayed counts are samples, and on a mix where placements cost the
    /// same one of them is the cheapest by a little in most windows, more
    /// than what moving a small object costs.
    pub(crate) fn choose(
        &mut self,
        current: &RegimeTable,
        candidates: &[RegimeTable],
        home: u16,
        write: WritePolicy,
        at_once: bool,
    ) -> Option<RegimeTable> {
        // The mean of a placement's messages and of its busiest node's, which
        // bound how fast the object is served: a copy's owner is an end of
        // every message, so a copy is priced at its cost, while partitions
        // over three or more nodes that write evenly cost as many messages as
        // a copy at one of them but share them out.
        let priced = |placed: &RegimeTable| {
            let (messages, busiest, variance) = cost(placed, self, write);
            ((messages + busiest) / 2.0, variance.sqrt())
        };
        let best = candidates
            .iter()
            .min_by(|a, b| priced(a).0.total_cmp(&priced(b).0))?;
        if at_once || !candidates.contains(current) {
            (self.regret, self.shown) = (0.0, 0.0);
            return Some(best.clone());
        }
        let ((now, noise), (then, its_noise)) = (priced(current), priced(best));
        let saving = if now - then > noise + its_noise {
            now - then
        } else {
            0.0
        };
        // A regime change counts what this evaluation and the one before both
        // showed: it bounces every operation and re-ships every partition, and
        // one window's burst — a thread scheduled ahead of the others — is
        // half of what the next evaluation sees.
        let counted = match best.regime == current.regime {
            true => saving,
            false => saving.min(self.shown),
        };
        self.shown = saving;
        self.regret = if counted > 0.0 {
            self.regret + counted
        } else {
            0.0
        };
        if self.regret <= switch_cost(current, best, home, self.state) {
            return None;
        }
        (self.regret, self.shown) = (0.0, 0.0);
        Some(best.clone())
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

    fn placed(regime: RegimeKind, owners: &[u16], mirrors: &[u16]) -> RegimeTable {
        let (owners, mirrors) = (owners.to_vec(), mirrors.to_vec());
        let (object, type_name, epoch) = (1, String::new(), 0);
        RegimeTable {
            object,
            type_name,
            epoch,
            regime,
            owners,
            mirrors,
        }
    }

    fn replicated(owner: u16, mirrors: &[u16]) -> RegimeTable {
        placed(RegimeKind::Replicated, &[owner], mirrors)
    }

    fn sharded(owners: &[u16], mirrors: &[u16]) -> RegimeTable {
        placed(RegimeKind::Sharded, owners, mirrors)
    }

    /// Messages per window of `placed` under the update policy.
    fn priced(placed: RegimeTable, usage: &UsageAggregate) -> f64 {
        cost(&placed, usage, WritePolicy::Update).0
    }

    #[test]
    fn regime_decision_rules() {
        // The ledger's write workloads: two writers, the creator idle. A copy
        // at either writer ships the other's writes, as partitions spread
        // over both do; at the creator every write travels.
        let writers = UsageAggregate::of_writes(&[0, 64, 64]);
        assert_eq!(priced(replicated(1, &[]), &writers), 128.0);
        assert_eq!(priced(sharded(&[1, 2, 1, 2], &[]), &writers), 128.0);
        assert_eq!(priced(sharded(&[0, 1, 2, 0], &[]), &writers), 192.0);
        assert_eq!(priced(replicated(0, &[]), &writers), 256.0);
        // Once one writer is the busier, the copy at it is cheaper than any
        // spread: the partitions cost the busier one what the copy spares it.
        let uneven = UsageAggregate::of_writes(&[0, 96, 32]);
        assert_eq!(priced(replicated(1, &[]), &uneven), 64.0);
        assert_eq!(priced(sharded(&[1, 2, 1, 2], &[]), &uneven), 128.0);
        assert_eq!(priced(sharded(&[1, 1, 1, 2], &[]), &uneven), 96.0);

        // Read-mostly, 90/10 at two nodes: a mirror at each reader. The
        // owner's write is an update and its acknowledgement, the other's a
        // write-through — 2 messages a write, wherever the partitions are.
        let readers = UsageAggregate::of(&[0, 58, 58], &[0, 6, 6]);
        assert_eq!(priced(replicated(1, &[2]), &readers), 24.0);
        assert_eq!(priced(sharded(&[1, 2, 1, 2], &[1, 2]), &readers), 24.0);
        assert_eq!(priced(replicated(1, &[]), &readers), 128.0);
        // Two mirrors beside the owner cost a write 3 · 2 − 1 messages.
        assert_eq!(priced(replicated(0, &[1, 2]), &readers), 48.0);
        // Invalidation drops the other's mirror at every write (2) and it
        // fetches again at its next read (2); its own writes ship.
        let invalidated = cost(&replicated(1, &[2]), &readers, WritePolicy::Invalidate).0;
        assert_eq!(invalidated, 6.0 * 4.0 + 6.0 * 2.0);

        // Write-hot, read at a trickle (the counter of the `wire_budget`
        // golden): two mirrors cost 5 messages a write, one 2 and the other
        // reader's round trips, none the readers' round trips alone.
        let trickle = UsageAggregate::of(&[0, 0, 15, 15], &[0, 70, 0, 0]);
        assert_eq!(priced(replicated(1, &[2, 3]), &trickle), 350.0);
        assert_eq!(priced(replicated(1, &[2]), &trickle), 170.0);
        assert_eq!(priced(replicated(1, &[]), &trickle), 60.0);

        // Nothing known: nothing costs anything, and nothing moves.
        let nothing = UsageAggregate::default();
        assert_eq!(priced(replicated(0, &[1, 2]), &nothing), 0.0);
    }

    /// One evaluation of an even read/write mix of nodes 1 and 2, `seed`
    /// choosing which accesses are reads: 64 accesses each, like two reports.
    fn even_window(usage: &mut UsageAggregate, seed: &mut u64) {
        for node in [1, 2] {
            let reads = (0..64).filter(|_| splitmix(seed) & 1 == 0).count() as u64;
            usage.report(node, reads, 64 - reads, u64::MAX);
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn a_mix_on_a_threshold_never_flaps() {
        // Every read-modify-write loop is an even mix, on which a copy with a
        // mirror, one without and partitions all cost the same: decay noise
        // makes one of them the cheapest by a few messages in most windows.
        // A switch re-ships a table (a thousand 28-byte entries here), and
        // what a window of noise saves never adds up to that in a row; a
        // counter's 8 bytes cost a switch a few messages, less than the noise,
        // and a saving within a standard deviation of either side is a tie.
        let current = replicated(1, &[2]);
        let others = [
            replicated(1, &[]),
            replicated(2, &[1]),
            sharded(&[1, 2, 1, 2], &[]),
        ];
        let candidates: Vec<RegimeTable> = [current.clone()].into_iter().chain(others).collect();
        let mut moves = Vec::new();
        for state in [28_000, 8] {
            let mut usage = UsageAggregate::of(&[0, 64, 64], &[0, 64, 64]);
            usage.state = state;
            let mut seed = 7;
            let mut cheaper = 0;
            for window in 0..500 {
                usage.end_window();
                even_window(&mut usage, &mut seed);
                let best = candidates.iter().map(|c| priced(c.clone(), &usage));
                cheaper +=
                    usize::from(best.fold(f64::MAX, f64::min) < priced(current.clone(), &usage));
                if let Some(placed) =
                    usage.choose(&current, &candidates, 0, WritePolicy::Update, false)
                {
                    moves.push((state, window, placed));
                }
            }
            assert!(cheaper > 100, "the noise is there: {cheaper} windows");
        }
        assert_eq!(
            moves.len(),
            0,
            "a steady even mix moved the object: {moves:?}"
        );
        let mut usage = UsageAggregate::of(&[0, 64, 64], &[0, 64, 64]);
        usage.state = 28_000;
        // A clear saving does move it: the reads stop, so the mirror costs
        // every write and saves less and less as the reads decay. The move
        // waits until the savings in a row pay for re-shipping the table
        // (875 messages): 128 + 192 + 224 + 240 + 248.
        let mut moved = None;
        for window in 1..=12 {
            usage.end_window();
            usage.report(1, 0, 64, u64::MAX);
            usage.report(2, 0, 64, u64::MAX);
            if let Some(placed) = usage.choose(&current, &candidates, 0, WritePolicy::Update, false)
            {
                moved = Some((window, placed));
                break;
            }
        }
        assert_eq!(moved, Some((5, replicated(1, &[]))));
        // Where the current placement is no candidate — a pin's rule moved
        // its owners — the cheapest is taken at once, and so it is when a
        // proposal asks.
        let elsewhere = [replicated(2, &[]), replicated(2, &[1])];
        let forced = usage.choose(&current, &elsewhere, 0, WritePolicy::Update, false);
        assert_eq!(forced, Some(replicated(2, &[])));
        let proposed = usage.choose(&current, &candidates, 0, WritePolicy::Update, true);
        assert_eq!(proposed, Some(replicated(1, &[])));
    }

    /// The finding: with hash placement, sharding never beats a copy at the
    /// busiest writer on messages. For any write counts over up to eight
    /// nodes, any partition count from 1 to 8 and any set of users that
    /// [`place`] spreads the partitions over, partitions cost at least what a
    /// copy at the busiest writer does.
    #[test]
    fn a_copy_at_the_busiest_writer_never_costs_more_than_partitions() {
        let mut seed = 11;
        for case in 0..4096u64 {
            let nodes = 1 + (splitmix(&mut seed) % 8) as usize;
            let writes: Vec<u64> = (0..nodes).map(|_| splitmix(&mut seed) % 200).collect();
            let usage = UsageAggregate::of_writes(&writes);
            let partitions = 1 + (splitmix(&mut seed) % 8) as u32;
            let mask = splitmix(&mut seed);
            let mut users: Vec<u16> = (0..nodes as u16).filter(|n| mask >> n & 1 == 1).collect();
            if users.is_empty() {
                users.push((mask % nodes as u64) as u16);
            }
            let object = ObjectId::compose(0, case);
            let owners = owners_of(object, partitions, &users);
            let busiest = (0..nodes).max_by_key(|&n| writes[n]).unwrap() as u16;
            let copy = priced(replicated(busiest, &[]), &usage);
            let spread = priced(sharded(&owners, &[]), &usage);
            assert!(
                copy <= spread + 1e-9,
                "writes {writes:?}, owners {owners:?}: copy {copy}, partitions {spread}"
            );
        }
    }

    fn owners_of(object: ObjectId, partitions: u32, users: &[u16]) -> Vec<u16> {
        let spread = |p| users[usize::from(spread_owner(object.0, p, users.len()))];
        (0..partitions).map(spread).collect()
    }

    /// A re-placement keeps every owner that is still a user within its
    /// even share: the ledger's first sharded re-placement moves the one
    /// partition of the idle home, not all four.
    #[test]
    fn a_stable_placement_moves_only_what_leaves_the_even_spread() {
        let object = ObjectId::compose(0, 1);
        assert_eq!(
            stable_place(object, 4, &[1, 2], &[1, 2, 0, 1]),
            [1, 2, 2, 1]
        );
        // Within their shares, users keep everything.
        assert_eq!(
            stable_place(object, 4, &[1, 2], &[2, 1, 2, 1]),
            [2, 1, 2, 1]
        );
        assert_eq!(
            stable_place(object, 4, &[0, 1, 2], &[0, 1, 0, 2]),
            [0, 1, 0, 2]
        );
        // An owner above its share gives up its excess, the highest-numbered
        // partitions, to the users holding the fewest, lowest id first.
        assert_eq!(
            stable_place(object, 4, &[1, 2], &[1, 1, 1, 1]),
            [1, 1, 2, 2]
        );
        assert_eq!(
            stable_place(object, 4, &[0, 1, 2], &[0, 0, 0, 1]),
            [0, 0, 2, 1]
        );
        // A new user takes a partition from an owner above the even share
        // (4 over 3 users: one owner of two, two of one).
        assert_eq!(
            stable_place(object, 4, &[0, 1, 2], &[0, 1, 0, 1]),
            [0, 1, 0, 2]
        );
        assert_eq!(stable_place(object, 2, &[0, 1, 2], &[0, 0]), [0, 1]);
        // A partition of a node that is no user goes, whatever it held.
        assert_eq!(stable_place(object, 3, &[0, 2], &[1, 1, 1]), [0, 2, 0]);
    }

    /// With no owners — an object created, or entering the sharded regime —
    /// the placement is the hashed spread, as before.
    #[test]
    fn a_placement_without_owners_is_the_hashed_spread() {
        for case in 0..64u16 {
            let object = ObjectId::compose(case % 3, u64::from(case));
            for users in [&[0, 1, 2][..], &[1, 2], &[2]] {
                let spread = owners_of(object, 4, users);
                assert_eq!(stable_place(object, 4, users, &[]), spread);
            }
        }
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

    /// The sharded regime's mirror candidates: its readers.
    fn readers(usage: &UsageAggregate, nodes: usize) -> Vec<u16> {
        usage.users(Count::Reads, nodes, &[], NO_GRACE)
    }

    #[test]
    fn a_read_mostly_object_mirrors_its_partitions_on_its_readers() {
        // The ledger's read-mostly cell under the sharded pin: the creator
        // idle, two nodes at 90/10, the partitions on the two. Mirrored on
        // both, every read is local and a write costs 2 messages wherever it
        // lands; each mirror fewer ships half a node's reads.
        let usage = UsageAggregate::of(&[0, 58, 58], &[0, 6, 6]);
        assert_eq!(readers(&usage, 3), vec![1, 2]);
        let owners = [1, 2, 1, 2];
        assert_eq!(priced(sharded(&owners, &[1, 2]), &usage), 24.0);
        assert_eq!(priced(sharded(&owners, &[1]), &usage), 76.0);
        assert_eq!(priced(sharded(&owners, &[]), &usage), 128.0);
        // A pure reader beside a writer: its mirror pays.
        let reader = UsageAggregate::of(&[0, 0, 40], &[0, 10, 0]);
        assert_eq!(readers(&reader, 3), vec![2]);
        assert_eq!(priced(sharded(&owners, &[2]), &reader), 20.0);
        assert_eq!(priced(sharded(&owners, &[]), &reader), 50.0);
        // An even mix: a node's reads are the other's writes, and every
        // mirror set costs the same — so the one listed stays.
        let even = UsageAggregate::of(&[0, 32, 32], &[0, 32, 32]);
        for mirrors in [&[1, 2][..], &[1], &[]] {
            assert_eq!(priced(sharded(&owners, mirrors), &even), 128.0);
        }
    }

    #[test]
    fn a_write_hot_object_read_at_a_trickle_mirrors_nothing() {
        // Two writers; a third node reads a little. Every reader is a
        // candidate, but a mirror costs a push per write of the others for
        // a round trip saved per read: none of them pays.
        let trickle = UsageAggregate::of(&[0, 4, 4, 20], &[0, 40, 40, 0]);
        assert_eq!(
            readers(&trickle, 4),
            vec![1, 2, 3],
            "every reader is a user"
        );
        let owners = [1, 2, 1, 2];
        let none = priced(sharded(&owners, &[]), &trickle);
        for mirrors in [&[1, 2, 3][..], &[1, 2], &[1, 3], &[2, 3], &[3]] {
            let mirrored = priced(sharded(&owners, mirrors), &trickle);
            assert!(none < mirrored, "{mirrors:?}: {mirrored} against {none}");
        }
        // Writes only: no reader, no candidate.
        assert!(readers(&UsageAggregate::of_writes(&[0, 64, 64]), 3).is_empty());
    }

    #[test]
    fn a_listed_partition_mirror_survives_a_dip_from_twice_to_once() {
        // Node 2 reads 30 against node 1's 10 writes: its mirror pays, 40
        // messages a window.
        let current = sharded(&[1, 1, 1, 1], &[2]);
        let candidates = [current.clone(), sharded(&[1, 1, 1, 1], &[])];
        let mut usage = UsageAggregate::of(&[0, 0, 30], &[0, 10, 0]);
        usage.state = 28_000;
        let saving = |usage: &UsageAggregate| {
            priced(candidates[1].clone(), usage) - priced(current.clone(), usage)
        };
        assert_eq!(saving(&usage), 40.0);
        // Its reads dip to once the writes, then below: the mirror no
        // longer pays, but what dropping it saves a window never adds up to
        // re-shipping the table — the band amortisation gives a listed one.
        for reads in [15, 10, 9, 9, 9] {
            usage = UsageAggregate::of(&[0, 0, reads], &[0, 10, 0]);
            usage.state = 28_000;
            let chosen = usage.choose(&current, &candidates, 0, WritePolicy::Update, false);
            assert_eq!(chosen, None, "{reads} reads");
        }
        // Its reads stall — decay to nothing while node 1 goes on writing:
        // heard reading within the grace, the listed mirror is still a
        // candidate the rule offers; past it, it is not.
        let mut stalled = UsageAggregate::of(&[0, 0, 9], &[0, 10, 0]);
        for _ in 0..5 {
            stalled.report(1, 0, 10, u64::MAX);
            stalled.end_window();
        }
        assert_eq!(stalled.totals().0, 0);
        let listed = |usage: &UsageAggregate, mirrors: &[u16], grace| {
            usage.users(Count::Reads, 3, mirrors, grace)
        };
        assert_eq!(listed(&stalled, &[2], LONG_GRACE), vec![2]);
        assert!(listed(&stalled, &[2], NO_GRACE).is_empty());
        // The grace keeps mirrors, it makes none.
        assert!(listed(&stalled, &[], LONG_GRACE).is_empty());
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
