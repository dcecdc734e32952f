//! Shared job queue — the heart of the replicated worker paradigm.
//!
//! A manager process generates jobs and adds them to the queue; every worker
//! repeatedly takes a job and executes it. `GetJob` is a blocking operation:
//! while the queue is empty and not yet closed, its guard is false and the
//! calling worker waits; once the manager calls `Close`, waiting workers are
//! released with [`JobQueueReply::NoMoreJobs`].
//!
//! Jobs are stored as encoded byte strings so one object type serves every
//! application; the typed wrapper [`JobQueue`] encodes and decodes the
//! application's job type at the edges.

use std::collections::VecDeque;
use std::marker::PhantomData;

use orca_object::shard::{shard_of_bytes, ShardRoute, ShardableType};
use orca_object::{ObjectType, OpKind, OpOutcome};
use orca_wire::{wire_type, Wire};

use crate::handle::ObjectHandle;
use crate::runtime::OrcaNode;
use crate::{OrcaError, OrcaResult};

/// Marker type for the shared job-queue object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobQueueObject;

wire_type! {
    /// State of the queue: pending jobs plus the "no more jobs will be added"
    /// flag.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct JobQueueState {
        /// Jobs waiting to be executed (encoded).
        pub jobs: VecDeque<Vec<u8>>,
        /// True once the manager has promised not to add further jobs.
        pub closed: bool,
        /// Total number of jobs ever added (for statistics).
        pub total_added: u64,
    }
}

wire_type! {
    /// Operations of [`JobQueueObject`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum JobQueueOp {
        /// Append a job (write); returns the queue length.
        ADD_JOB_TAG = 0 => AddJob(Vec<u8>),
        /// Append several jobs in one indivisible operation (write).
        ADD_JOBS_TAG = 1 => AddJobs(Vec<Vec<u8>>),
        /// Declare that no further jobs will be added (write).
        CLOSE_TAG = 2 => Close,
        /// Take the next job (write, blocking): waits while the queue is empty
        /// and not closed.
        GET_JOB_TAG = 3 => GetJob,
        /// Number of pending jobs (read).
        LEN_TAG = 4 => Len,
    }
}

wire_type! {
    /// Replies of [`JobQueueObject`] operations.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum JobQueueReply {
        /// A job taken from the queue.
        JOB_TAG = 0 => Job(Vec<u8>),
        /// The queue is closed and empty: the worker should terminate.
        NO_MORE_JOBS_TAG = 1 => NoMoreJobs,
        /// Queue length (reply to `AddJob*`/`Len`/`Close`).
        LEN_TAG = 2 => Len(u64),
    }
}

impl ObjectType for JobQueueObject {
    type State = JobQueueState;
    type Op = JobQueueOp;
    type Reply = JobQueueReply;

    const TYPE_NAME: &'static str = "orca.JobQueue";

    fn kind(op: &Self::Op) -> OpKind {
        match op {
            JobQueueOp::AddJob(_)
            | JobQueueOp::AddJobs(_)
            | JobQueueOp::Close
            | JobQueueOp::GetJob => OpKind::Write,
            JobQueueOp::Len => OpKind::Read,
        }
    }

    fn apply(state: &mut Self::State, op: &Self::Op) -> OpOutcome<Self::Reply> {
        match op {
            JobQueueOp::AddJob(job) => {
                state.jobs.push_back(job.clone());
                state.total_added += 1;
                OpOutcome::Done(JobQueueReply::Len(state.jobs.len() as u64))
            }
            JobQueueOp::AddJobs(jobs) => {
                for job in jobs {
                    state.jobs.push_back(job.clone());
                    state.total_added += 1;
                }
                OpOutcome::Done(JobQueueReply::Len(state.jobs.len() as u64))
            }
            JobQueueOp::Close => {
                state.closed = true;
                OpOutcome::Done(JobQueueReply::Len(state.jobs.len() as u64))
            }
            JobQueueOp::GetJob => {
                if let Some(job) = state.jobs.pop_front() {
                    OpOutcome::Done(JobQueueReply::Job(job))
                } else if state.closed {
                    OpOutcome::Done(JobQueueReply::NoMoreJobs)
                } else {
                    // Guard: a job must be available or the queue closed.
                    OpOutcome::Blocked
                }
            }
            JobQueueOp::Len => OpOutcome::Done(JobQueueReply::Len(state.jobs.len() as u64)),
        }
    }
}

/// Partitioning: each partition is an independent sub-queue. Jobs are
/// hashed (by their encoded bytes) onto a partition, so concurrent `AddJob`s
/// of different jobs proceed in parallel at different owners; `GetJob` scans
/// partitions until one yields a job and reports exhaustion only when every
/// partition is closed and drained. FIFO order holds within a partition but
/// not across partitions — the replicated worker paradigm never relied on
/// global FIFO order anyway (workers race for jobs).
impl ShardableType for JobQueueObject {
    fn split_state(state: &Self::State, parts: u32) -> Vec<Self::State> {
        let parts = parts.max(1);
        let mut split: Vec<JobQueueState> = (0..parts)
            .map(|_| JobQueueState {
                closed: state.closed,
                ..JobQueueState::default()
            })
            .collect();
        for job in &state.jobs {
            let sub = &mut split[shard_of_bytes(job, parts) as usize];
            sub.jobs.push_back(job.clone());
            sub.total_added += 1;
        }
        // Preserve the total_added sum even when it exceeds the pending
        // jobs (already-taken jobs are accounted to partition 0).
        let distributed: u64 = split.iter().map(|s| s.total_added).sum();
        split[0].total_added += state.total_added.saturating_sub(distributed);
        split
    }

    fn merge_states(parts: Vec<Self::State>) -> Self::State {
        // Sub-queues hold disjoint jobs; concatenate them in partition
        // order. Global FIFO order across partitions was never promised
        // (workers race for jobs), so any deterministic interleaving is a
        // valid merge.
        let mut merged = JobQueueState::default();
        let mut any_open = false;
        for part in parts {
            merged.jobs.extend(part.jobs);
            merged.total_added += part.total_added;
            any_open |= !part.closed;
        }
        merged.closed = !any_open;
        merged
    }

    fn route(op: &Self::Op, parts: u32) -> ShardRoute {
        match op {
            JobQueueOp::AddJob(job) => ShardRoute::One(shard_of_bytes(job, parts)),
            JobQueueOp::AddJobs(_) | JobQueueOp::Close | JobQueueOp::Len => ShardRoute::All,
            JobQueueOp::GetJob => ShardRoute::Any,
        }
    }

    fn op_for(op: &Self::Op, partition: u32, parts: u32) -> Self::Op {
        match op {
            JobQueueOp::AddJobs(jobs) => JobQueueOp::AddJobs(
                jobs.iter()
                    .filter(|job| shard_of_bytes(job, parts) == partition)
                    .cloned()
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    fn combine(op: &Self::Op, replies: Vec<Self::Reply>) -> Self::Reply {
        match op {
            JobQueueOp::AddJobs(_) | JobQueueOp::Close | JobQueueOp::Len => JobQueueReply::Len(
                replies
                    .iter()
                    .map(|reply| match reply {
                        JobQueueReply::Len(n) => *n,
                        _ => 0,
                    })
                    .sum(),
            ),
            _ => replies
                .into_iter()
                .next()
                .unwrap_or(JobQueueReply::NoMoreJobs),
        }
    }

    fn accepts(op: &Self::Op, reply: &Self::Reply) -> bool {
        // A partition that answers NoMoreJobs is merely drained; another
        // partition may still hold jobs, so the scan continues.
        !matches!((op, reply), (JobQueueOp::GetJob, JobQueueReply::NoMoreJobs))
    }
}

/// Typed job queue over an application-defined job type `J`.
#[derive(Debug)]
pub struct JobQueue<J: Wire> {
    handle: ObjectHandle<JobQueueObject>,
    _job: PhantomData<fn() -> J>,
}

impl<J: Wire> Clone for JobQueue<J> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<J: Wire> Copy for JobQueue<J> {}

impl<J: Wire> JobQueue<J> {
    /// Create an empty, open job queue.
    pub fn create(ctx: &OrcaNode) -> OrcaResult<Self> {
        Ok(JobQueue {
            handle: ctx.create::<JobQueueObject>(&JobQueueState::default())?,
            _job: PhantomData,
        })
    }

    /// Wrap an existing handle.
    pub fn from_handle(handle: ObjectHandle<JobQueueObject>) -> Self {
        JobQueue {
            handle,
            _job: PhantomData,
        }
    }

    /// The underlying handle.
    pub fn handle(&self) -> ObjectHandle<JobQueueObject> {
        self.handle
    }

    /// Add one job.
    pub fn add(&self, ctx: &OrcaNode, job: &J) -> OrcaResult<()> {
        ctx.invoke(self.handle, &JobQueueOp::AddJob(job.to_bytes()))?;
        Ok(())
    }

    /// Add a batch of jobs in one indivisible operation.
    pub fn add_all(&self, ctx: &OrcaNode, jobs: &[J]) -> OrcaResult<()> {
        let encoded = jobs.iter().map(Wire::to_bytes).collect();
        ctx.invoke(self.handle, &JobQueueOp::AddJobs(encoded))?;
        Ok(())
    }

    /// Declare that no further jobs will be added.
    pub fn close(&self, ctx: &OrcaNode) -> OrcaResult<()> {
        ctx.invoke(self.handle, &JobQueueOp::Close)?;
        Ok(())
    }

    /// Take the next job, blocking while the queue is empty and open.
    /// Returns `None` once the queue is closed and drained.
    pub fn get(&self, ctx: &OrcaNode) -> OrcaResult<Option<J>> {
        match ctx.invoke(self.handle, &JobQueueOp::GetJob)? {
            JobQueueReply::Job(bytes) => {
                let job = J::from_bytes(&bytes)
                    .map_err(|err| OrcaError::Communication(format!("job decode: {err}")))?;
                Ok(Some(job))
            }
            JobQueueReply::NoMoreJobs => Ok(None),
            JobQueueReply::Len(_) => Err(OrcaError::Communication(
                "unexpected Len reply to GetJob".into(),
            )),
        }
    }

    /// Number of pending jobs.
    pub fn len(&self, ctx: &OrcaNode) -> OrcaResult<u64> {
        match ctx.invoke(self.handle, &JobQueueOp::Len)? {
            JobQueueReply::Len(n) => Ok(n),
            _ => Err(OrcaError::Communication("unexpected reply to Len".into())),
        }
    }

    /// True if no jobs are pending.
    pub fn is_empty(&self, ctx: &OrcaNode) -> OrcaResult<bool> {
        Ok(self.len(ctx)? == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_blocking_guard() {
        let mut state = JobQueueState::default();
        assert_eq!(
            JobQueueObject::apply(&mut state, &JobQueueOp::GetJob),
            OpOutcome::Blocked
        );
        JobQueueObject::apply(&mut state, &JobQueueOp::AddJob(vec![1]));
        JobQueueObject::apply(&mut state, &JobQueueOp::AddJob(vec![2]));
        assert_eq!(
            JobQueueObject::apply(&mut state, &JobQueueOp::GetJob),
            OpOutcome::Done(JobQueueReply::Job(vec![1]))
        );
        assert_eq!(
            JobQueueObject::apply(&mut state, &JobQueueOp::GetJob),
            OpOutcome::Done(JobQueueReply::Job(vec![2]))
        );
        assert_eq!(
            JobQueueObject::apply(&mut state, &JobQueueOp::GetJob),
            OpOutcome::Blocked
        );
        JobQueueObject::apply(&mut state, &JobQueueOp::Close);
        assert_eq!(
            JobQueueObject::apply(&mut state, &JobQueueOp::GetJob),
            OpOutcome::Done(JobQueueReply::NoMoreJobs)
        );
        assert_eq!(state.total_added, 2);
    }

    #[test]
    fn batch_add() {
        let mut state = JobQueueState::default();
        JobQueueObject::apply(
            &mut state,
            &JobQueueOp::AddJobs(vec![vec![1], vec![2], vec![3]]),
        );
        assert_eq!(state.jobs.len(), 3);
        assert_eq!(
            JobQueueObject::apply(&mut state, &JobQueueOp::Len),
            OpOutcome::Done(JobQueueReply::Len(3))
        );
    }

    #[test]
    fn codec_round_trips() {
        let state = JobQueueState {
            jobs: vec![vec![1, 2], vec![]].into(),
            closed: true,
            total_added: 7,
        };
        assert_eq!(JobQueueState::from_bytes(&state.to_bytes()).unwrap(), state);
        for op in [
            JobQueueOp::AddJob(vec![1]),
            JobQueueOp::AddJobs(vec![vec![2]]),
            JobQueueOp::Close,
            JobQueueOp::GetJob,
            JobQueueOp::Len,
        ] {
            assert_eq!(JobQueueOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        for reply in [
            JobQueueReply::Job(vec![1]),
            JobQueueReply::NoMoreJobs,
            JobQueueReply::Len(4),
        ] {
            assert_eq!(JobQueueReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        }
    }

    #[test]
    fn classification() {
        assert_eq!(JobQueueObject::kind(&JobQueueOp::GetJob), OpKind::Write);
        assert_eq!(JobQueueObject::kind(&JobQueueOp::Len), OpKind::Read);
    }

    #[test]
    fn shard_split_preserves_jobs_and_routes_consistently() {
        let mut state = JobQueueState::default();
        for job in 0..20u8 {
            JobQueueObject::apply(&mut state, &JobQueueOp::AddJob(vec![job]));
        }
        // Two jobs already taken: total_added exceeds the pending count.
        JobQueueObject::apply(&mut state, &JobQueueOp::GetJob);
        JobQueueObject::apply(&mut state, &JobQueueOp::GetJob);
        JobQueueObject::apply(&mut state, &JobQueueOp::Close);

        let split = JobQueueObject::split_state(&state, 4);
        assert_eq!(split.len(), 4);
        assert_eq!(
            split.iter().map(|s| s.jobs.len()).sum::<usize>(),
            state.jobs.len()
        );
        assert_eq!(
            split.iter().map(|s| s.total_added).sum::<u64>(),
            state.total_added
        );
        assert!(split.iter().all(|s| s.closed));
        // Every pending job sits in the partition AddJob would route it to.
        for (p, sub) in split.iter().enumerate() {
            for job in &sub.jobs {
                assert_eq!(
                    JobQueueObject::route(&JobQueueOp::AddJob(job.clone()), 4),
                    ShardRoute::One(p as u32)
                );
            }
        }

        // Merging the split recovers the queue up to job order across
        // partitions (which GetJob never promised anyway).
        let merged = JobQueueObject::merge_states(split);
        let mut merged_jobs: Vec<_> = merged.jobs.iter().cloned().collect();
        let mut original_jobs: Vec<_> = state.jobs.iter().cloned().collect();
        merged_jobs.sort();
        original_jobs.sort();
        assert_eq!(merged_jobs, original_jobs);
        assert_eq!(merged.total_added, state.total_added);
        assert!(merged.closed);

        // Single-partition split is the identity.
        assert_eq!(JobQueueObject::split_state(&state, 1), vec![state]);
    }

    #[test]
    fn shard_routes_and_combine() {
        assert_eq!(
            JobQueueObject::route(&JobQueueOp::GetJob, 4),
            ShardRoute::Any
        );
        assert_eq!(
            JobQueueObject::route(&JobQueueOp::Close, 4),
            ShardRoute::All
        );
        assert_eq!(JobQueueObject::route(&JobQueueOp::Len, 4), ShardRoute::All);

        // Batch adds are narrowed to each partition's share.
        let jobs: Vec<Vec<u8>> = (0..16u8).map(|j| vec![j]).collect();
        let batch = JobQueueOp::AddJobs(jobs.clone());
        let mut seen = 0;
        for p in 0..4 {
            let JobQueueOp::AddJobs(share) = JobQueueObject::op_for(&batch, p, 4) else {
                panic!("op_for must stay AddJobs");
            };
            seen += share.len();
        }
        assert_eq!(seen, jobs.len());

        // Lengths sum across partitions.
        assert_eq!(
            JobQueueObject::combine(
                &JobQueueOp::Len,
                vec![JobQueueReply::Len(2), JobQueueReply::Len(3)]
            ),
            JobQueueReply::Len(5)
        );

        // A drained partition does not end the GetJob scan; a job does.
        assert!(!JobQueueObject::accepts(
            &JobQueueOp::GetJob,
            &JobQueueReply::NoMoreJobs
        ));
        assert!(JobQueueObject::accepts(
            &JobQueueOp::GetJob,
            &JobQueueReply::Job(vec![1])
        ));
    }
}
