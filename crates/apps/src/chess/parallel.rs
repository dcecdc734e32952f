//! Parallel Oracol: root moves are distributed over worker processes through
//! a shared job queue; the best score found so far is kept in a shared
//! integer used for pruning (mirroring the paper's description of a job
//! queue plus shared search tables).

use orca_core::objects::{IntObject, IntOp, JobQueue, KvTable, SharedInt};
use orca_core::{replicated_workers, ObjectHandle, OrcaRuntime};
use orca_wire::wire_type;

use super::board::{Board, Move};
use super::search::{search_root_move, LocalTables, SearchTables, SharedTables, MATE_SCORE};
use crate::metrics::{ParallelRunReport, WorkerWork};

/// Whether the killer and transposition tables are per-worker or shared
/// objects (§4.3 compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableMode {
    /// Each worker keeps private tables; no communication, no sharing.
    Local,
    /// One shared transposition table and one shared killer table for all
    /// workers.
    Shared,
}

wire_type! {
    /// One root-splitting job: search this root move to the given depth.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ChessJob {
        /// Encoded root move.
        pub mv: u64,
        /// Search depth.
        pub depth: i32,
    }
}

/// Result of a parallel chess solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChessResult {
    /// Best root move.
    pub best_move: Option<Move>,
    /// Score of the best move (side to move's point of view).
    pub score: i32,
    /// Total nodes searched by all workers.
    pub nodes: u64,
}

/// Solve a position in parallel on `runtime` with `workers` workers.
pub fn solve_parallel(
    runtime: &OrcaRuntime,
    board: &Board,
    depth: i32,
    workers: usize,
    tables: TableMode,
) -> (ChessResult, ParallelRunReport) {
    let main = runtime.main();
    let queue: JobQueue<ChessJob> = JobQueue::create(main).expect("job queue");
    // Best score so far, stored negated so the shared MinAssign can be used
    // as a MaxAssign.
    let best_neg_score: SharedInt = SharedInt::create(main, i64::from(MATE_SCORE)).expect("best");
    // Best (score, move) pair packed into one shared integer so the winning
    // move can be recovered atomically: higher score wins, ties by move bits.
    // Values are stored negated so the indivisible MinAssign acts as a
    // maximum; the initial MAX therefore means "no result yet".
    let best_packed = SharedInt::create(main, i64::MAX).expect("best packed");
    let shared_tt = KvTable::create(main).expect("shared transposition table");
    let shared_killer = KvTable::create(main).expect("shared killer table");

    let root_moves = board.legal_moves();
    let jobs: Vec<ChessJob> = root_moves
        .iter()
        .map(|mv| ChessJob {
            mv: mv.encode(),
            depth,
        })
        .collect();
    queue.add_all(main, &jobs).expect("enqueue root moves");
    queue.close(main).expect("close queue");

    let board_clone = board.clone();
    let reports = replicated_workers(runtime, workers, move |_worker, ctx| {
        let board = board_clone.clone();
        let mut work = WorkerWork::default();
        let mut local: LocalTables = LocalTables::new();
        let mut shared = SharedTables::new(ctx.clone(), shared_tt, shared_killer);
        while let Some(job) = queue.get(&ctx).expect("dequeue") {
            work.jobs += 1;
            let mv = Move::decode(job.mv);
            let tables_ref: &mut dyn SearchTables = match tables {
                TableMode::Local => &mut local,
                TableMode::Shared => &mut shared,
            };
            let (score, nodes) = search_root_move(&board, mv, job.depth, tables_ref);
            work.units += nodes;
            // Publish the (score, move) pair; MinAssign on the negated packed
            // value keeps the maximum.
            let packed = pack(score, job.mv);
            best_packed
                .min_assign(&ctx, -packed)
                .expect("publish best move");
            best_neg_score
                .min_assign(&ctx, i64::from(-score))
                .expect("publish best score");
        }
        work
    });

    let report = ParallelRunReport::new(reports);
    // The Value read below is local to main's replica, which can lag behind
    // the final worker writes; MinAssign(i64::MAX) never changes the value
    // but, as a write, is sequenced after every worker write and completes
    // only once main's replica has applied them all.
    best_packed
        .min_assign(runtime.main(), i64::MAX)
        .expect("sync barrier");
    let packed = -runtime
        .main()
        .invoke::<IntObject>(best_packed.handle(), &IntOp::Value)
        .expect("read best");
    let (score, mv_bits) = unpack(packed);
    let best_move = if root_moves.is_empty() {
        None
    } else {
        Some(Move::decode(mv_bits))
    };
    let result = ChessResult {
        best_move,
        score,
        nodes: report.total_units(),
    };
    (result, report)
}

/// Pack a score and an encoded move into one ordered integer (score in the
/// high bits so comparisons order by score first).
fn pack(score: i32, mv: u64) -> i64 {
    ((i64::from(score)) << 24) | (mv as i64 & 0xff_ffff)
}

fn unpack(packed: i64) -> (i32, u64) {
    let score = (packed >> 24) as i32;
    let mv = (packed & 0xff_ffff) as u64;
    (score, mv)
}

/// Handles needed by workers when the caller wants to manage shared tables
/// itself (exposed for the table-mode benchmark).
pub type SharedTableHandles = (
    ObjectHandle<orca_core::objects::KvTableObject>,
    ObjectHandle<orca_core::objects::KvTableObject>,
);

#[cfg(test)]
mod tests {
    use super::super::search::{is_mate_score, search_position};
    use super::super::tactical_positions;
    use super::*;
    use orca_wire::Wire;

    #[test]
    fn pack_orders_by_score() {
        assert!(pack(100, 5) > pack(50, 200));
        assert!(pack(-10, 0) > pack(-500, 7));
        let (score, mv) = unpack(pack(-123, 77));
        assert_eq!(score, -123);
        assert_eq!(mv, 77);
    }

    #[test]
    fn parallel_finds_the_same_score_as_sequential() {
        let position = &tactical_positions()[0];
        let runtime = OrcaRuntime::standard(2);
        let mut tables = LocalTables::new();
        let sequential = search_position(&position.board, 2, &mut tables);
        let (parallel, report) = solve_parallel(&runtime, &position.board, 2, 2, TableMode::Local);
        assert!(is_mate_score(sequential.score, 2));
        assert!(is_mate_score(parallel.score, 2));
        assert_eq!(parallel.best_move.map(|m| m.to), Some(56)); // Ra8 mate
        assert_eq!(report.workers(), 2);
        assert!(report.total_jobs() >= position.board.legal_moves().len() as u64);
    }

    #[test]
    fn shared_tables_mode_also_finds_the_tactic() {
        let position = &tactical_positions()[2]; // win material
        let runtime = OrcaRuntime::standard(2);
        let (result, _) = solve_parallel(&runtime, &position.board, 3, 2, TableMode::Shared);
        assert!(result.score > 300);
        assert_eq!(result.best_move.map(|m| m.to), Some(27));
    }

    #[test]
    fn chess_job_codec() {
        let job = ChessJob { mv: 513, depth: 5 };
        assert_eq!(ChessJob::from_bytes(&job.to_bytes()).unwrap(), job);
    }
}
