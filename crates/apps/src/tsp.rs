//! The Traveling Salesman Problem (§4.1, Fig. 2).
//!
//! "Our favorite example for Orca, since it greatly benefits from object
//! replication." The parallel program is a replicated-worker branch-and-bound
//! search:
//!
//! * a manager process expands the first [`JOB_PREFIX_DEPTH`] levels of the
//!   search tree into jobs (partial routes) and stores them in a shared
//!   [`JobQueue`];
//! * each worker repeatedly takes a job and searches all completions of its
//!   partial route;
//! * the best tour length found so far is kept in a shared integer whose
//!   `MinAssign` operation is indivisible; workers read it constantly to
//!   prune (a read : write ratio in the millions) and write it only when
//!   they find a better tour.

use orca_core::objects::{JobQueue, SharedInt};
use orca_core::{replicated_workers, OrcaRuntime};
use orca_wire::wire_type;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{ParallelRunReport, WorkerWork};

/// Depth (number of fixed cities after the start city) to which the manager
/// pre-expands the search tree when generating jobs. Two levels of a 14-city
/// problem give 13 × 12 = 156 jobs, plenty for 16 workers.
pub const JOB_PREFIX_DEPTH: usize = 2;

wire_type! {
    /// A TSP instance: a symmetric distance matrix.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TspInstance {
        /// Number of cities.
        pub cities: usize,
        /// Flattened `cities × cities` distance matrix.
        pub dist: Vec<i64>,
    }
}

impl TspInstance {
    /// Distance between two cities.
    #[inline]
    pub fn distance(&self, a: usize, b: usize) -> i64 {
        self.dist[a * self.cities + b]
    }

    /// Generate a random Euclidean-ish instance (symmetric, triangle
    /// inequality approximately satisfied) with `cities` cities.
    ///
    /// The paper uses a 14-city problem; the exact instance is not archived,
    /// so a seeded random instance of the same size stands in for it.
    pub fn random(cities: usize, seed: u64) -> Self {
        assert!(cities >= 2, "need at least two cities");
        let mut rng = StdRng::seed_from_u64(seed);
        let points: Vec<(f64, f64)> = (0..cities)
            .map(|_| (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..1000.0)))
            .collect();
        let mut dist = vec![0i64; cities * cities];
        for i in 0..cities {
            for j in 0..cities {
                let dx = points[i].0 - points[j].0;
                let dy = points[i].1 - points[j].1;
                dist[i * cities + j] = ((dx * dx + dy * dy).sqrt()) as i64;
            }
        }
        TspInstance { cities, dist }
    }

    /// Length of a complete tour (returning to the start city).
    pub fn tour_length(&self, tour: &[usize]) -> i64 {
        assert_eq!(tour.len(), self.cities);
        let mut total = 0;
        for i in 0..tour.len() {
            total += self.distance(tour[i], tour[(i + 1) % tour.len()]);
        }
        total
    }

    /// Greedy nearest-neighbour tour, used as the initial bound.
    pub fn nearest_neighbour_bound(&self) -> i64 {
        let mut visited = vec![false; self.cities];
        let mut current = 0usize;
        visited[0] = true;
        let mut total = 0;
        for _ in 1..self.cities {
            let next = (0..self.cities)
                .filter(|&c| !visited[c])
                .min_by_key(|&c| self.distance(current, c))
                .expect("unvisited city exists");
            total += self.distance(current, next);
            visited[next] = true;
            current = next;
        }
        total + self.distance(current, 0)
    }
}

wire_type! {
    /// A branch-and-bound job: a partial route starting at city 0.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TspJob {
        /// Cities fixed so far, starting with 0.
        pub prefix: Vec<u16>,
        /// Length of the fixed part.
        pub prefix_len: i64,
    }
}

/// Result of a TSP solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TspSolution {
    /// Length of the best tour found.
    pub best_length: i64,
    /// The best tour (starts at city 0).
    pub best_tour: Vec<usize>,
    /// Number of search-tree nodes expanded.
    pub nodes_expanded: u64,
}

/// The best tour found so far: `(length, tour)`.
type Best = (i64, Vec<usize>);

/// Pruning bound consulted before descending (the parallel version reads
/// the shared bound here).
type BoundFn<'a> = dyn FnMut(&mut Best) -> i64 + 'a;

/// Called whenever a better complete tour is found (the parallel version
/// publishes it to the shared bound here). Deliberately returns nothing:
/// the shared bound's post-update value may be another worker's tour
/// length, and feeding it back into `best` would corrupt the
/// (length, tour) pair.
type ImprovedFn<'a> = dyn FnMut(i64, &[usize]) + 'a;

/// Exhaustive branch-and-bound over completions of `prefix`, updating
/// `best` in place. Returns the number of nodes expanded.
#[allow(clippy::too_many_arguments)] // recursion state; a struct would just rename the args
fn search_from(
    instance: &TspInstance,
    prefix: &mut Vec<usize>,
    prefix_len: i64,
    visited: &mut Vec<bool>,
    best: &mut Best,
    nodes: &mut u64,
    bound: &mut BoundFn<'_>,
    improved: &mut ImprovedFn<'_>,
) {
    *nodes += 1;
    let n = instance.cities;
    if prefix.len() == n {
        let total = prefix_len + instance.distance(*prefix.last().unwrap(), prefix[0]);
        if total < best.0 {
            // `best` must stay a consistent (length, tour) pair: `improved`
            // may return an even lower *global* bound (another worker's
            // tour), which would pair a foreign length with this tour and
            // let a corrupted pair win the final aggregation. Pruning
            // against the global bound happens through `bound` instead.
            best.0 = total;
            best.1 = prefix.clone();
            improved(total, prefix);
        }
        return;
    }
    let current_bound = bound(best);
    if prefix_len >= current_bound {
        return; // this partial route can no longer beat the best tour
    }
    let last = *prefix.last().unwrap();
    for city in 1..n {
        if visited[city] {
            continue;
        }
        let step = instance.distance(last, city);
        if prefix_len + step >= current_bound {
            continue;
        }
        visited[city] = true;
        prefix.push(city);
        search_from(
            instance,
            prefix,
            prefix_len + step,
            visited,
            best,
            nodes,
            bound,
            improved,
        );
        prefix.pop();
        visited[city] = false;
    }
}

/// Solve an instance sequentially with branch and bound.
pub fn solve_sequential(instance: &TspInstance) -> TspSolution {
    let initial = instance.nearest_neighbour_bound();
    let mut best = (initial + 1, Vec::new());
    let mut nodes = 0;
    let mut prefix = vec![0usize];
    let mut visited = vec![false; instance.cities];
    visited[0] = true;
    search_from(
        instance,
        &mut prefix,
        0,
        &mut visited,
        &mut best,
        &mut nodes,
        &mut |best| best.0,
        &mut |_, _| {},
    );
    let (best_length, mut best_tour) = best;
    if best_tour.is_empty() {
        best_tour = (0..instance.cities).collect();
    }
    TspSolution {
        best_length,
        best_tour,
        nodes_expanded: nodes,
    }
}

/// Generate the branch-and-bound jobs (partial routes of length
/// `1 + JOB_PREFIX_DEPTH`).
pub fn generate_jobs(instance: &TspInstance) -> Vec<TspJob> {
    let mut jobs = Vec::new();
    let n = instance.cities;
    let depth = JOB_PREFIX_DEPTH.min(n - 1);
    let mut stack = vec![(vec![0u16], 0i64)];
    while let Some((prefix, len)) = stack.pop() {
        if prefix.len() == depth + 1 {
            jobs.push(TspJob {
                prefix,
                prefix_len: len,
            });
            continue;
        }
        let last = *prefix.last().unwrap() as usize;
        for city in 1..n {
            if prefix.iter().any(|&c| c as usize == city) {
                continue;
            }
            let mut next = prefix.clone();
            next.push(city as u16);
            stack.push((next, len + instance.distance(last, city)));
        }
    }
    jobs
}

/// Solve an instance with the replicated-worker Orca program on `runtime`.
///
/// Returns the solution (identical optimum to the sequential solver) and the
/// per-worker work report used by the performance model.
pub fn solve_parallel(
    runtime: &OrcaRuntime,
    instance: &TspInstance,
    workers: usize,
) -> (TspSolution, ParallelRunReport) {
    let main = runtime.main();
    // Shared objects: the job queue and the global bound.
    let queue: JobQueue<TspJob> = JobQueue::create(main).expect("create job queue");
    let bound = SharedInt::create(main, instance.nearest_neighbour_bound() + 1).expect("bound");
    // Manager: generate and enqueue the jobs, then close the queue.
    let jobs = generate_jobs(instance);
    queue.add_all(main, &jobs).expect("enqueue jobs");
    queue.close(main).expect("close queue");

    let instance_clone = instance.clone();
    let results = replicated_workers(runtime, workers, move |_worker, ctx| {
        let instance = instance_clone.clone();
        let mut work = WorkerWork::default();
        let mut local_best: (i64, Vec<usize>) = (i64::MAX, Vec::new());
        while let Some(job) = queue.get(&ctx).expect("dequeue job") {
            work.jobs += 1;
            let mut prefix: Vec<usize> = job.prefix.iter().map(|&c| c as usize).collect();
            let mut visited = vec![false; instance.cities];
            for &city in &prefix {
                visited[city] = true;
            }
            let mut nodes = 0u64;
            // Start from this worker's own best pair (not the shared global
            // bound, whose tour lives on another worker); the shared bound
            // still prunes through the closures below.
            let mut best = local_best.clone();
            let prefix_len = job.prefix_len;
            search_from(
                &instance,
                &mut prefix,
                prefix_len,
                &mut visited,
                &mut best,
                &mut nodes,
                &mut |best| bound.value(&ctx).expect("read bound").min(best.0),
                &mut |total, _| {
                    bound.min_assign(&ctx, total).expect("update bound");
                },
            );
            if best.0 < local_best.0 && !best.1.is_empty() {
                local_best = best;
            }
            work.units += nodes;
        }
        (work, local_best)
    });

    let mut per_worker = Vec::with_capacity(results.len());
    let mut best: (i64, Vec<usize>) = (i64::MAX, Vec::new());
    for (work, local_best) in results {
        per_worker.push(work);
        if local_best.0 < best.0 {
            best = local_best;
        }
    }
    let global_bound = bound.value(runtime.main()).expect("final bound");
    let report = ParallelRunReport::new(per_worker);
    let solution = TspSolution {
        best_length: global_bound.min(best.0),
        best_tour: best.1,
        nodes_expanded: report.total_units(),
    };
    (solution, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_wire::Wire;

    fn brute_force(instance: &TspInstance) -> i64 {
        // Only for tiny instances in tests.
        fn permute(
            instance: &TspInstance,
            tour: &mut Vec<usize>,
            used: &mut Vec<bool>,
            best: &mut i64,
        ) {
            if tour.len() == instance.cities {
                *best = (*best).min(instance.tour_length(tour));
                return;
            }
            for city in 1..instance.cities {
                if used[city] {
                    continue;
                }
                used[city] = true;
                tour.push(city);
                permute(instance, tour, used, best);
                tour.pop();
                used[city] = false;
            }
        }
        let mut best = i64::MAX;
        let mut used = vec![false; instance.cities];
        used[0] = true;
        permute(instance, &mut vec![0], &mut used, &mut best);
        best
    }

    #[test]
    fn sequential_matches_brute_force_on_small_instances() {
        for seed in [1, 2, 3] {
            let instance = TspInstance::random(8, seed);
            let solution = solve_sequential(&instance);
            assert_eq!(solution.best_length, brute_force(&instance), "seed {seed}");
            assert_eq!(
                instance.tour_length(&solution.best_tour),
                solution.best_length
            );
        }
    }

    #[test]
    fn nearest_neighbour_is_an_upper_bound() {
        let instance = TspInstance::random(10, 7);
        let solution = solve_sequential(&instance);
        assert!(instance.nearest_neighbour_bound() >= solution.best_length);
    }

    #[test]
    fn job_generation_covers_the_whole_tree() {
        let instance = TspInstance::random(7, 9);
        let jobs = generate_jobs(&instance);
        assert_eq!(jobs.len(), 6 * 5); // (n-1)(n-2) prefixes of depth 2
        for job in &jobs {
            assert_eq!(job.prefix.len(), JOB_PREFIX_DEPTH + 1);
            assert_eq!(job.prefix[0], 0);
        }
    }

    #[test]
    fn parallel_finds_the_same_optimum_as_sequential() {
        let instance = TspInstance::random(9, 11);
        let sequential = solve_sequential(&instance);
        let runtime = OrcaRuntime::standard(3);
        let (parallel, report) = solve_parallel(&runtime, &instance, 3);
        assert_eq!(parallel.best_length, sequential.best_length);
        assert_eq!(report.workers(), 3);
        assert!(report.total_jobs() > 0);
        assert!(report.total_units() > 0);
    }

    #[test]
    fn instance_and_job_codec_round_trip() {
        let instance = TspInstance::random(5, 4);
        assert_eq!(
            TspInstance::from_bytes(&instance.to_bytes()).unwrap(),
            instance
        );
        let job = TspJob {
            prefix: vec![0, 3, 1],
            prefix_len: 42,
        };
        assert_eq!(TspJob::from_bytes(&job.to_bytes()).unwrap(), job);
    }
}
