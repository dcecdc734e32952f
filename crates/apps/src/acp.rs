//! The Arc Consistency Problem (§4.2, Fig. 3).
//!
//! Input: variables `V0..Vn`, each with a finite domain of integer values,
//! and binary constraints of the form `Vi (+ c) < Vj`, `Vi != Vj + c`, etc.
//! The goal is the maximal set of values for each variable such that every
//! constraint can still be satisfied (arc consistency).
//!
//! The Orca program statically partitions the variables over the worker
//! processes and uses four shared objects, exactly as described in the
//! paper:
//!
//! * `domain` — an application-defined object holding the value set of every
//!   variable, with an indivisible `RemoveValue` operation;
//! * `work` — a boolean array: `work[v]` is true when variable `v` must be
//!   rechecked;
//! * `quit` — a boolean flag set when some variable's set becomes empty
//!   (no solution);
//! * `result` — a boolean array with one entry per process, true when that
//!   process has no more work; the program terminates when all `work`
//!   entries are false and all `result` entries are true.

use std::collections::BTreeSet;

use orca_core::objects::{BoolArray, BoolFlag};
use orca_core::{replicated_workers, ObjectHandle, OrcaNode, OrcaRuntime};
use orca_object::{ObjectType, OpKind, OpOutcome};
use orca_wire::wire_type;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{ParallelRunReport, WorkerWork};

wire_type! {
    /// A binary constraint between two variables.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Constraint {
        /// `Va + offset < Vb`
        LESS_TAG = 0 => Less {
            /// Left variable.
            a: u32,
            /// Right variable.
            b: u32,
            /// Offset added to `Va`.
            offset: i32,
        },
        /// `Va != Vb + offset`
        NOT_EQUAL_TAG = 1 => NotEqual {
            /// Left variable.
            a: u32,
            /// Right variable.
            b: u32,
            /// Offset added to `Vb`.
            offset: i32,
        },
    }
}

impl Constraint {
    /// The two variables the constraint involves.
    pub fn variables(&self) -> (u32, u32) {
        match self {
            Constraint::Less { a, b, .. } | Constraint::NotEqual { a, b, .. } => (*a, *b),
        }
    }

    /// True if assigning `va` to the first variable and `vb` to the second
    /// satisfies the constraint.
    pub fn satisfied(&self, va: i32, vb: i32) -> bool {
        match self {
            Constraint::Less { offset, .. } => va + offset < vb,
            Constraint::NotEqual { offset, .. } => va != vb + offset,
        }
    }
}

/// An ACP instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcpInstance {
    /// Number of variables.
    pub variables: usize,
    /// Initial domain of every variable (`0..domain_size`).
    pub domain_size: i32,
    /// The constraints.
    pub constraints: Vec<Constraint>,
}

impl AcpInstance {
    /// Generate a random instance. The paper's Fig. 3 uses 64 variables; the
    /// constraint graph here is a sparse random graph of comparison
    /// constraints, which produces plenty of propagation work.
    pub fn random(variables: usize, domain_size: i32, constraints: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut list = Vec::with_capacity(constraints);
        for _ in 0..constraints {
            let a = rng.gen_range(0..variables as u32);
            let mut b = rng.gen_range(0..variables as u32);
            while b == a {
                b = rng.gen_range(0..variables as u32);
            }
            let offset = rng.gen_range(-2..3);
            if rng.gen_bool(0.7) {
                list.push(Constraint::Less { a, b, offset });
            } else {
                list.push(Constraint::NotEqual { a, b, offset });
            }
        }
        AcpInstance {
            variables,
            domain_size,
            constraints: list,
        }
    }

    /// Constraints that involve variable `v`.
    pub fn constraints_of(&self, v: u32) -> Vec<Constraint> {
        self.constraints
            .iter()
            .copied()
            .filter(|c| {
                let (a, b) = c.variables();
                a == v || b == v
            })
            .collect()
    }

    /// Variables that share a constraint with `v`.
    pub fn neighbours(&self, v: u32) -> Vec<u32> {
        let mut out = BTreeSet::new();
        for c in &self.constraints {
            let (a, b) = c.variables();
            if a == v {
                out.insert(b);
            } else if b == v {
                out.insert(a);
            }
        }
        out.into_iter().collect()
    }
}

/// The shared `domain` object: one value set per variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainObject;

wire_type! {
    /// Operations of [`DomainObject`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum DomainOp {
        /// Remove `value` from variable `var`'s set (write). Returns the new set
        /// size (0 means the problem has no solution).
        REMOVE_VALUE_TAG = 0 => RemoveValue {
            /// Variable index.
            var: u32,
            /// Value to remove.
            value: i32,
        },
        /// Return variable `var`'s current value set (read).
        GET_SET_TAG = 1 => GetSet(u32),
        /// Return the size of variable `var`'s set (read).
        SIZE_OF_TAG = 2 => SizeOf(u32),
        /// Return the sizes of all value sets (read) — used to extract the final
        /// fixpoint.
        ALL_SETS_TAG = 3 => AllSets,
    }
}

wire_type! {
    /// Reply type of [`DomainObject`] operations.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum DomainReply {
        /// New (or current) size of one set.
        SIZE_TAG = 0 => Size(u64),
        /// One variable's value set.
        SET_TAG = 1 => Set(Vec<i32>),
        /// Every variable's value set.
        ALL_SETS_TAG = 2 => AllSets(Vec<Vec<i32>>),
    }
}

impl ObjectType for DomainObject {
    type State = Vec<Vec<i32>>;
    type Op = DomainOp;
    type Reply = DomainReply;

    const TYPE_NAME: &'static str = "apps.AcpDomain";

    fn kind(op: &Self::Op) -> OpKind {
        match op {
            DomainOp::RemoveValue { .. } => OpKind::Write,
            DomainOp::GetSet(_) | DomainOp::SizeOf(_) | DomainOp::AllSets => OpKind::Read,
        }
    }

    fn apply(state: &mut Self::State, op: &Self::Op) -> OpOutcome<Self::Reply> {
        match op {
            DomainOp::RemoveValue { var, value } => {
                let set = &mut state[*var as usize];
                set.retain(|v| v != value);
                OpOutcome::Done(DomainReply::Size(set.len() as u64))
            }
            DomainOp::GetSet(var) => {
                OpOutcome::Done(DomainReply::Set(state[*var as usize].clone()))
            }
            DomainOp::SizeOf(var) => {
                OpOutcome::Done(DomainReply::Size(state[*var as usize].len() as u64))
            }
            DomainOp::AllSets => OpOutcome::Done(DomainReply::AllSets(state.clone())),
        }
    }
}

/// Result of an ACP solve: the arc-consistent value sets (empty vector means
/// "no solution") plus the number of constraint revisions performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcpSolution {
    /// Final value set of every variable.
    pub domains: Vec<Vec<i32>>,
    /// True if some variable ended with an empty set.
    pub no_solution: bool,
    /// Constraint revisions performed (the work metric).
    pub revisions: u64,
}

/// One revision step: remove from `var`'s set every value that has no
/// support in `other`'s set under `constraint`. Returns the removed values.
fn revise(
    constraint: &Constraint,
    var: u32,
    var_set: &[i32],
    other: u32,
    other_set: &[i32],
) -> Vec<i32> {
    let (a, b) = constraint.variables();
    var_set
        .iter()
        .copied()
        .filter(|&value| {
            let supported = other_set.iter().copied().any(|other_value| {
                if var == a && other == b {
                    constraint.satisfied(value, other_value)
                } else {
                    constraint.satisfied(other_value, value)
                }
            });
            !supported
        })
        .collect()
}

/// Sequential AC fixpoint (the straightforward algorithm of the paper).
pub fn solve_sequential(instance: &AcpInstance) -> AcpSolution {
    let mut domains: Vec<Vec<i32>> = (0..instance.variables)
        .map(|_| (0..instance.domain_size).collect())
        .collect();
    let mut work: Vec<bool> = vec![true; instance.variables];
    let mut revisions = 0u64;
    while let Some(var) = work.iter().position(|w| *w) {
        work[var] = false;
        let var = var as u32;
        for constraint in instance.constraints_of(var) {
            let (a, b) = constraint.variables();
            let other = if a == var { b } else { a };
            revisions += 1;
            let removed = revise(
                &constraint,
                var,
                &domains[var as usize],
                other,
                &domains[other as usize],
            );
            if removed.is_empty() {
                continue;
            }
            domains[var as usize].retain(|v| !removed.contains(v));
            if domains[var as usize].is_empty() {
                return AcpSolution {
                    domains,
                    no_solution: true,
                    revisions,
                };
            }
            // Every neighbour of `var` must be rechecked.
            for neighbour in instance.neighbours(var) {
                work[neighbour as usize] = true;
            }
            work[var as usize] = true;
        }
    }
    AcpSolution {
        domains,
        no_solution: false,
        revisions,
    }
}

/// Parallel ACP with the paper's object decomposition. Variables are
/// statically partitioned over `workers` worker processes.
pub fn solve_parallel(
    runtime: &OrcaRuntime,
    instance: &AcpInstance,
    workers: usize,
) -> (AcpSolution, ParallelRunReport) {
    let main = runtime.main();
    let initial_domains: Vec<Vec<i32>> = (0..instance.variables)
        .map(|_| (0..instance.domain_size).collect())
        .collect();
    let domain: ObjectHandle<DomainObject> = main
        .create::<DomainObject>(&initial_domains)
        .expect("domain object");
    let work = BoolArray::create(main, instance.variables, true).expect("work object");
    let quit = BoolFlag::create(main, false).expect("quit object");
    let result = BoolArray::create(main, workers, false).expect("result object");

    let instance_clone = instance.clone();
    let reports = replicated_workers(runtime, workers, move |worker, ctx| {
        let instance = instance_clone.clone();
        let mut stats = WorkerWork::default();
        // Static partition of the variables over the workers, as in the
        // hypercube program the paper compares against.
        let mine: Vec<u32> = (0..instance.variables as u32)
            .filter(|v| (*v as usize) % workers == worker)
            .collect();
        let mut announced_idle = false;
        loop {
            if quit.get(&ctx).expect("quit flag") {
                break;
            }
            let mut did_work = false;
            for &var in &mine {
                if !work.get(&ctx, var).expect("work flag") {
                    continue;
                }
                if announced_idle {
                    result.set(&ctx, worker as u32, false).expect("busy again");
                    announced_idle = false;
                }
                work.set(&ctx, var, false).expect("clear work flag");
                did_work = true;
                stats.jobs += 1;
                let reduced = recheck_variable(&ctx, &instance, domain, var, &mut stats);
                match reduced {
                    RecheckOutcome::Empty => {
                        quit.set(&ctx, true).expect("set quit");
                        break;
                    }
                    RecheckOutcome::Reduced => {
                        let neighbours = instance.neighbours(var);
                        work.set_all_of(&ctx, neighbours).expect("mark neighbours");
                        // The variable itself must also be rechecked against
                        // its other constraints after a reduction.
                        work.set(&ctx, var, true).expect("remark var");
                    }
                    RecheckOutcome::Unchanged => {}
                }
            }
            if did_work {
                continue;
            }
            // Willing to terminate: publish the claim and test the global
            // termination condition. Reading `result` before `work` is what
            // makes the test safe: any work created before the last worker
            // announced idleness is guaranteed to be visible.
            if !announced_idle {
                result.set(&ctx, worker as u32, true).expect("result entry");
                announced_idle = true;
            }
            let all_idle = result.all_true(&ctx).expect("result all true");
            let no_work = work.all_false(&ctx).expect("work all false");
            if quit.get(&ctx).expect("quit") || (all_idle && no_work) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        stats
    });

    // The AllSets read below is local to main's replica, which can lag
    // behind the final worker writes. Barrier on the *domain object itself*:
    // removing a value that can never be present (domains only ever hold
    // 0..domain_size) is a no-op write, sequenced after every worker write
    // to the object, that completes only once main's replica has applied
    // them all. A stale `quit` read is harmless: `quit` is only ever set
    // after the RemoveValue that emptied a set, so the domains check below
    // catches the no-solution case on its own.
    main.invoke(domain, &DomainOp::RemoveValue { var: 0, value: -1 })
        .expect("sync barrier");
    let final_domains = match main
        .invoke(domain, &DomainOp::AllSets)
        .expect("final domains")
    {
        DomainReply::AllSets(sets) => sets,
        _ => Vec::new(),
    };
    let no_solution = quit.get(main).expect("quit flag") || final_domains.iter().any(Vec::is_empty);
    let report = ParallelRunReport::new(reports);
    let solution = AcpSolution {
        domains: final_domains,
        no_solution,
        revisions: report.total_units(),
    };
    (solution, report)
}

/// Outcome of rechecking one variable.
enum RecheckOutcome {
    Unchanged,
    Reduced,
    Empty,
}

fn recheck_variable(
    ctx: &OrcaNode,
    instance: &AcpInstance,
    domain: ObjectHandle<DomainObject>,
    var: u32,
    stats: &mut WorkerWork,
) -> RecheckOutcome {
    let mut outcome = RecheckOutcome::Unchanged;
    for constraint in instance.constraints_of(var) {
        let (a, b) = constraint.variables();
        let other = if a == var { b } else { a };
        stats.units += 1;
        let var_set = match ctx.invoke(domain, &DomainOp::GetSet(var)).expect("get set") {
            DomainReply::Set(values) => values,
            _ => continue,
        };
        let other_set = match ctx
            .invoke(domain, &DomainOp::GetSet(other))
            .expect("get other set")
        {
            DomainReply::Set(values) => values,
            _ => continue,
        };
        let removed = revise(&constraint, var, &var_set, other, &other_set);
        for value in removed {
            let size = match ctx
                .invoke(domain, &DomainOp::RemoveValue { var, value })
                .expect("remove value")
            {
                DomainReply::Size(size) => size,
                _ => 1,
            };
            outcome = RecheckOutcome::Reduced;
            if size == 0 {
                return RecheckOutcome::Empty;
            }
        }
    }
    outcome
}

/// Register the application object types used by ACP on top of the standard
/// registry.
pub fn registry() -> orca_object::ObjectRegistry {
    let mut registry = orca_core::standard_registry();
    registry.register::<DomainObject>();
    registry
}

/// Build a runtime suitable for running parallel ACP.
pub fn runtime(processors: usize) -> OrcaRuntime {
    OrcaRuntime::start(orca_core::OrcaConfig::broadcast(processors), registry())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_wire::Wire;

    #[test]
    fn sequential_fixpoint_is_arc_consistent() {
        let instance = AcpInstance::random(12, 8, 24, 3);
        let solution = solve_sequential(&instance);
        if !solution.no_solution {
            for constraint in &instance.constraints {
                let (a, b) = constraint.variables();
                for &va in &solution.domains[a as usize] {
                    assert!(
                        solution.domains[b as usize]
                            .iter()
                            .any(|&vb| constraint.satisfied(va, vb)),
                        "value {va} of V{a} unsupported"
                    );
                }
            }
        }
        assert!(solution.revisions > 0);
    }

    #[test]
    fn chain_of_less_constraints_prunes_as_expected() {
        // V0 < V1 < V2 over 0..3 forces V0 in {0}, V1 in {1}, V2 in {2}.
        let instance = AcpInstance {
            variables: 3,
            domain_size: 3,
            constraints: vec![
                Constraint::Less {
                    a: 0,
                    b: 1,
                    offset: 0,
                },
                Constraint::Less {
                    a: 1,
                    b: 2,
                    offset: 0,
                },
            ],
        };
        let solution = solve_sequential(&instance);
        assert!(!solution.no_solution);
        assert_eq!(solution.domains[0], vec![0]);
        assert_eq!(solution.domains[1], vec![1]);
        assert_eq!(solution.domains[2], vec![2]);
    }

    #[test]
    fn unsatisfiable_instance_is_detected() {
        // V0 < V1 and V1 < V0 over a domain of size 2 has no solution.
        let instance = AcpInstance {
            variables: 2,
            domain_size: 2,
            constraints: vec![
                Constraint::Less {
                    a: 0,
                    b: 1,
                    offset: 0,
                },
                Constraint::Less {
                    a: 1,
                    b: 0,
                    offset: 0,
                },
            ],
        };
        let solution = solve_sequential(&instance);
        assert!(solution.no_solution);
    }

    #[test]
    fn parallel_fixpoint_matches_sequential() {
        let instance = AcpInstance::random(16, 6, 30, 5);
        let sequential = solve_sequential(&instance);
        let runtime = runtime(3);
        let (parallel, report) = solve_parallel(&runtime, &instance, 3);
        assert_eq!(parallel.no_solution, sequential.no_solution);
        if !parallel.no_solution {
            assert_eq!(parallel.domains, sequential.domains);
        }
        assert_eq!(report.workers(), 3);
    }

    #[test]
    fn codec_round_trips() {
        let instance = AcpInstance::random(4, 3, 6, 1);
        for c in &instance.constraints {
            assert_eq!(Constraint::from_bytes(&c.to_bytes()).unwrap(), *c);
        }
        for op in [
            DomainOp::RemoveValue { var: 1, value: 2 },
            DomainOp::GetSet(0),
            DomainOp::SizeOf(3),
            DomainOp::AllSets,
        ] {
            assert_eq!(DomainOp::from_bytes(&op.to_bytes()).unwrap(), op);
        }
        for reply in [
            DomainReply::Size(2),
            DomainReply::Set(vec![1, 2]),
            DomainReply::AllSets(vec![vec![0], vec![]]),
        ] {
            assert_eq!(DomainReply::from_bytes(&reply.to_bytes()).unwrap(), reply);
        }
    }
}
