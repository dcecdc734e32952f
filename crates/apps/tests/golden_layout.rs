//! The byte layout of the applications' operations, replies and jobs,
//! pinned: every variant with the hex bytes it encodes to (see the wire
//! crate's `tests/support/golden.rs` for the rules each table is checked
//! against).

#[macro_use]
#[path = "../../wire/tests/support/golden.rs"]
mod golden;

use orca_apps::acp::{Constraint, DomainOp, DomainReply};
use orca_apps::chess::parallel::ChessJob;
use orca_apps::tsp::{TspInstance, TspJob};

golden_tests!(
    constraints,
    domain_ops,
    domain_replies,
    chess_jobs,
    tsp_instances,
    tsp_jobs,
);

fn constraints() -> Vec<(Constraint, &'static str)> {
    vec![
        (
            Constraint::Less {
                a: 1,
                b: 300,
                offset: -2,
            },
            "00 01 ac 02 03",
        ),
        (
            Constraint::NotEqual {
                a: 0,
                b: 4,
                offset: 2,
            },
            "01 00 04 04",
        ),
    ]
}

fn domain_ops() -> Vec<(DomainOp, &'static str)> {
    vec![
        (DomainOp::RemoveValue { var: 3, value: -1 }, "00 03 01"),
        (DomainOp::GetSet(300), "01 ac 02"),
        (DomainOp::SizeOf(2), "02 02"),
        (DomainOp::AllSets, "03"),
    ]
}

fn domain_replies() -> Vec<(DomainReply, &'static str)> {
    vec![
        (DomainReply::Size(5), "00 05"),
        (DomainReply::Set(vec![0, -1, 64]), "01 03 00 01 80 01"),
        (
            DomainReply::AllSets(vec![vec![1], vec![]]),
            "02 02 01 02 00",
        ),
    ]
}

fn chess_jobs() -> Vec<(ChessJob, &'static str)> {
    vec![(
        ChessJob {
            mv: 1 << 20,
            depth: 4,
        },
        "80 80 40 08",
    )]
}

fn tsp_instances() -> Vec<(TspInstance, &'static str)> {
    vec![(
        TspInstance {
            cities: 2,
            dist: vec![0, 300, 300, 0],
        },
        "02 04 00 d8 04 d8 04 00",
    )]
}

fn tsp_jobs() -> Vec<(TspJob, &'static str)> {
    vec![(
        TspJob {
            prefix: vec![0, 3],
            prefix_len: 128,
        },
        "02 00 03 80 02",
    )]
}
