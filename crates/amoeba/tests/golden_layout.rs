//! The byte layout of the network's wire types, pinned (see the wire
//! crate's `tests/support/golden.rs` for the rules the table is checked
//! against).

#[macro_use]
#[path = "../../wire/tests/support/golden.rs"]
mod golden;

use orca_amoeba::message::Delivery;

golden_tests!(deliveries);

fn deliveries() -> Vec<(Delivery, &'static str)> {
    vec![(Delivery::PointToPoint, "00"), (Delivery::Broadcast, "01")]
}
