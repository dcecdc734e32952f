//! Typed access to the regime protocol messages.
//!
//! The message vocabulary and codecs live in `orca-wire` (the bottom of the
//! stack), where object ids are raw `u64`s; this module re-exports them and
//! provides the [`ObjectId`] conversions the runtime system uses.

use orca_object::ObjectId;
pub use orca_wire::{RegimeKind, RegimeMsg, RegimeReply, RegimeTable};

/// True for the regimes this engine serves. The wire vocabulary reserves
/// one more name; a table or an install that carries it is refused like any
/// unknown regime.
pub(crate) fn served(regime: RegimeKind) -> bool {
    matches!(regime, RegimeKind::Replicated | RegimeKind::Sharded)
}

/// The object a wire-level regime table refers to.
pub(crate) fn table_object(table: &RegimeTable) -> ObjectId {
    ObjectId(table.object)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orca_wire::Wire;

    #[test]
    fn object_id_conversion_round_trips() {
        let object = ObjectId::compose(2, 41);
        let table = RegimeTable {
            object: object.0,
            type_name: "orca.Int".into(),
            epoch: 0,
            regime: RegimeKind::Replicated,
            owners: vec![2],
            mirrors: Vec::new(),
        };
        assert_eq!(table_object(&table), object);
        // Raw u64 carriage matches ObjectId's own wire encoding.
        assert_eq!(object.to_bytes(), object.0.to_bytes());
    }
}
