//! Registry of object types known to a node.
//!
//! When a "create object" or "install copy" message arrives over the network
//! it carries only the object's *type name* and encoded state; the receiving
//! runtime system looks the name up here to construct a concrete replica.
//! Every node of an application registers the same set of types (in Orca this
//! is guaranteed by compiling one program that runs everywhere).

use std::collections::HashMap;
use std::sync::Arc;

use crate::replica::{AnyReplica, Replica};
use crate::shard::{ShardAdapter, ShardLogic, ShardableType};
use crate::{ObjectError, ObjectType};

type Factory = Arc<dyn Fn(&[u8]) -> Result<Box<dyn AnyReplica>, ObjectError> + Send + Sync>;

/// Maps registered type names to replica factories and, for shardable
/// types, their partitioning logic.
#[derive(Clone, Default)]
pub struct ObjectRegistry {
    factories: HashMap<&'static str, Factory>,
    shard_logic: HashMap<&'static str, Arc<dyn ShardLogic>>,
}

impl std::fmt::Debug for ObjectRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectRegistry")
            .field("types", &self.factories.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ObjectRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        ObjectRegistry::default()
    }

    /// Register an object type. Registering the same type twice is harmless.
    pub fn register<T: ObjectType>(&mut self) -> &mut Self {
        self.factories.insert(
            T::TYPE_NAME,
            Arc::new(|bytes: &[u8]| {
                Ok(Box::new(Replica::<T>::from_state_bytes(bytes)?) as Box<dyn AnyReplica>)
            }),
        );
        self
    }

    /// Register a shardable object type: the replica factory plus the
    /// partitioning logic the sharded runtime system needs. Types registered
    /// with plain [`ObjectRegistry::register`] fall back to primary-copy
    /// semantics under the sharded runtime system.
    pub fn register_sharded<T: ShardableType>(&mut self) -> &mut Self {
        self.register::<T>();
        self.shard_logic
            .insert(T::TYPE_NAME, ShardAdapter::<T>::shared());
        self
    }

    /// True if `type_name` has been registered.
    pub fn contains(&self, type_name: &str) -> bool {
        self.factories.contains_key(type_name)
    }

    /// `Ok` if `type_name` has been registered, else
    /// [`ObjectError::UnknownType`]: what a runtime system answers a create
    /// of a type its node cannot instantiate.
    pub fn require(&self, type_name: &str) -> Result<(), ObjectError> {
        match self.contains(type_name) {
            true => Ok(()),
            false => Err(ObjectError::UnknownType(type_name.to_string())),
        }
    }

    /// Partitioning logic of `type_name`, if it was registered as shardable.
    pub fn shard_logic(&self, type_name: &str) -> Option<Arc<dyn ShardLogic>> {
        self.shard_logic.get(type_name).cloned()
    }

    /// Names of all registered types (unordered).
    pub fn type_names(&self) -> Vec<&'static str> {
        self.factories.keys().copied().collect()
    }

    /// Instantiate a replica of `type_name` from an encoded state.
    pub fn instantiate(
        &self,
        type_name: &str,
        state: &[u8],
    ) -> Result<Box<dyn AnyReplica>, ObjectError> {
        let factory = self
            .factories
            .get(type_name)
            .ok_or_else(|| ObjectError::UnknownType(type_name.to_string()))?;
        factory(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{Accumulator, AccumulatorOp};
    use orca_wire::Wire;

    #[test]
    fn register_and_instantiate() {
        let mut registry = ObjectRegistry::new();
        registry.register::<Accumulator>();
        assert!(registry.contains(Accumulator::TYPE_NAME));
        assert_eq!(registry.type_names(), vec![Accumulator::TYPE_NAME]);

        let state = 5i64.to_bytes();
        let mut replica = registry
            .instantiate(Accumulator::TYPE_NAME, &state)
            .unwrap();
        assert_eq!(replica.type_name(), Accumulator::TYPE_NAME);
        let reply = replica
            .apply_encoded(&AccumulatorOp::Read.to_bytes())
            .unwrap();
        match reply {
            crate::AppliedOutcome::Done(bytes) => {
                assert_eq!(i64::from_bytes(&bytes).unwrap(), 5)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_type_is_an_error() {
        let registry = ObjectRegistry::new();
        assert!(matches!(
            registry.instantiate("Nope", &[]),
            Err(ObjectError::UnknownType(_))
        ));
    }

    #[test]
    fn bad_state_is_a_codec_error() {
        let mut registry = ObjectRegistry::new();
        registry.register::<Accumulator>();
        assert!(matches!(
            registry.instantiate(Accumulator::TYPE_NAME, &[0xff, 0xff, 0xff, 0xff, 0xff]),
            Err(ObjectError::Codec(_))
        ));
    }

    #[test]
    fn double_registration_is_harmless() {
        let mut registry = ObjectRegistry::new();
        registry.register::<Accumulator>().register::<Accumulator>();
        assert_eq!(registry.type_names().len(), 1);
    }

    #[test]
    fn sharded_registration_exposes_logic() {
        use crate::testing::{Bank, BankOp};
        use crate::ShardRoute;
        use orca_wire::Wire;
        let mut registry = ObjectRegistry::new();
        registry
            .register::<Accumulator>()
            .register_sharded::<Bank>();
        assert!(registry.shard_logic(Accumulator::TYPE_NAME).is_none());
        let logic = registry.shard_logic(Bank::TYPE_NAME).expect("bank shards");
        assert_eq!(
            logic.route(&BankOp::Sum.to_bytes(), 4).unwrap(),
            ShardRoute::All
        );
        // The factory is registered too.
        let state = <Bank as crate::ObjectType>::State::new().to_bytes();
        assert!(registry.instantiate(Bank::TYPE_NAME, &state).is_ok());
    }
}
