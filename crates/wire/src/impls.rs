//! [`Wire`] implementations for standard-library types.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::hash::Hash;

use crate::{Decoder, Encoder, Wire, WireError, WireResult};

macro_rules! impl_wire_uint {
    ($($ty:ty),*) => {
        $(
            impl Wire for $ty {
                fn encode(&self, enc: &mut Encoder) {
                    enc.put_uvarint(u64::from(*self));
                }
                fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
                    let value = dec.get_uvarint()?;
                    <$ty>::try_from(value).map_err(|_| WireError::LengthTooLarge {
                        len: value,
                        max: u64::from(<$ty>::MAX),
                    })
                }
            }
        )*
    };
}

impl_wire_uint!(u16, u32);

impl Wire for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvarint(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        dec.get_uvarint()
    }
}

impl Wire for usize {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvarint(*self as u64);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let value = dec.get_uvarint()?;
        usize::try_from(value).map_err(|_| WireError::LengthTooLarge {
            len: value,
            max: usize::MAX as u64,
        })
    }
}

macro_rules! impl_wire_int {
    ($($ty:ty),*) => {
        $(
            impl Wire for $ty {
                fn encode(&self, enc: &mut Encoder) {
                    enc.put_ivarint(i64::from(*self));
                }
                fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
                    let value = dec.get_ivarint()?;
                    <$ty>::try_from(value).map_err(|_| WireError::custom(concat!(
                        "integer out of range for ", stringify!($ty)
                    )))
                }
            }
        )*
    };
}

impl_wire_int!(i8, i16, i32);

impl Wire for i64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_ivarint(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        dec.get_ivarint()
    }
}

impl Wire for f64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        dec.get_f64()
    }
}

impl Wire for f32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f32(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        dec.get_f32()
    }
}

impl Wire for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        dec.get_bool()
    }
}

impl Wire for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        dec.get_str()
    }
}

impl Wire for () {
    fn encode(&self, _enc: &mut Encoder) {}
    fn decode(_dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            None => enc.put_u8(0),
            Some(value) => {
                enc.put_u8(1);
                value.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(dec)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "Option",
                tag: u64::from(tag),
            }),
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Ok(value) => {
                enc.put_u8(0);
                value.encode(enc);
            }
            Err(err) => {
                enc.put_u8(1);
                err.encode(enc);
            }
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        match dec.get_u8()? {
            0 => Ok(Ok(T::decode(dec)?)),
            1 => Ok(Err(E::decode(dec)?)),
            tag => Err(WireError::InvalidTag {
                type_name: "Result",
                tag: u64::from(tag),
            }),
        }
    }
}

/// A byte string is a length and the bytes. `u8` itself is deliberately not
/// [`Wire`]: through the per-element path below every byte would be a
/// varint, two bytes for each one of 0x80 and up.
impl Wire for Vec<u8> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bytes(self);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        dec.get_bytes()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let len = dec.get_len()?;
        let mut out = Vec::with_capacity(len.min(4096));
        for _ in 0..len {
            out.push(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for VecDeque<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(Vec::<T>::decode(dec)?.into())
    }
}

impl<T: Wire + Default + Copy, const N: usize> Wire for [T; N] {
    fn encode(&self, enc: &mut Encoder) {
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let mut out = [T::default(); N];
        for slot in out.iter_mut() {
            *slot = T::decode(dec)?;
        }
        Ok(out)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        for (key, value) in self {
            key.encode(enc);
            value.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let len = dec.get_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let key = K::decode(dec)?;
            let value = V::decode(dec)?;
            out.insert(key, value);
        }
        Ok(out)
    }
}

impl<K: Wire + Eq + Hash, V: Wire> Wire for HashMap<K, V> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        for (key, value) in self {
            key.encode(enc);
            value.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let len = dec.get_len()?;
        let mut out = HashMap::with_capacity(len.min(4096));
        for _ in 0..len {
            let key = K::decode(dec)?;
            let value = V::decode(dec)?;
            out.insert(key, value);
        }
        Ok(out)
    }
}

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let len = dec.get_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(dec)?);
        }
        Ok(out)
    }
}

impl<T: Wire + Eq + Hash> Wire for HashSet<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_len(self.len());
        for item in self {
            item.encode(enc);
        }
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        let len = dec.get_len()?;
        let mut out = HashSet::with_capacity(len.min(4096));
        for _ in 0..len {
            out.insert(T::decode(dec)?);
        }
        Ok(out)
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, enc: &mut Encoder) {
                $(self.$idx.encode(enc);)+
            }
            fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
                Ok(($($name::decode(dec)?,)+))
            }
        }
    };
}

impl_wire_tuple!(A: 0);
impl_wire_tuple!(A: 0, B: 1);
impl_wire_tuple!(A: 0, B: 1, C: 2);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3);
impl_wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl<T: Wire> Wire for Box<T> {
    fn encode(&self, enc: &mut Encoder) {
        (**self).encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(Box::new(T::decode(dec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collections_round_trip() {
        let v: Vec<u32> = vec![1, 2, 3, 500_000];
        assert_eq!(Vec::<u32>::from_bytes(&v.to_bytes()).unwrap(), v);

        let mut map = BTreeMap::new();
        map.insert("a".to_string(), vec![1u8, 2]);
        map.insert("b".to_string(), vec![]);
        assert_eq!(
            BTreeMap::<String, Vec<u8>>::from_bytes(&map.to_bytes()).unwrap(),
            map
        );

        let mut hs = HashSet::new();
        hs.insert(42u64);
        hs.insert(7);
        assert_eq!(HashSet::<u64>::from_bytes(&hs.to_bytes()).unwrap(), hs);

        let dq: VecDeque<i32> = vec![-1, 0, 1].into();
        assert_eq!(VecDeque::<i32>::from_bytes(&dq.to_bytes()).unwrap(), dq);
    }

    #[test]
    fn option_and_result_round_trip() {
        let some: Option<String> = Some("x".into());
        let none: Option<String> = None;
        assert_eq!(
            Option::<String>::from_bytes(&some.to_bytes()).unwrap(),
            some
        );
        assert_eq!(
            Option::<String>::from_bytes(&none.to_bytes()).unwrap(),
            none
        );

        let ok: Result<u32, String> = Ok(7);
        let err: Result<u32, String> = Err("bad".into());
        assert_eq!(
            Result::<u32, String>::from_bytes(&ok.to_bytes()).unwrap(),
            ok
        );
        assert_eq!(
            Result::<u32, String>::from_bytes(&err.to_bytes()).unwrap(),
            err
        );
    }

    #[test]
    fn tuples_and_arrays_round_trip() {
        let t = (1u16, -5i32, "hi".to_string(), true);
        assert_eq!(
            <(u16, i32, String, bool)>::from_bytes(&t.to_bytes()).unwrap(),
            t
        );
        let arr = [1u16, 2, 3, 4];
        assert_eq!(<[u16; 4]>::from_bytes(&arr.to_bytes()).unwrap(), arr);
    }

    #[test]
    fn narrowing_decode_fails_cleanly() {
        let big = 70_000u64;
        assert!(u16::from_bytes(&big.to_bytes()).is_err());
        let neg = -1i64;
        assert!(i8::from_bytes(&(-200i64).to_bytes()).is_err());
        assert_eq!(i64::from_bytes(&neg.to_bytes()).unwrap(), -1);
    }
}
