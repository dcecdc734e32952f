//! The declaration form of a wire type: [`wire_type!`](crate::wire_type).

/// Declare a wire type and its codec at once: a struct, or an enum with an
/// explicit tag on each variant, its fields listed **in wire order**.
///
/// The macro emits the type as written (docs, derives and all), its
/// [`Wire`](crate::Wire) impl and, for an enum, a `u8` constant per variant
/// holding its tag. A struct's encoding is its fields'; an enum's is the
/// variant's tag byte, then its fields, and a tag no variant has fails to
/// decode with [`WireError::InvalidTag`](crate::WireError) naming the type.
/// A field is its own `Wire` encoding, or follows one of the two layout
/// rules the **last** field of a variant may take:
///
/// * `as tail` — a `Vec<u8>` without a length, running to the end of the
///   payload (the transport frames every payload, so the end is known);
/// * `as trailing` — an `Option` written only when it is `Some`, and read
///   only when bytes remain.
///
/// Either makes the message's layout prefix-closed: cut the tail and the
/// bytes are the message with a shorter tail; drop the trailing `Some` and
/// they are the message with `None`. A `reserved { NAME = tag, }` block after
/// an enum declares the tags of messages that are not its variants (a batch
/// request that is its tag and a batch, say) as constants no variant may
/// take. A tag declared twice or reserved, or a rule on a field that is not
/// the last, fails the build.
///
/// ```
/// use orca_wire::{Wire, WireError};
///
/// orca_wire::wire_type! {
///     /// A request of a toy protocol.
///     #[derive(Debug, PartialEq)]
///     pub enum Request {
///         /// Read an entry.
///         GET_TAG = 0 => Get { key: u64 },
///         /// Run an encoded operation on an entry, of one part if named.
///         OP_TAG = 1 => Op { key: u64, op: Vec<u8> as tail },
///         /// Drop every entry, or one part's.
///         CLEAR_TAG = 2 => Clear(Option<u32> as trailing),
///     }
///     reserved {
///         /// A batch of `Op`s: this tag and the batch.
///         BATCH_TAG = 3,
///     }
/// }
///
/// let op = Request::Op { key: 300, op: vec![7, 7] };
/// assert_eq!(op.to_bytes(), [Request::OP_TAG, 0xac, 0x02, 7, 7]);
/// assert_eq!(Request::Clear(None).to_bytes(), [2]);
/// assert_eq!(Request::Clear(Some(5)).to_bytes(), [2, 5]);
/// let batch = Request::from_bytes(&[Request::BATCH_TAG]);
/// assert_eq!(batch, Err(WireError::InvalidTag { type_name: "Request", tag: 3 }));
/// ```
///
/// Tags must be distinct, and a reserved tag is no variant's:
///
/// ```compile_fail
/// orca_wire::wire_type! {
///     pub enum Twice {
///         A_TAG = 0 => A,
///         B_TAG = 0 => B,
///     }
/// }
/// ```
///
/// ```compile_fail
/// orca_wire::wire_type! {
///     pub enum Batched {
///         OP_TAG = 3 => Op(u64),
///     }
///     reserved {
///         /// A batch of `Op`s.
///         BATCH_TAG = 3,
///     }
/// }
/// ```
///
/// A tail is the last field:
///
/// ```compile_fail
/// orca_wire::wire_type! {
///     pub enum Misplaced {
///         OP_TAG = 0 => Op { op: Vec<u8> as tail, key: u64 },
///     }
/// }
/// ```
#[macro_export]
macro_rules! wire_type {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $fty:ty
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty,)*
        }

        impl $crate::Wire for $name {
            fn encode(&self, enc: &mut $crate::Encoder) {
                $($crate::Wire::encode(&self.$field, enc);)*
            }

            fn decode(dec: &mut $crate::Decoder<'_>) -> $crate::WireResult<Self> {
                Ok($name {
                    $($field: $crate::Wire::decode(dec)?,)*
                })
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $tag_name:ident = $tag:literal => $variant:ident
                $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident : $fty:ty $(as $rule:ident)?
                    ),* $(,)?
                })?
                $((
                    $(#[$tmeta:meta])*
                    $tty:ty $(as $trule:ident)?
                ))?
            ),* $(,)?
        }
        $(reserved {
            $($(#[$rmeta:meta])* $reserved:ident = $rtag:literal),* $(,)?
        })?
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant
                $({ $($(#[$fmeta])* $field: $fty,)* })?
                $(($(#[$tmeta])* $tty))?,
            )*
        }

        impl $name {
            $(
                #[doc = concat!("Wire tag of [`", stringify!($name), "::", stringify!($variant), "`].")]
                $vis const $tag_name: u8 = $tag;
            )*
            $($(
                $(#[$rmeta])*
                $vis const $reserved: u8 = $rtag;
            )*)?
        }

        const _: () = {
            assert!(
                $crate::declare::distinct(&[$($name::$tag_name,)* $($($name::$reserved,)*)?]),
                concat!(stringify!($name), ": a tag is declared twice, or reserved"),
            );
            $(assert!(
                $crate::declare::only_last(&[$($($crate::__wire_field!(ruled [$($rule)?])),*)?]),
                concat!(
                    stringify!($name), "::", stringify!($variant),
                    ": only the last field may be `as tail` or `as trailing`",
                ),
            );)*
        };

        impl $crate::Wire for $name {
            fn encode(&self, enc: &mut $crate::Encoder) {
                match self {
                    $(
                        $name::$variant
                        $({ $($field),* })?
                        $(($crate::__wire_field!(bind value [$tty])))? => {
                            enc.put_u8($name::$tag_name);
                            $($($crate::__wire_field!(encode [$($rule)?] $field, enc);)*)?
                            $($crate::__wire_field!(encode [$($trule)?] value, enc);)?
                        }
                    )*
                }
            }

            fn decode(dec: &mut $crate::Decoder<'_>) -> $crate::WireResult<Self> {
                match dec.get_u8()? {
                    $(
                        $name::$tag_name => Ok($name::$variant
                            $({ $($field: $crate::__wire_field!(decode [$($rule)?] dec),)* })?
                            $(($crate::__wire_field!(decode [$($trule)?] dec)))?
                        ),
                    )*
                    tag => Err($crate::WireError::InvalidTag {
                        type_name: stringify!($name),
                        tag: u64::from(tag),
                    }),
                }
            }
        }
    };
}

/// One field of a [`wire_type!`](crate::wire_type) declaration: how it is
/// encoded and decoded under its layout rule (none, `tail` or `trailing`).
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_field {
    (encode [] $value:expr, $enc:ident) => {
        $crate::Wire::encode($value, $enc)
    };
    (encode [tail] $value:expr, $enc:ident) => {
        $enc.put_raw($value)
    };
    (encode [trailing] $value:expr, $enc:ident) => {
        if let Some(value) = $value {
            $crate::Wire::encode(value, $enc)
        }
    };
    (decode [] $dec:ident) => {
        $crate::Wire::decode($dec)?
    };
    (decode [tail] $dec:ident) => {
        $dec.get_rest().to_vec()
    };
    (decode [trailing] $dec:ident) => {
        ($dec.remaining() > 0)
            .then(|| $crate::Wire::decode($dec))
            .transpose()?
    };
    (ruled []) => {
        false
    };
    (ruled [$rule:ident]) => {
        true
    };
    // A tuple variant's one field, bound to `$value`; its type is passed
    // only so the pattern repeats once per tuple variant.
    (bind $value:ident [$ty:ty]) => {
        $value
    };
}

/// True when no tag appears twice.
pub const fn distinct(tags: &[u8]) -> bool {
    let mut at = 0;
    while at < tags.len() {
        let mut other = at + 1;
        while other < tags.len() {
            if tags[at] == tags[other] {
                return false;
            }
            other += 1;
        }
        at += 1;
    }
    true
}

/// True when no field but the last follows a layout rule of its own.
pub const fn only_last(ruled: &[bool]) -> bool {
    let mut at = 0;
    while at + 1 < ruled.len() {
        if ruled[at] {
            return false;
        }
        at += 1;
    }
    true
}
