//! Golden wire layouts: tables of values and the bytes each encodes to.
//!
//! Every crate that declares a wire type pins its layouts with one of these
//! tables, so a codec change that moves a byte fails where the type lives.
//! The file is included by path (`#[macro_use] #[path = ".."] mod golden;`)
//! and holds the two rules every table is checked against:
//!
//! * **layouts** — a row's value encodes to exactly the row's bytes, and the
//!   bytes decode to exactly the value;
//! * **prefixes** — every strict prefix of a row's bytes fails to decode,
//!   except where the prefix is itself another row's bytes, and then it
//!   decodes to that row's value. The layouts are prefix-closed in two
//!   places only: a message without its trailing `Some` is the `None`
//!   message, and a message with its tail cut is the one with the shorter
//!   tail. So a table that holds such a message also holds the message it
//!   shortens to.

use std::fmt::Debug;

use orca_wire::Wire;

/// `"07 0a ff"` → `[7, 10, 255]`.
pub fn unhex(hex: &str) -> Vec<u8> {
    let byte = |pair| u8::from_str_radix(pair, 16).expect("two hex digits a byte");
    hex.split_whitespace().map(byte).collect()
}

/// `[7, 10, 255]` → `"07 0a ff"`.
pub fn hexed(bytes: &[u8]) -> String {
    let pairs: Vec<String> = bytes.iter().map(|byte| format!("{byte:02x}")).collect();
    pairs.join(" ")
}

/// Each row's value encodes to the row's bytes and decodes back from them.
pub fn layouts<T: Wire + PartialEq + Debug>(table: &str, rows: &[(T, &str)]) {
    for (value, hex) in rows {
        let golden = unhex(hex);
        assert_eq!(
            hexed(&value.to_bytes()),
            hexed(&golden),
            "{table}: {value:?} encodes"
        );
        assert_eq!(T::from_bytes(&golden).as_ref(), Ok(value), "{table}: {hex}");
    }
}

/// Every strict prefix of a row's bytes is a decode error, or another row.
pub fn prefixes<T: Wire + PartialEq + Debug>(table: &str, rows: &[(T, &str)]) {
    let goldens: Vec<Vec<u8>> = rows.iter().map(|(_, hex)| unhex(hex)).collect();
    for ((value, _), golden) in rows.iter().zip(&goldens) {
        for cut in 0..golden.len() {
            let prefix = &golden[..cut];
            let Ok(decoded) = T::from_bytes(prefix) else {
                continue;
            };
            let Some(row) = goldens.iter().position(|bytes| bytes == prefix) else {
                panic!("{table}: {value:?} cut to {cut} bytes decodes to {decoded:?}, no row");
            };
            assert_eq!(
                decoded, rows[row].0,
                "{table}: {value:?} cut to {cut} bytes"
            );
        }
    }
}

/// The two tests of a crate's tables: `golden_layouts` and `golden_prefixes`.
macro_rules! golden_tests {
    ($($table:ident),* $(,)?) => {
        #[test]
        fn golden_layouts() {
            $(golden::layouts(stringify!($table), &$table());)*
        }

        #[test]
        fn golden_prefixes() {
            $(golden::prefixes(stringify!($table), &$table());)*
        }
    };
}
