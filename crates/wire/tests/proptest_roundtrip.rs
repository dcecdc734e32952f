//! Property-based round-trip tests for the wire codec.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these properties are driven by a seeded SplitMix64 generator: each test
//! runs a fixed number of random cases and is fully reproducible. On failure
//! the assert message carries the case index, which together with the fixed
//! seed pins down the failing input exactly.
//!
//! Every value round-tripped here is also sized: its `encoded_len`, a size
//! pass that writes nothing, is exactly the length of its bytes
//! (`assert_exact_len`) — the number a home prices an object's first move by.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use orca_wire::{Decoder, Encoder, Wire, WireResult};

/// Cases per property: 512, or `ORCA_PROPTEST_CASES` (CI raises it).
static CASES: std::sync::LazyLock<usize> = std::sync::LazyLock::new(|| {
    std::env::var("ORCA_PROPTEST_CASES")
        .ok()
        .and_then(|cases| cases.parse().ok())
        .unwrap_or(512)
});

/// Minimal deterministic generator, kept local so this test needs no deps.
struct Gen {
    state: u64,
}

impl Gen {
    fn new(seed: u64) -> Self {
        Gen {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    fn string(&mut self) -> String {
        let len = self.below(24);
        (0..len)
            .map(|_| {
                // Bias toward ASCII but include multi-byte code points.
                match self.below(8) {
                    0 => char::from_u32(0x00C0 + self.below(0x200) as u32).unwrap_or('é'),
                    1 => '日',
                    _ => (b' ' + self.below(95) as u8) as char,
                }
            })
            .collect()
    }

    fn bytes(&mut self, max_len: usize) -> Vec<u8> {
        let len = self.below(max_len);
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// The size pass counts exactly the bytes the encoding writes.
fn assert_exact_len<T: Wire + std::fmt::Debug>(value: &T, case: usize) {
    assert_eq!(
        value.encoded_len(),
        value.to_bytes().len(),
        "case {case}: encoded_len mismatch for {value:?}"
    );
}

fn assert_roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T, case: usize) {
    let bytes = value.to_bytes();
    assert_exact_len(value, case);
    let back = T::from_bytes(&bytes);
    assert_eq!(
        back.as_ref().ok(),
        Some(value),
        "case {case}: roundtrip failed for {value:?}: {back:?}"
    );
}

#[test]
fn unsigned_ints_round_trip() {
    let mut gen = Gen::new(0xDEC0DE01);
    for case in 0..*CASES {
        let raw = gen.next_u64();
        assert_roundtrip(&(raw as u16), case);
        assert_roundtrip(&(raw as u32), case);
        assert_roundtrip(&raw, case);
        assert_roundtrip(&(raw as usize), case);
    }
    for edge in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
        assert_roundtrip(&edge, usize::MAX);
    }
}

/// The byte-at-a-time LEB128 read the one-pass `get_uvarint` replaced:
/// the value, or the error, and where the cursor stops either way.
fn reference_uvarint(bytes: &[u8]) -> (WireResult<u64>, usize) {
    let (mut value, mut shift) = (0u64, 0u32);
    for (at, &byte) in bytes.iter().enumerate() {
        if shift == 63 && byte > 1 {
            return (Err(orca_wire::WireError::VarintOverflow), at + 1);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return (Ok(value), at + 1);
        }
        shift += 7;
    }
    let eof = orca_wire::WireError::UnexpectedEof {
        needed: 1,
        remaining: 0,
    };
    (Err(eof), bytes.len())
}

#[test]
fn one_pass_uvarint_agrees_with_the_byte_at_a_time_read() {
    let mut gen = Gen::new(0xDEC0DE1A);
    for case in 0..*CASES * 4 {
        let mut bytes = {
            let mut enc = Encoder::new();
            enc.put_uvarint(gen.next_u64() >> gen.below(64));
            enc.into_bytes()
        };
        match gen.below(5) {
            // Truncated: a strict prefix of a valid encoding.
            0 => bytes.truncate(gen.below(bytes.len())),
            // Overlong: the value padded with continuation bytes, up to
            // and past the ten a u64 may take.
            1 => {
                let last = bytes.pop().unwrap();
                bytes.push(last | 0x80);
                bytes.extend(std::iter::repeat_n(0x80, gen.below(10)));
                bytes.push(0);
            }
            // Overflowing: a tenth byte carrying more than bit 63.
            2 => {
                bytes = vec![0xff; 9];
                bytes.push(2 + gen.below(254) as u8);
            }
            // Random bytes, biased to continuation bits.
            3 => {
                bytes = (0..gen.below(14))
                    .map(|_| gen.next_u64() as u8 | 0x80)
                    .collect()
            }
            _ => {}
        }
        bytes.extend(gen.bytes(3));
        let mut dec = Decoder::new(&bytes);
        let got = dec.get_uvarint();
        let (want, at) = reference_uvarint(&bytes);
        assert_eq!(got, want, "case {case}: {bytes:02x?}");
        assert_eq!(dec.position(), at, "case {case}: {bytes:02x?}");
    }
}

#[test]
fn a_repeated_map_key_or_set_item_keeps_the_last() {
    let mut enc = Encoder::new();
    enc.put_len(4);
    for (key, value) in [(3u16, "c"), (1, "a"), (3, "z"), (2, "b")] {
        key.encode(&mut enc);
        value.to_string().encode(&mut enc);
    }
    let map = BTreeMap::<u16, String>::from_bytes(&enc.into_bytes()).unwrap();
    let want = [(1, "a"), (2, "b"), (3, "z")].map(|(key, value)| (key, value.to_string()));
    assert_eq!(map, BTreeMap::from(want));
    let mut enc = Encoder::new();
    enc.put_len(4);
    for item in [9u32, 4, 9, 1] {
        item.encode(&mut enc);
    }
    let set = BTreeSet::<u32>::from_bytes(&enc.into_bytes()).unwrap();
    assert_eq!(set, BTreeSet::from([1, 4, 9]));
}

#[test]
fn signed_ints_round_trip() {
    let mut gen = Gen::new(0xDEC0DE02);
    for case in 0..*CASES {
        let raw = gen.next_u64() as i64;
        assert_roundtrip(&(raw as i8), case);
        assert_roundtrip(&(raw as i16), case);
        assert_roundtrip(&(raw as i32), case);
        assert_roundtrip(&raw, case);
    }
    for edge in [i64::MIN, -1, 0, 1, i64::MAX] {
        assert_roundtrip(&edge, usize::MAX);
    }
}

#[test]
fn floats_round_trip() {
    let mut gen = Gen::new(0xDEC0DE03);
    for case in 0..*CASES {
        let v = f64::from_bits(gen.next_u64());
        assert_exact_len(&v, case);
        let back = f64::from_bytes(&v.to_bytes()).unwrap();
        if v.is_nan() {
            assert!(back.is_nan(), "case {case}: NaN did not survive");
        } else {
            assert_eq!(back.to_bits(), v.to_bits(), "case {case}");
        }
        let single = f32::from_bits(gen.next_u64() as u32);
        assert_exact_len(&single, case);
        let back32 = f32::from_bytes(&single.to_bytes()).unwrap();
        if single.is_nan() {
            assert!(back32.is_nan(), "case {case}: NaN f32 did not survive");
        } else {
            assert_eq!(back32.to_bits(), single.to_bits(), "case {case}");
        }
    }
    for edge in [f64::MIN, f64::MAX, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
        // Compare bit patterns: -0.0 == +0.0 under IEEE comparison, so a
        // plain assert_eq! could not detect sign loss for the signed zero.
        assert_exact_len(&edge, 0);
        let back = f64::from_bytes(&edge.to_bytes()).unwrap();
        assert_eq!(back.to_bits(), edge.to_bits(), "edge {edge:?}");
    }
}

#[test]
fn bool_unit_string_round_trip() {
    let mut gen = Gen::new(0xDEC0DE04);
    assert_roundtrip(&true, 0);
    assert_roundtrip(&false, 0);
    assert_roundtrip(&(), 0);
    for case in 0..*CASES {
        assert_roundtrip(&gen.string(), case);
    }
    assert_roundtrip(&String::new(), usize::MAX);
}

#[test]
fn options_and_results_round_trip() {
    let mut gen = Gen::new(0xDEC0DE05);
    for case in 0..*CASES {
        let opt = if gen.below(2) == 0 {
            None
        } else {
            Some(gen.next_u64())
        };
        assert_roundtrip(&opt, case);
        let res: Result<u32, String> = if gen.below(2) == 0 {
            Ok(gen.next_u64() as u32)
        } else {
            Err(gen.string())
        };
        assert_roundtrip(&res, case);
        let boxed = Box::new(gen.next_u64() as i32);
        assert_roundtrip(&boxed, case);
    }
}

#[test]
fn sequences_round_trip() {
    let mut gen = Gen::new(0xDEC0DE06);
    for case in 0..*CASES {
        let v: Vec<i32> = (0..gen.below(32)).map(|_| gen.next_u64() as i32).collect();
        assert_roundtrip(&v, case);
        let dq: VecDeque<u16> = (0..gen.below(16)).map(|_| gen.next_u64() as u16).collect();
        assert_roundtrip(&dq, case);
        let arr = [
            gen.next_u64() as u16,
            gen.next_u64() as u16,
            gen.next_u64() as u16,
            gen.next_u64() as u16,
        ];
        assert_roundtrip(&arr, case);
        assert_roundtrip(&gen.bytes(64), case);
    }
    assert_roundtrip(&Vec::<u8>::new(), usize::MAX);
}

/// A byte string costs its length and its bytes, whatever the bytes are —
/// alone, nested and inside a tuple (`u8` is not `Wire`, so there is no
/// per-element path that would write a byte of 0x80 and up as two).
#[test]
fn byte_strings_are_a_length_and_the_bytes() {
    let mut gen = Gen::new(0xDEC0DE0B);
    let plain = |n: usize| (n as u64).encoded_len() + n;
    for case in 0..*CASES {
        let mut bytes = gen.bytes(300);
        if case % 4 == 0 {
            bytes.fill(0xff);
        }
        let n = bytes.len();
        assert_eq!(bytes.to_bytes().len(), plain(n), "case {case}");
        let nested = vec![bytes.clone(), Vec::new(), bytes.clone()];
        assert_eq!(nested.to_bytes().len(), 1 + 2 * plain(n) + 1, "case {case}");
        assert_roundtrip(&nested, case);
        let stamped = Some((gen.next_u64() as u16, bytes));
        let head = 1 + stamped.as_ref().unwrap().0.encoded_len();
        assert_eq!(stamped.to_bytes().len(), head + plain(n), "case {case}");
        assert_roundtrip(&stamped, case);
    }
}

#[test]
fn maps_and_sets_round_trip() {
    let mut gen = Gen::new(0xDEC0DE07);
    for case in 0..*CASES / 4 {
        let btree: BTreeMap<u16, String> = (0..gen.below(8))
            .map(|_| (gen.next_u64() as u16, gen.string()))
            .collect();
        assert_roundtrip(&btree, case);
        let bset: BTreeSet<i32> = (0..gen.below(8)).map(|_| gen.next_u64() as i32).collect();
        assert_roundtrip(&bset, case);

        // Hash containers have nondeterministic iteration order, so
        // roundtrip equality holds but byte-level equality need not;
        // compare decoded values only.
        let hmap: HashMap<u32, u64> = (0..gen.below(8))
            .map(|_| (gen.next_u64() as u32, gen.next_u64()))
            .collect();
        assert_exact_len(&hmap, case);
        let back = HashMap::<u32, u64>::from_bytes(&hmap.to_bytes()).unwrap();
        assert_eq!(back, hmap, "case {case}");
        let hset: HashSet<String> = (0..gen.below(8)).map(|_| gen.string()).collect();
        assert_exact_len(&hset, case);
        let back = HashSet::<String>::from_bytes(&hset.to_bytes()).unwrap();
        assert_eq!(back, hset, "case {case}");
    }
}

#[test]
fn tuples_round_trip() {
    let mut gen = Gen::new(0xDEC0DE08);
    for case in 0..*CASES {
        assert_roundtrip(&(gen.next_u64(),), case);
        assert_roundtrip(&(gen.next_u64(), gen.string()), case);
        assert_roundtrip(
            &(gen.next_u64() as i16, gen.below(2) == 0, gen.string()),
            case,
        );
        assert_roundtrip(
            &(
                gen.next_u64() as u16,
                gen.next_u64() as i32,
                gen.string(),
                gen.below(2) == 0,
            ),
            case,
        );
        assert_roundtrip(
            &(
                gen.next_u64(),
                gen.next_u64() as i64,
                gen.next_u64() as u16,
                gen.below(2) == 0,
                gen.string(),
            ),
            case,
        );
    }
}

/// The nested struct exercised by the compound-structure properties below.
#[derive(Debug, Clone, PartialEq)]
struct Nested {
    id: u64,
    name: String,
    values: Vec<i32>,
    flag: Option<bool>,
    table: BTreeMap<u16, String>,
}

impl Wire for Nested {
    fn encode(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        self.name.encode(enc);
        self.values.encode(enc);
        self.flag.encode(enc);
        self.table.encode(enc);
    }
    fn decode(dec: &mut Decoder<'_>) -> WireResult<Self> {
        Ok(Nested {
            id: Wire::decode(dec)?,
            name: Wire::decode(dec)?,
            values: Wire::decode(dec)?,
            flag: Wire::decode(dec)?,
            table: Wire::decode(dec)?,
        })
    }
}

fn random_nested(gen: &mut Gen) -> Nested {
    Nested {
        id: gen.next_u64(),
        name: gen.string(),
        values: (0..gen.below(32)).map(|_| gen.next_u64() as i32).collect(),
        flag: match gen.below(3) {
            0 => None,
            1 => Some(false),
            _ => Some(true),
        },
        table: (0..gen.below(8))
            .map(|_| (gen.next_u64() as u16, gen.string()))
            .collect(),
    }
}

#[test]
fn nested_struct_round_trip() {
    let mut gen = Gen::new(0xDEC0DE09);
    for case in 0..*CASES {
        let value = random_nested(&mut gen);
        assert_roundtrip(&value, case);
    }
}

#[test]
fn decoding_random_garbage_never_panics() {
    let mut gen = Gen::new(0xDEC0DE0A);
    for _ in 0..2048 {
        let bytes = gen.bytes(64);
        // Any outcome is fine as long as it does not panic.
        let _ = Nested::from_bytes(&bytes);
        let _ = Vec::<String>::from_bytes(&bytes);
        let _ = Option::<u64>::from_bytes(&bytes);
        let _ = BTreeMap::<String, Vec<u8>>::from_bytes(&bytes);
        let _ = String::from_bytes(&bytes);
        let _ = f64::from_bytes(&bytes);
    }
}

#[test]
fn truncated_encodings_never_equal_original() {
    let mut gen = Gen::new(0xDEC0DE0B);
    for case in 0..*CASES {
        let value = random_nested(&mut gen);
        let bytes = value.to_bytes();
        if bytes.is_empty() {
            continue;
        }
        let cut = 1 + gen.below(bytes.len());
        let truncated = &bytes[..bytes.len() - cut];
        // Truncation may still decode successfully only if the remaining
        // prefix happens to be a valid encoding of some value, but it must
        // never equal the original when `finish` is enforced.
        if let Ok(decoded) = Nested::from_bytes(truncated) {
            assert_ne!(decoded, value, "case {case}: truncated decode == original");
        }
    }
}

#[test]
fn truncated_scalar_reports_unexpected_eof() {
    let long = u64::MAX.to_bytes();
    assert!(long.len() > 1);
    assert!(u64::from_bytes(&long[..long.len() - 1]).is_err());
    let s = String::from("hello world").to_bytes();
    assert!(String::from_bytes(&s[..s.len() - 3]).is_err());
    assert!(f64::from_bytes(&[0u8; 7]).is_err());
}

fn random_parts(gen: &mut Gen) -> Vec<(u32, u64, u64)> {
    (0..gen.below(6))
        .map(|_| (gen.next_u64() as u32, gen.next_u64(), gen.next_u64()))
        .collect()
}

fn random_regime(gen: &mut Gen) -> orca_wire::RegimeKind {
    use orca_wire::RegimeKind;
    [RegimeKind::Replicated, RegimeKind::Sharded][gen.below(2)]
}

fn random_nodes(gen: &mut Gen) -> Vec<u16> {
    (0..gen.below(16)).map(|_| gen.next_u64() as u16).collect()
}

/// Mirrors as a [`orca_wire::Holdings`] reports them: of a partition, or of
/// the one copy.
fn random_mirrors(gen: &mut Gen) -> Vec<(Option<u32>, u64, u64)> {
    let parts = random_parts(gen);
    let of = |(partition, epoch, version)| (Some(partition).filter(|p| p % 2 == 0), epoch, version);
    parts.into_iter().map(of).collect()
}

/// Slots as a [`orca_wire::Holdings`] reports them: a part, its regime and
/// the readers it lists.
fn random_slots(gen: &mut Gen) -> Vec<(u32, u64, u64, orca_wire::RegimeKind, Vec<u16>)> {
    let parts = random_parts(gen);
    let slot = |(partition, epoch, version)| {
        let regime = random_regime(gen);
        (partition, epoch, version, regime, random_nodes(gen))
    };
    parts.into_iter().map(slot).collect()
}

/// The messages that keep a slot — a replicated-regime object's copy or one
/// partition of a sharded-regime object — alive across its owner's death:
/// the prime of its kept mirror, its promotion and the holdings report; and
/// the ones that place a
/// replicated-regime object:
/// an install naming its regime and mirrors, or re-stamping the slot its
/// owner serves, a mirror fetch naming the
/// version held, the lease-only renewal, a table naming mirrors, a usage
/// report, the report of a mirror that did not answer; and the ones a
/// completed write sends its mirrors: a pushed run of updates — held, or
/// not — and its unlock, an invalidation naming the write's version. None
/// of them has a tail, so besides round-tripping, every unassigned tag must
/// be rejected and every strict prefix of an encoding — but one: what a
/// `Mirror`, an `Update` or a `Promote` names is its last field and written only when
/// it is a partition, so the prefix that ends before it is the same message
/// about the whole object, and costs the same bytes it cost before there
/// was a partition to name; so is the epoch an `Install` re-stamps from,
/// and the prefix without it an install.
#[test]
fn shard_messages_round_trip() {
    use orca_wire::{Holdings, RegimeMsg, RegimeReply};
    let mut gen = Gen::new(0xDEC0DE0C);
    for case in 0..*CASES {
        let object = gen.next_u64();
        let epoch = gen.next_u64();
        let partition = gen.next_u64() as u32;
        let mirrored = (gen.below(2) == 0).then_some(partition);
        let msg = match gen.below(11) {
            0 => RegimeMsg::Holdings { object },
            6 => RegimeMsg::Update {
                object,
                epoch,
                partition: mirrored,
                seq: gen.next_u64(),
                held: gen.below(2) == 0,
                ops: (0..gen.below(6)).map(|_| gen.bytes(24)).collect(),
                stamped: (gen.below(2) == 0).then(|| (random_stamp(&mut gen), gen.bytes(16))),
                lease: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            8 => RegimeMsg::Unlock {
                object,
                epoch,
                partition: None,
                seq: gen.next_u64(),
            },
            9 => RegimeMsg::Report {
                object,
                reads: gen.next_u64(),
                writes: gen.next_u64(),
            },
            10 => RegimeMsg::Unreached {
                object,
                node: gen.next_u64() as u16,
            },
            7 => RegimeMsg::DropCopies {
                object,
                epoch,
                partition: None,
                written: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            4 => RegimeMsg::Install {
                object,
                epoch,
                partition,
                type_name: gen.string(),
                state: gen.bytes(48),
                dedup: random_dedup(&mut gen),
                regime: random_regime(&mut gen),
                mirrors: random_nodes(&mut gen),
                from: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            5 => RegimeMsg::FetchMirror {
                object,
                epoch,
                partition: None,
                have: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            1 | 2 => RegimeMsg::Mirror {
                object,
                epoch,
                partition: mirrored,
                type_name: gen.string(),
                state: gen.bytes(48),
                seq: gen.next_u64(),
                dedup: random_dedup(&mut gen),
                lease: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            _ => RegimeMsg::Promote {
                object,
                epoch,
                partition: mirrored,
            },
        };
        assert_roundtrip(&msg, case);
        let reply = match gen.below(3) {
            0 => RegimeReply::Renewed(random_lease(&mut gen)),
            1 => RegimeReply::Route(random_regime_table(&mut gen)),
            _ => RegimeReply::Holdings(Box::new(Holdings {
                type_name: gen.string(),
                slots: random_slots(&mut gen),
                mirrors: random_mirrors(&mut gen),
            })),
        };
        assert_roundtrip(&reply, case);

        let mut bytes = msg.to_bytes();
        let mut whole = msg.clone();
        let unnamed = match &mut whole {
            RegimeMsg::Update { partition, .. }
            | RegimeMsg::Mirror { partition, .. }
            | RegimeMsg::Promote { partition, .. } => {
                let named = partition.take();
                named.map(|partition| bytes.len() - partition.to_bytes().len())
            }
            RegimeMsg::Install { from, .. } => {
                let named = from.take();
                named.map(|from| bytes.len() - from.to_bytes().len())
            }
            _ => None,
        };
        if let Some(cut) = unnamed {
            assert_eq!(whole.to_bytes(), &bytes[..cut], "case {case}: {msg:?}");
            assert_eq!(RegimeMsg::from_bytes(&bytes[..cut]).unwrap(), whole);
        }
        for cut in (0..bytes.len()).filter(|cut| Some(*cut) != unnamed) {
            assert!(
                RegimeMsg::from_bytes(&bytes[..cut]).is_err(),
                "case {case}: {msg:?} cut to {cut} bytes decoded"
            );
        }
        bytes[0] = 17 + gen.below(239) as u8;
        assert!(
            RegimeMsg::from_bytes(&bytes).is_err(),
            "case {case}: bad tag"
        );
        let mut bytes = reply.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                RegimeReply::from_bytes(&bytes[..cut]).is_err(),
                "case {case}: {reply:?} cut to {cut} bytes decoded"
            );
        }
        bytes[0] = 13 + gen.below(243) as u8;
        assert!(
            RegimeReply::from_bytes(&bytes).is_err(),
            "case {case}: bad tag"
        );
    }
}

/// A sharded partition's readers fetch, are unlocked and are dropped with
/// the messages a replicated copy's mirrors use, naming the partition as the
/// last field — written only when there is one, so the message about the one
/// copy is byte for byte the layout it had before partitions had readers.
/// Every shape round-trips; every strict prefix of a message naming a
/// partition fails to decode but the one that leaves the partition out,
/// which is the same message about the whole object; an unassigned tag
/// fails. A write-through is laid out like the operation it ships, its
/// partition before its stamp and its tail.
#[test]
fn partition_mirror_messages_round_trip() {
    use orca_wire::RegimeMsg;
    let mut gen = Gen::new(0x9A27_1710);
    for case in 0..*CASES {
        let (object, epoch, seq) = (gen.next_u64(), gen.next_u64(), gen.next_u64());
        let partition = gen.next_u64() as u32;
        let have = (gen.below(2) == 0).then(|| gen.next_u64());
        let written = (gen.below(2) == 0).then(|| gen.next_u64());
        let layout = |tag: u8, last: &dyn Fn(&mut Encoder)| {
            let mut enc = Encoder::new();
            enc.put_u8(tag);
            object.encode(&mut enc);
            epoch.encode(&mut enc);
            last(&mut enc);
            enc.into_bytes()
        };
        let (whole, before) = match gen.below(3) {
            0 => (
                RegimeMsg::FetchMirror {
                    object,
                    epoch,
                    partition: None,
                    have,
                },
                layout(RegimeMsg::FETCH_MIRROR_TAG, &|enc| have.encode(enc)),
            ),
            1 => (
                RegimeMsg::DropCopies {
                    object,
                    epoch,
                    partition: None,
                    written,
                },
                layout(RegimeMsg::DROP_COPIES_TAG, &|enc| written.encode(enc)),
            ),
            _ => (
                RegimeMsg::Unlock {
                    object,
                    epoch,
                    partition: None,
                    seq,
                },
                layout(RegimeMsg::UNLOCK_TAG, &|enc| seq.encode(enc)),
            ),
        };
        assert_eq!(whole.to_bytes(), before, "case {case}: {whole:?}");
        assert_roundtrip(&whole, case);

        let mut named = whole.clone();
        match &mut named {
            RegimeMsg::FetchMirror { partition: p, .. }
            | RegimeMsg::DropCopies { partition: p, .. }
            | RegimeMsg::Unlock { partition: p, .. } => *p = Some(partition),
            other => unreachable!("{other:?}"),
        }
        assert_roundtrip(&named, case);
        let mut bytes = named.to_bytes();
        assert!(bytes.starts_with(&before), "case {case}: {named:?}");
        for cut in 0..bytes.len() {
            let decoded = RegimeMsg::from_bytes(&bytes[..cut]);
            match cut == before.len() {
                true => assert_eq!(decoded.as_ref().ok(), Some(&whole), "case {case}"),
                false => assert!(decoded.is_err(), "case {case}: {named:?} cut to {cut}"),
            }
        }
        bytes[0] = 17 + gen.below(239) as u8;
        assert!(
            RegimeMsg::from_bytes(&bytes).is_err(),
            "case {case}: bad tag"
        );

        let (op, stamp) = (
            gen.bytes(48),
            (gen.below(2) == 0).then(|| random_stamp(&mut gen)),
        );
        let through = RegimeMsg::WriteThrough {
            object,
            epoch,
            partition,
            op: op.clone(),
            stamp,
        };
        assert_roundtrip(&through, case);
        let shipped = RegimeMsg::Op {
            object,
            epoch,
            partition,
            op,
            stamp,
        };
        assert_eq!(
            through.to_bytes()[1..],
            shipped.to_bytes()[1..],
            "case {case}"
        );
    }
}

fn random_regime_table(gen: &mut Gen) -> orca_wire::RegimeTable {
    orca_wire::RegimeTable {
        object: gen.next_u64(),
        type_name: gen.string(),
        epoch: gen.next_u64(),
        regime: random_regime(gen),
        owners: random_nodes(gen),
        mirrors: random_nodes(gen),
    }
}

#[test]
fn regime_messages_round_trip() {
    use orca_wire::{RegimeMsg, RegimeReply};
    let mut gen = Gen::new(0xAD0BE0C5);
    for case in 0..*CASES {
        let object = gen.next_u64();
        let epoch = gen.next_u64();
        let msg = match gen.below(16) {
            0 => RegimeMsg::Route { object },
            15 => RegimeMsg::Unreached {
                object,
                node: gen.next_u64() as u16,
            },
            14 => RegimeMsg::WriteThrough {
                object,
                epoch,
                partition: gen.next_u64() as u32,
                op: gen.bytes(48),
                stamp: (gen.below(2) == 0).then(|| random_stamp(&mut gen)),
            },
            12 => RegimeMsg::Holdings { object },
            1 => RegimeMsg::Op {
                object,
                epoch,
                partition: gen.next_u64() as u32,
                op: gen.bytes(48),
                stamp: (gen.below(2) == 0).then(|| random_stamp(&mut gen)),
            },
            2 => RegimeMsg::OpAll {
                object,
                op: gen.bytes(48),
            },
            3 => RegimeMsg::Propose { object },
            4 => RegimeMsg::Report {
                object,
                reads: gen.next_u64(),
                writes: gen.next_u64(),
            },
            5 => RegimeMsg::Drain {
                object,
                epoch,
                partition: gen.next_u64() as u32,
            },
            6 => RegimeMsg::Install {
                object,
                epoch,
                partition: gen.next_u64() as u32,
                type_name: gen.string(),
                state: gen.bytes(48),
                dedup: random_dedup(&mut gen),
                regime: random_regime(&mut gen),
                mirrors: random_nodes(&mut gen),
                from: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            7 => RegimeMsg::Mirror {
                object,
                epoch,
                partition: (gen.below(2) == 0).then(|| gen.next_u64() as u32),
                type_name: gen.string(),
                state: gen.bytes(48),
                seq: gen.next_u64(),
                dedup: random_dedup(&mut gen),
                lease: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            8 => RegimeMsg::FetchMirror {
                object,
                epoch,
                partition: None,
                have: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            9 => RegimeMsg::DropCopies {
                object,
                epoch,
                partition: None,
                written: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            10 => RegimeMsg::Update {
                object,
                epoch,
                partition: (gen.below(2) == 0).then(|| gen.next_u64() as u32),
                seq: gen.next_u64(),
                held: gen.below(2) == 0,
                ops: (0..gen.below(4)).map(|_| gen.bytes(48)).collect(),
                stamped: (gen.below(2) == 0).then(|| (random_stamp(&mut gen), gen.bytes(16))),
                lease: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            _ => RegimeMsg::Unlock {
                object,
                epoch,
                partition: None,
                seq: gen.next_u64(),
            },
        };
        assert_roundtrip(&msg, case);
        let reply = match gen.below(13) {
            12 => RegimeReply::Renewed(random_lease(&mut gen)),
            11 => RegimeReply::Installed {
                reply: gen.bytes(48),
                seq: gen.next_u64(),
                lease: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            10 => {
                let mut outcomes = orca_wire::BatchOutcomes::default();
                for _ in 0..gen.below(6) {
                    outcomes.push(1 + gen.below(3), random_outcome(&mut gen));
                }
                RegimeReply::Batch(outcomes)
            }
            0 => RegimeReply::Done(gen.bytes(48)),
            1 => RegimeReply::Blocked,
            2 => RegimeReply::Route(random_regime_table(&mut gen)),
            3 => RegimeReply::StaleRegime,
            4 => RegimeReply::State {
                state: gen.bytes(48),
                dedup: random_dedup(&mut gen),
            },
            5 => RegimeReply::MirrorState {
                state: gen.bytes(48),
                seq: gen.next_u64(),
                dedup: random_dedup(&mut gen),
                lease: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            6 => RegimeReply::Ack,
            7 => RegimeReply::Holdings(Box::new(orca_wire::Holdings {
                type_name: gen.string(),
                slots: random_slots(&mut gen),
                mirrors: random_mirrors(&mut gen),
            })),
            8 => RegimeReply::ObjectLost,
            _ => RegimeReply::Error(gen.string()),
        };
        assert_roundtrip(&reply, case);
        // Garbage decoding must error out, never panic.
        let bytes = gen.bytes(32);
        let _ = RegimeMsg::from_bytes(&bytes);
        let _ = RegimeReply::from_bytes(&bytes);
    }
}

#[test]
fn recovery_messages_round_trip() {
    use orca_wire::RecoveryMsg;
    let mut gen = Gen::new(0x0EC0_4E11);
    for case in 0..*CASES {
        let beat = RecoveryMsg::Heartbeat {
            node: gen.next_u64() as u16,
            epoch: gen.next_u64(),
        };
        assert_roundtrip(&beat, case);
        let mut bytes = beat.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                RecoveryMsg::from_bytes(&bytes[..cut]).is_err(),
                "case {case}: {beat:?} cut to {cut} bytes decoded"
            );
        }
        bytes[0] = 1 + gen.below(255) as u8;
        assert!(
            RecoveryMsg::from_bytes(&bytes).is_err(),
            "case {case}: bad tag"
        );
        // Garbage decoding must error out, never panic.
        let _ = RecoveryMsg::from_bytes(&gen.bytes(32));
    }
}

/// `bytes` encodes a message whose last field is the byte string `tail`,
/// carried without a length: it must sit at the very end, every cut into
/// the head before it must fail to decode, and a cut exactly at the head's
/// end must decode (an empty tail is legal — the payload's end is the
/// tail's end, so a shortened tail is not detectable at this layer and
/// the transport's frame length is what guards it).
fn assert_tail<T: Wire + std::fmt::Debug>(bytes: &[u8], tail: &[u8], case: usize) {
    assert!(bytes.ends_with(tail), "case {case}: tail is not last");
    let head = bytes.len() - tail.len();
    for cut in 0..head {
        assert!(
            T::from_bytes(&bytes[..cut]).is_err(),
            "case {case}: head cut to {cut} of {head} bytes decoded"
        );
    }
    assert!(
        T::from_bytes(&bytes[..head]).is_ok(),
        "case {case}: empty tail refused"
    );
}

#[test]
fn envelopes_and_tail_bodied_messages_round_trip() {
    use orca_wire::envelope::{frame_reply, split_reply};
    use orca_wire::{RegimeMsg, RegimeReply, RequestHead};
    let mut gen = Gen::new(0x7A11_B0D1);
    for case in 0..*CASES {
        // The RPC envelope: head, then the body to the end, borrowed.
        let head = RequestHead {
            mailbox: edgy_u64(&mut gen),
            call: edgy_u64(&mut gen),
            trace: random_trace(&mut gen),
        };
        let body = gen.bytes(64);
        let request = head.frame(&body);
        let (back, tail) = RequestHead::split(&request).expect("framed request splits");
        assert_eq!((back, tail), (head, &body[..]), "case {case}");
        for cut in 0..request.len() - body.len() {
            assert!(
                RequestHead::split(&request[..cut]).is_err(),
                "case {case}: request head cut to {cut} bytes split"
            );
        }
        let call = edgy_u64(&mut gen);
        let reply = frame_reply(call, &body);
        assert_eq!(
            split_reply(&reply).unwrap(),
            (call, &body[..]),
            "case {case}"
        );
        for cut in 0..reply.len() - body.len() {
            assert!(
                split_reply(&reply[..cut]).is_err(),
                "case {case}: cut {cut}"
            );
        }
        let garbage = gen.bytes(16);
        let _ = RequestHead::split(&garbage);
        let _ = split_reply(&garbage);

        // The single-operation messages and their results.
        let op = gen.bytes(48);
        let stamp = (gen.below(2) == 0).then(|| random_stamp(&mut gen));
        let (object, epoch) = (gen.next_u64(), gen.next_u64());
        let partition = gen.next_u64() as u32;
        for msg in [
            RegimeMsg::Op {
                object,
                epoch,
                partition,
                op: op.clone(),
                stamp,
            },
            RegimeMsg::OpAll {
                object,
                op: op.clone(),
            },
            RegimeMsg::WriteThrough {
                object,
                epoch,
                partition,
                op: op.clone(),
                stamp,
            },
        ] {
            assert_exact_len(&msg, case);
            assert_tail::<RegimeMsg>(&msg.to_bytes(), &op, case);
        }
        assert_exact_len(&RegimeReply::Done(op.clone()), case);
        assert_tail::<RegimeReply>(&RegimeReply::Done(op.clone()).to_bytes(), &op, case);
        let installed = RegimeReply::Installed {
            reply: op.clone(),
            seq: gen.next_u64(),
            lease: (gen.below(2) == 0).then(|| gen.next_u64()),
        };
        assert_exact_len(&installed, case);
        assert_tail::<RegimeReply>(&installed.to_bytes(), &op, case);
    }
}

fn random_stamp(gen: &mut Gen) -> orca_wire::OpStamp {
    orca_wire::OpStamp {
        origin: gen.next_u64() as u16,
        seq: gen.next_u64(),
    }
}

fn random_dedup(gen: &mut Gen) -> orca_wire::DedupWindow {
    let mut window = orca_wire::DedupWindow::new();
    for _ in 0..gen.below(8) {
        let stamp = random_stamp(gen);
        let reply = gen.bytes(16);
        window.record(stamp, reply);
    }
    window
}

fn random_lease(gen: &mut Gen) -> orca_wire::LeaseGrant {
    orca_wire::LeaseGrant {
        object: gen.next_u64(),
        epoch: gen.next_u64(),
        seq: gen.next_u64(),
        valid_ms: gen.next_u64(),
    }
}

fn random_trace(gen: &mut Gen) -> orca_wire::TraceId {
    match gen.below(8) {
        0 | 1 => orca_wire::TraceId::NONE,
        // Never minted, still a `TraceId`: any bit pattern.
        2 => orca_wire::TraceId(gen.next_u64()),
        3 => orca_wire::TraceId::mint(u16::MAX - 1, (1 << 48) - 1),
        _ => orca_wire::TraceId::mint(gen.next_u64() as u16, gen.next_u64() & ((1 << 48) - 1)),
    }
}

/// A value at an edge of its range, small, or anything.
fn edgy_u64(gen: &mut Gen) -> u64 {
    match gen.below(4) {
        0 => u64::MAX - gen.below(2) as u64,
        1 => gen.below(4) as u64,
        _ => gen.next_u64(),
    }
}

fn random_batch_op(gen: &mut Gen) -> orca_wire::BatchOp {
    let trace = random_trace(gen);
    orca_wire::BatchOp {
        id: edgy_u64(gen),
        object: edgy_u64(gen),
        partition: edgy_u64(gen) as u32,
        epoch: edgy_u64(gen),
        op: gen.bytes(48),
        trace,
    }
}

/// A batch in which each field of each op either follows the codec's
/// prediction from the previous op (consecutive id and trace, same object,
/// partition and epoch) or does not — so every flag combination, and the
/// wrap of `u64::MAX + 1`, turns up.
fn random_batch(gen: &mut Gen) -> orca_wire::OpBatch {
    let mut ops: Vec<orca_wire::BatchOp> = Vec::new();
    for _ in 0..gen.below(10) {
        let mut op = random_batch_op(gen);
        if let Some(prev) = ops.last() {
            if gen.below(2) == 0 {
                op.id = prev.id.wrapping_add(1);
            }
            if gen.below(2) == 0 {
                op.object = prev.object;
            }
            if gen.below(2) == 0 {
                op.partition = prev.partition;
            }
            if gen.below(2) == 0 {
                op.epoch = prev.epoch;
            }
            op.trace = related_trace(gen, prev.trace).unwrap_or(op.trace);
        }
        ops.push(op);
    }
    orca_wire::OpBatch {
        batch: edgy_u64(gen),
        ops,
    }
}

/// A trace after `prev` that the codec predicts (the next one), skips to
/// (further on under the same origin, a little or a lot), or has to spell
/// out (back, another origin, untraced) — or `None`, for an unrelated one.
fn related_trace(gen: &mut Gen, prev: orca_wire::TraceId) -> Option<orca_wire::TraceId> {
    use orca_wire::TraceId;
    let origin = prev.origin().unwrap_or(0);
    let trace = match gen.below(7) {
        0 => TraceId(prev.0.wrapping_add(1)),
        1 => TraceId(prev.0.wrapping_add(2 + gen.below(126) as u64)),
        2 => TraceId::mint(origin, prev.seq().wrapping_add(gen.next_u64() >> 16)),
        3 => TraceId(prev.0.wrapping_sub(gen.below(300) as u64)),
        4 => TraceId::mint(origin.wrapping_add(1 + gen.below(3) as u16), prev.seq() + 1),
        5 => TraceId::NONE,
        _ => return None,
    };
    Some(trace)
}

fn random_outcome(gen: &mut Gen) -> orca_wire::BatchOutcome {
    use orca_wire::BatchOutcome;
    match gen.below(4) {
        0 => BatchOutcome::Done(gen.bytes(200)),
        1 => BatchOutcome::Blocked,
        2 => BatchOutcome::Stale,
        _ => BatchOutcome::Failed(gen.string()),
    }
}

#[test]
fn trace_ids_round_trip_and_survive_garbage() {
    use orca_wire::TraceId;
    let mut gen = Gen::new(0x7 * 0xACE1D);
    assert_eq!(TraceId::NONE.to_bytes(), [0]);
    for case in 0..*CASES {
        let id = random_trace(&mut gen);
        assert_roundtrip(&id, case);
        // Mint/unpack agree with the wire form.
        if let Some(origin) = id.origin() {
            assert_eq!(TraceId::mint(origin, id.seq()), id, "case {case}");
        }
        // Only the untraced id is a single zero byte.
        let bytes = id.to_bytes();
        assert_eq!(bytes == [0], id == TraceId::NONE, "case {case}");
        // Truncated encodings are errors, garbage never panics.
        for cut in 1..bytes.len() {
            assert!(
                TraceId::from_bytes(&bytes[..cut]).is_err(),
                "case {case}: trace id cut to {cut} bytes decoded"
            );
        }
        let _ = TraceId::from_bytes(&gen.bytes(16));
    }
}

/// What an [`orca_wire::OpBatchView`] over `bytes` (one `OpBatch`
/// encoding) yields, or the error it reports.
fn viewed(bytes: &[u8]) -> WireResult<(u64, Vec<orca_wire::OpRef<'_>>)> {
    let mut dec = Decoder::new(bytes);
    let batch = u64::decode(&mut dec)?;
    let view = orca_wire::OpBatchView::parse(&mut dec)?;
    dec.finish()?;
    assert_eq!(view.len(), view.iter().len());
    Ok((batch, view.iter().collect()))
}

#[test]
fn batch_codec_round_trips_and_the_view_matches_the_owned_decode() {
    use orca_wire::{BatchOp, OpBatch, OpBatchEncoder};
    let mut gen = Gen::new(0xBA7C_4ED0);
    for case in 0..*CASES {
        let batch = random_batch(&mut gen);
        assert_roundtrip(&batch, case);
        let bytes = batch.to_bytes();

        // The borrowed view yields exactly the owned decode's operations.
        let (id, seen) = viewed(&bytes).unwrap_or_else(|err| panic!("case {case}: {err}"));
        let want: Vec<_> = batch.ops.iter().map(BatchOp::as_op_ref).collect();
        assert_eq!((id, seen), (batch.batch, want), "case {case}");

        // The streaming encoder writes the same operations; only the ids,
        // which it leaves to their prediction, differ.
        let mut enc = OpBatchEncoder::new(batch.batch.to_bytes());
        for op in &batch.ops {
            enc.push(op.as_op_ref());
        }
        let streamed = OpBatch::from_bytes(&enc.finish())
            .unwrap_or_else(|err| panic!("case {case}: streamed batch: {err}"));
        let mut renumbered = batch.clone();
        for (i, op) in renumbered.ops.iter_mut().enumerate() {
            op.id = i as u64 + 1;
        }
        assert_eq!(streamed, renumbered, "case {case}");

        // Truncation is an error for both readers, never a shorter batch.
        for cut in 0..bytes.len() {
            assert!(
                OpBatch::from_bytes(&bytes[..cut]).is_err(),
                "case {case}: batch cut to {cut} bytes decoded"
            );
            assert!(viewed(&bytes[..cut]).is_err(), "case {case}: cut {cut}");
        }

        // Garbage never panics, and the two readers agree on it.
        let mut garbage = gen.bytes(48);
        if gen.below(2) == 0 {
            // Corrupt a real encoding instead: far likelier to get past
            // the first few fields.
            garbage = bytes.clone();
            if !garbage.is_empty() {
                let at = gen.below(garbage.len());
                garbage[at] = gen.next_u64() as u8;
            }
        }
        match (OpBatch::from_bytes(&garbage), viewed(&garbage)) {
            (Ok(owned), Ok((id, seen))) => {
                let want: Vec<_> = owned.ops.iter().map(BatchOp::as_op_ref).collect();
                assert_eq!((id, seen), (owned.batch, want), "case {case}");
            }
            (Err(_), Err(_)) => {}
            (owned, seen) => panic!("case {case}: readers disagree: {owned:?} vs {seen:?}"),
        }
    }
}

#[test]
fn batch_requests_are_recognised_by_their_tag() {
    use orca_wire::{OpBatchEncoder, OpBatchView, RegimeMsg};
    let mut gen = Gen::new(0x0B5E_55ED);
    for case in 0..*CASES {
        let batch = random_batch(&mut gen);
        // The regime protocol's tag, or any other byte a protocol might pick.
        let tag = [RegimeMsg::OP_BATCH_TAG, gen.next_u64() as u8][gen.below(2)];
        let mut enc = OpBatchEncoder::request(tag, gen.below(64));
        for op in &batch.ops {
            enc.push(op.as_op_ref());
        }
        let request = enc.finish();
        let view = OpBatchView::from_request(tag, &request)
            .expect("tagged")
            .unwrap_or_else(|err| panic!("case {case}: {err}"));
        assert!(view.iter().eq(batch.ops.iter().map(|op| op.as_op_ref())));
        assert!(OpBatchView::from_request(tag ^ 1, &request).is_none());
        // A batch request is not an owned message of the protocol.
        assert!(RegimeMsg::from_bytes(&request).is_err() || tag != RegimeMsg::OP_BATCH_TAG);
        // A truncated or trailing-garbage request is refused whole.
        if request.len() > 1 {
            let cut = 1 + gen.below(request.len() - 1);
            assert!(OpBatchView::from_request(tag, &request[..cut])
                .expect("tagged")
                .is_err());
        }
        let mut longer = request.clone();
        longer.push(gen.next_u64() as u8);
        assert!(OpBatchView::from_request(tag, &longer)
            .expect("tagged")
            .is_err());
    }
}

#[test]
fn batch_outcomes_round_trip_and_survive_garbage() {
    use orca_wire::BatchOutcome;
    let mut gen = Gen::new(0x0C0_FFEE);
    for case in 0..*CASES {
        let outcomes: Vec<BatchOutcome> = (0..gen.below(8))
            .map(|_| random_outcome(&mut gen))
            .collect();
        assert_roundtrip(&outcomes, case);
        for outcome in &outcomes {
            assert_roundtrip(outcome, case);
            if let BatchOutcome::Done(reply) = outcome {
                // The tag rides in the length: no byte of its own.
                let len_bytes = (reply.len() as u64 + 3).encoded_len();
                assert_eq!(outcome.encoded_len(), reply.len() + len_bytes);
            }
        }
        let bytes = outcomes.to_bytes();
        if bytes.len() > 1 {
            let cut = 1 + gen.below(bytes.len() - 1);
            if let Ok(decoded) = Vec::<BatchOutcome>::from_bytes(&bytes[..bytes.len() - cut]) {
                assert_ne!(
                    decoded, outcomes,
                    "case {case}: truncated decode == original"
                );
            }
        }
        let garbage = gen.bytes(32);
        let _ = BatchOutcome::from_bytes(&garbage);
        let _ = Vec::<BatchOutcome>::from_bytes(&garbage);
    }
}

#[test]
fn batch_outcome_runs_round_trip_and_refuse_what_is_not_a_run() {
    use orca_wire::{BatchOutcome, BatchOutcomes};
    let mut gen = Gen::new(0x0B47_4E55);
    for case in 0..*CASES {
        // Runs drawn from a small pool, so that neighbours are often equal.
        let pool: Vec<BatchOutcome> = (0..3).map(|_| random_outcome(&mut gen)).collect();
        let (mut expanded, mut outcomes) = (Vec::new(), BatchOutcomes::default());
        for _ in 0..gen.below(6) {
            let outcome = &pool[gen.below(pool.len())];
            let run = [1, 2, 64, 300][gen.below(4)];
            expanded.extend(std::iter::repeat_n(outcome.clone(), run));
            outcomes.push(run, outcome.clone());
        }
        assert_roundtrip(&outcomes, case);
        assert_eq!(outcomes.len(), expanded.len(), "case {case}");
        assert!(outcomes.iter().eq(expanded.iter()), "case {case}");
        let bytes = outcomes.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                BatchOutcomes::from_bytes(&bytes[..cut]).is_err(),
                "case {case}: reply cut to {cut} bytes decoded"
            );
        }
        // A run of no outcomes, and a run longer than what the count
        // leaves, are refused.
        let outcome = pool[0].to_bytes();
        let count = 1 + gen.below(100);
        for (run, ok) in [(0, false), (count + 1 + gen.below(9), false), (count, true)] {
            let mut enc = Encoder::new();
            enc.put_len(count);
            enc.put_len(run);
            enc.put_raw(&outcome);
            let decoded = BatchOutcomes::from_bytes(&enc.into_bytes());
            assert_eq!(decoded.is_ok(), ok, "case {case}: run {run} of {count}");
        }
        let _ = BatchOutcomes::from_bytes(&gen.bytes(32));
    }
}

/// The exactly-once window as it was specified before it kept one ring per
/// origin: one list in arrival order, the last `DEDUP_WINDOW_PER_ORIGIN` of
/// each origin, an entry already there wins.
#[derive(Default)]
struct WindowModel(Vec<(u16, u64, Vec<u8>)>);

impl WindowModel {
    fn lookup(&self, stamp: orca_wire::OpStamp) -> Option<&[u8]> {
        let mut entries = self.0.iter();
        let found = entries.find(|(origin, seq, _)| (*origin, *seq) == (stamp.origin, stamp.seq));
        found.map(|(.., reply)| reply.as_slice())
    }

    fn record(&mut self, stamp: orca_wire::OpStamp, reply: Vec<u8>) {
        if self.lookup(stamp).is_some() {
            return;
        }
        let of_origin = self.0.iter().filter(|e| e.0 == stamp.origin);
        if of_origin.count() >= orca_wire::DEDUP_WINDOW_PER_ORIGIN {
            let oldest = self.0.iter().position(|e| e.0 == stamp.origin);
            self.0.remove(oldest.expect("counted"));
        }
        self.0.push((stamp.origin, stamp.seq, reply));
    }

    fn merge(&mut self, other: &WindowModel) {
        for (origin, seq, reply) in &other.0 {
            let stamp = orca_wire::OpStamp {
                origin: *origin,
                seq: *seq,
            };
            self.record(stamp, reply.clone());
        }
    }

    /// The wire form the model's window was sent in: its triples in
    /// arrival order, origins interleaved.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_len(self.0.len());
        for (origin, seq, reply) in &self.0 {
            origin.encode(&mut enc);
            seq.encode(&mut enc);
            enc.put_bytes(reply);
        }
        enc.into_bytes()
    }
}

#[test]
fn the_dedup_window_agrees_with_its_model() {
    use orca_wire::{DedupWindow, OpStamp};
    let mut gen = Gen::new(0xDED0);
    for case in 0..*CASES {
        let origins = 1 + gen.below(4) as u16;
        // Two replicas' windows, each beside its model, and each origin's
        // next fresh sequence number.
        let mut windows = [DedupWindow::new(), DedupWindow::new()];
        let mut models = [WindowModel::default(), WindowModel::default()];
        let mut next = [0u64; 4];
        for step in 0..gen.below(160) {
            let at = gen.below(2);
            let origin = gen.below(origins as usize) as u16;
            // Mostly the origin's next write; now and then a retry of an
            // older one, or a stamp not issued yet.
            let seq = match gen.below(8) {
                0 => gen.next_u64() % (next[origin as usize] + 1),
                1 => next[origin as usize] + gen.below(3) as u64,
                _ => {
                    next[origin as usize] += 1 + gen.below(2) as u64;
                    next[origin as usize]
                }
            };
            let stamp = OpStamp { origin, seq };
            match gen.below(10) {
                0 => {
                    let (into, from) = (at, 1 - at);
                    let other = windows[from].clone();
                    windows[into].merge(&other);
                    let other = std::mem::take(&mut models[from]);
                    models[into].merge(&other);
                    models[from] = other;
                }
                1..=6 => {
                    let reply = gen.bytes(6);
                    windows[at].record(stamp, reply.clone());
                    models[at].record(stamp, reply);
                }
                _ => {}
            }
            let (window, model) = (&windows[at], &models[at]);
            let what = format!("case {case} step {step}: {stamp:?}");
            assert_eq!(window.lookup(stamp), model.lookup(stamp), "{what}");
            assert_eq!(window.len(), model.0.len(), "{what}");
        }
        for (window, model) in windows.iter().zip(&models) {
            assert_roundtrip(window, case);
            // The window reads the interleaved form as well.
            let read = DedupWindow::from_bytes(&model.to_bytes()).expect("decodes");
            for (origin, seq, reply) in &model.0 {
                let stamp = OpStamp {
                    origin: *origin,
                    seq: *seq,
                };
                assert_eq!(window.lookup(stamp), Some(&reply[..]), "case {case}");
                assert_eq!(read.lookup(stamp), Some(&reply[..]), "case {case}");
            }
            assert_eq!(read.len(), model.0.len(), "case {case}");
        }
    }
}
