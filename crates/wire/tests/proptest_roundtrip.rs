//! Property-based round-trip tests for the wire codec.
//!
//! The build environment has no crates.io access, so instead of `proptest`
//! these properties are driven by a seeded SplitMix64 generator: each test
//! runs a fixed number of random cases and is fully reproducible. On failure
//! the assert message carries the case index, which together with the fixed
//! seed pins down the failing input exactly.

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

fn assert_roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T, case: usize) {
    let bytes = value.to_bytes();
    assert_eq!(
        bytes.len(),
        value.encoded_len(),
        "case {case}: encoded_len mismatch for {value:?}"
    );
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
        let back = f64::from_bytes(&v.to_bytes()).unwrap();
        if v.is_nan() {
            assert!(back.is_nan(), "case {case}: NaN did not survive");
        } else {
            assert_eq!(back.to_bits(), v.to_bits(), "case {case}");
        }
        let single = f32::from_bits(gen.next_u64() as u32);
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
    let plain = |n: usize| orca_wire::uvarint_len(n as u64) + n;
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
        let head = 1 + orca_wire::uvarint_len(u64::from(stamped.as_ref().unwrap().0));
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
        let back = HashMap::<u32, u64>::from_bytes(&hmap.to_bytes()).unwrap();
        assert_eq!(back, hmap, "case {case}");
        let hset: HashSet<String> = (0..gen.below(8)).map(|_| gen.string()).collect();
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

/// Slots as a [`orca_wire::Holdings`] reports them: a part and its regime.
fn random_slots(gen: &mut Gen) -> Vec<(u32, u64, u64, orca_wire::RegimeKind)> {
    let parts = random_parts(gen);
    parts
        .into_iter()
        .map(|(partition, epoch, version)| (partition, epoch, version, random_regime(gen)))
        .collect()
}

/// The messages that keep a shard — one partition of a sharded-regime
/// object — alive across its owner's death: the prime of its kept mirror,
/// its promotion and the holdings report; and the ones that place a
/// replicated-regime object:
/// an install naming its regime and mirrors, a mirror fetch naming the
/// version held, the lease-only renewal, a table naming mirrors, a usage
/// report, the report of a mirror that did not answer; and the ones a
/// completed write sends its mirrors: a pushed run of updates — held, or
/// not — and its unlock, an invalidation naming the write's version. None
/// of them has a tail, so besides round-tripping, every unassigned tag must
/// be rejected and every strict prefix of an encoding — but one: what a
/// `Mirror` or an `Update` mirrors is its last field and written only when
/// it is a partition, so the prefix that ends before it is the same message
/// about the whole object, and costs the same bytes it cost before there
/// was a partition to name.
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
            },
            5 => RegimeMsg::FetchMirror {
                object,
                epoch,
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
                partition,
            },
        };
        assert_roundtrip(&msg, case);
        let reply = match gen.below(3) {
            0 => RegimeReply::Renewed(random_lease(&mut gen)),
            1 => RegimeReply::Route(random_regime_table(&mut gen)),
            _ => RegimeReply::Holdings(Box::new(Holdings {
                type_name: gen.string(),
                slots: random_slots(&mut gen),
                keepers: random_parts(&mut gen),
                mirror: (gen.below(2) == 0)
                    .then(|| (gen.next_u64(), gen.next_u64(), gen.bytes(48))),
                dedup: random_dedup(&mut gen),
            })),
        };
        assert_roundtrip(&reply, case);

        let mut bytes = msg.to_bytes();
        let mut whole = msg.clone();
        let unnamed = match &mut whole {
            RegimeMsg::Update { partition, .. } | RegimeMsg::Mirror { partition, .. } => {
                let named = partition.take();
                named.map(|partition| bytes.len() - partition.to_bytes().len())
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
                have: (gen.below(2) == 0).then(|| gen.next_u64()),
            },
            9 => RegimeMsg::DropCopies {
                object,
                epoch,
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
            10 => RegimeReply::Batch(
                (0..gen.below(6))
                    .map(|_| random_outcome(&mut gen))
                    .collect(),
            ),
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
                keepers: random_parts(&mut gen),
                mirror: None,
                dedup: random_dedup(&mut gen),
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
                op: op.clone(),
                stamp,
            },
        ] {
            assert_tail::<RegimeMsg>(&msg.to_bytes(), &op, case);
        }
        assert_tail::<RegimeReply>(&RegimeReply::Done(op.clone()).to_bytes(), &op, case);
        let installed = RegimeReply::Installed {
            reply: op.clone(),
            seq: gen.next_u64(),
            lease: (gen.below(2) == 0).then(|| gen.next_u64()),
        };
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
            if gen.below(2) == 0 {
                op.trace = orca_wire::TraceId(prev.trace.0.wrapping_add(1));
            }
        }
        ops.push(op);
    }
    orca_wire::OpBatch {
        batch: edgy_u64(gen),
        ops,
    }
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
        for op in &batch.ops {
            assert_roundtrip(op, case);
        }
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
        let _ = BatchOp::from_bytes(&garbage);
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
                let len_bytes = orca_wire::uvarint_len(reply.len() as u64 + 3);
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
