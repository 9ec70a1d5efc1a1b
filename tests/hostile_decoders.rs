//! Hostile bytes never panic a decoder. Every decoder that reads bytes a
//! peer or a file supplied — the frame reader, bincode into the four wire
//! types, the checkpoint manifest's JSON line, the binary matrix codec, and
//! the service's frame views (the server's of a request, the client's of a
//! response) — returns `Ok` or `Err` on arbitrary input and on each mutation of a
//! valid encoding: a cut at every offset, one flipped byte, a length or
//! count field set to `u64::MAX` or to the bytes remaining + 1, and (for
//! JSON) every number set to `u64::MAX` or one past it. A panic fails the
//! test by itself; the named cases at the end are the ones that used to.
//! `decode_text` has its own hostile-header suite in `mrinv-matrix`, and
//! the final job's `decode_indexed` and `decode_tails` unit proptests
//! beside them.

use std::time::Duration;

use mrinv::service::{RequestView, ResponseView, WireOp, WireRequest, WireResponse};
use mrinv_mapreduce::exec::WireTaskResult;
use mrinv_mapreduce::wire::{read_frame, write_frame};
use mrinv_mapreduce::{JobReport, ManifestRecord, Phase, TaskDescriptor, TaskStats};
use mrinv_matrix::io::{decode_binary, encode_binary_vec};
use mrinv_matrix::Matrix;
use proptest::prelude::*;
use serde::{Number, Value};

/// Decodes `bytes` as the JSON text of a manifest line (lossily, so every
/// byte sequence reaches the parser).
fn manifest(bytes: &[u8]) -> bool {
    serde_json::from_str::<ManifestRecord>(&String::from_utf8_lossy(bytes)).is_ok()
}

fn frame(bytes: &[u8]) -> bool {
    read_frame(&mut &bytes[..], &mut Vec::new()).is_ok()
}

fn wire<T: serde::Deserialize>(bytes: &[u8]) -> bool {
    bincode::deserialize::<T>(bytes).is_ok()
}

fn matrix(bytes: &[u8]) -> bool {
    decode_binary(bytes).is_ok()
}

fn request_view(bytes: &[u8]) -> bool {
    RequestView::read(bytes).is_ok()
}

fn response_view(bytes: &[u8]) -> bool {
    ResponseView::read(bytes).is_ok()
}

/// A decoder under test: `true` is `Ok`.
type Decoder = fn(&[u8]) -> bool;

/// Every decoder under test, by name.
const DECODERS: [(&str, Decoder); 9] = [
    ("read_frame", frame),
    ("WireRequest", wire::<WireRequest>),
    ("WireResponse", wire::<WireResponse>),
    ("TaskDescriptor", wire::<TaskDescriptor>),
    ("WireTaskResult", wire::<WireTaskResult>),
    ("ManifestRecord", manifest),
    ("decode_binary", matrix),
    ("RequestView", request_view),
    ("ResponseView", response_view),
];

/// Feeds `bytes` to every decoder. Returning at all is the property.
fn decode_all(bytes: &[u8]) {
    for (_, decode) in DECODERS {
        decode(bytes);
    }
}

fn stats() -> TaskStats {
    TaskStats {
        cpu: Duration::new(3, 250),
        flops: 7,
        read_bytes: 64,
        write_bytes: 32,
        shuffle_bytes: 16,
    }
}

/// A task payload with every node kind the codec has.
fn payload() -> Value {
    Value::Object(vec![
        ("name".into(), Value::String("é-cell".into())),
        ("bytes".into(), Value::Bytes(vec![0, 1, 255])),
        (
            "items".into(),
            Value::Array(vec![
                Value::Null,
                Value::Bool(true),
                Value::Number(Number::U(u64::MAX)),
                Value::Number(Number::F(-0.0)),
                Value::Array(vec![Value::Number(Number::I(-3))]),
            ]),
        ),
    ])
}

/// One valid encoding per decoder, in [`DECODERS`] order.
fn valid_encodings() -> Vec<Vec<u8>> {
    let a = Matrix::from_vec(2, 3, vec![1.0, -0.0, f64::MAX, 2.5, f64::NAN, 1e-300]).unwrap();
    let request = WireRequest {
        tenant: "tenant".into(),
        id: 7,
        op: WireOp::Solve,
        a: encode_binary_vec(&a),
        rhs: vec![vec![1.0, 2.0], vec![]],
        nb: 2,
        separate_intermediate_files: true,
        block_wrap: false,
        transpose_u: true,
    };
    let response = WireResponse {
        id: 7,
        ok: true,
        error: String::new(),
        cache_hit: false,
        inverse: encode_binary_vec(&a),
        l: Vec::new(),
        u: Vec::new(),
        perm: vec![1, 0],
        solutions: vec![vec![0.5, -1.5]],
        jobs: 9,
        sim_secs: 12.5,
    };
    let descriptor = TaskDescriptor {
        job: "final-inverse:run".into(),
        family: "final-inverse".into(),
        phase: Phase::Reduce,
        task_index: 3,
        num_tasks: 4,
        payload: payload(),
    };
    let result = WireTaskResult {
        stats: stats(),
        payload: payload(),
    };
    let record = ManifestRecord {
        name: "lu-level".into(),
        seq: 2,
        fingerprint: u64::MAX,
        outputs: vec!["run/OUT/A.0".into(), "run/\"quoted\"\n".into()],
        report: JobReport {
            name: "lu-level".into(),
            map_tasks: 4,
            reduce_tasks: 4,
            sim_secs: 1.5,
            stats: stats(),
            ..JobReport::default()
        },
    };
    let mut framed = Vec::new();
    write_frame(&mut framed, 1, &bincode::serialize(&request)).unwrap();
    vec![
        framed,
        bincode::serialize(&request),
        bincode::serialize(&response),
        bincode::serialize(&descriptor),
        bincode::serialize(&result),
        serde_json::to_string(&record).unwrap().into_bytes(),
        encode_binary_vec(&a),
        bincode::serialize(&request),
        bincode::serialize(&response),
    ]
}

/// `valid` with the `width`-byte little-endian field at `at` set to
/// `value` (truncated to the field).
fn with_field(valid: &[u8], at: usize, width: usize, value: u64) -> Vec<u8> {
    let mut lying = valid.to_vec();
    lying[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
    lying
}

/// `json` with its `nth` run of ASCII digits replaced by `digits`.
fn with_number(json: &str, nth: usize, digits: &str) -> Option<String> {
    let bytes = json.as_bytes();
    let mut runs = (0..bytes.len())
        .filter(|&i| bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit()));
    let start = runs.nth(nth)?;
    let end = (start..bytes.len())
        .find(|&i| !bytes[i].is_ascii_digit())
        .unwrap_or(bytes.len());
    Some(format!("{}{digits}{}", &json[..start], &json[end..]))
}

#[test]
fn each_valid_encoding_decodes_and_each_cut_is_an_error() {
    for ((name, decode), valid) in DECODERS.into_iter().zip(valid_encodings()) {
        assert!(decode(&valid), "{name}: the valid encoding");
        for cut in 0..valid.len() {
            assert!(!decode(&valid[..cut]), "{name}: cut at {cut}");
            decode_all(&valid[..cut]);
        }
    }
}

/// Every offset gets both lies in a 4-byte field (the frame header's) and
/// an 8-byte one (bincode's lengths, the binary codec's rows and cols),
/// so wherever a length or count sits it is tried.
#[test]
fn lying_lengths_and_counts_never_panic_a_decoder() {
    for valid in valid_encodings() {
        for width in [4, 8] {
            for at in 0..=valid.len() - width {
                let remaining = (valid.len() - at - width) as u64;
                for lie in [u64::MAX, remaining + 1] {
                    decode_all(&with_field(&valid, at, width, lie));
                }
            }
        }
    }
}

#[test]
fn out_of_range_json_numbers_never_panic_the_manifest_reader() {
    let json = String::from_utf8(valid_encodings()[5].clone()).unwrap();
    let mut nth = 0;
    while let Some(max) = with_number(&json, nth, "18446744073709551615") {
        manifest(max.as_bytes());
        manifest(
            with_number(&json, nth, "18446744073709551616")
                .unwrap()
                .as_bytes(),
        );
        nth += 1;
    }
    assert!(nth > 10, "only {nth} numbers in the manifest line");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        decode_all(&bytes);
    }

    #[test]
    fn one_flipped_byte_never_panics_a_decoder(
        (which, at, mask) in (0usize..DECODERS.len(), any::<usize>(), 1u8..=255)
    ) {
        let mut bytes = valid_encodings().swap_remove(which);
        let at = at % bytes.len();
        bytes[at] ^= mask;
        decode_all(&bytes);
    }
}

// ---- Regression cases ----------------------------------------------------

/// `Duration::new` panics when the nanoseconds carry the seconds past
/// `u64::MAX`; a worker's reply or a manifest line could say exactly that
/// in a `TaskStats`.
#[test]
fn a_duration_past_u64_max_seconds_is_an_error() {
    let overflow = r#""cpu":{"secs":18446744073709551615,"nanos":1000000000}"#;
    let json = serde_json::to_string(&WireTaskResult {
        stats: stats(),
        payload: Value::Null,
    })
    .unwrap()
    .replace(r#""cpu":{"secs":3,"nanos":250}"#, overflow);
    assert!(json.contains(overflow));
    let value: Value = serde_json::from_str(&json).unwrap();
    let frame = bincode::value_to_bytes(&value);
    assert!(bincode::deserialize::<WireTaskResult>(&frame).is_err());

    let line = String::from_utf8(valid_encodings()[5].clone()).unwrap();
    let line = line.replace(r#""cpu":{"secs":3,"nanos":250}"#, overflow);
    assert!(line.contains(overflow));
    assert!(!manifest(line.as_bytes()));
}

/// Nested containers used to recurse once per level, so a frame of a few
/// hundred kilobytes of `[` overflowed the decoding thread's stack.
#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let depth = 200_000;
    let mut nested = Vec::with_capacity(depth * 9 + 1);
    for _ in 0..depth {
        nested.push(7);
        nested.extend(1u64.to_le_bytes());
    }
    nested.push(0);
    assert!(bincode::bytes_to_value(&nested).is_err());
    assert!(bincode::deserialize::<TaskDescriptor>(&nested).is_err());

    let json = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(serde_json::from_str::<Value>(&json).is_err());
    assert!(!manifest(json.as_bytes()));
}

/// A reply can carry figures that decode fine and are still absurd:
/// `Duration::MAX` of CPU, `u64::MAX` flops and bytes. The driver sums every
/// attempt's stats, and `Duration` addition used to panic there.
#[test]
fn huge_in_range_task_stats_merge_without_panicking() {
    let huge = TaskStats {
        cpu: Duration::MAX,
        flops: u64::MAX,
        read_bytes: u64::MAX,
        write_bytes: u64::MAX,
        shuffle_bytes: u64::MAX,
    };
    let frame = bincode::serialize(&WireTaskResult {
        stats: huge,
        payload: Value::Null,
    });
    let decoded = bincode::deserialize::<WireTaskResult>(&frame)
        .unwrap()
        .stats;
    assert_eq!(decoded, huge);
    let total = stats().merge(&decoded).merge(&decoded);
    assert_eq!(total, huge);
    assert_eq!(total.transfer_bytes(), u64::MAX);
}
