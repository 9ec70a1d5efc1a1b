//! Hostile bytes never panic a decoder. Every decoder that reads bytes a
//! peer or a file supplied — the frame reader, bincode into the four wire
//! types, the binary matrix codec, the service's frame views (the server's of a request, the client's of a
//! response, each also with the optional name keys), and a worker's
//! reading of the driver's DFS read reply (its replica homes, then the
//! file) — returns `Ok` or
//! `Err` on arbitrary input and on each mutation of a
//! valid encoding: a cut at every offset, one flipped byte, a length or
//! count field set to `u64::MAX` or to the bytes remaining + 1. A panic fails the
//! test by itself; the named cases at the end are the ones that used to.
//! `decode_text` has its own hostile-header suite in `mrinv-matrix`, and
//! the final job's `decode_indexed` and `decode_tails` unit proptests
//! beside them.

use std::time::Duration;

use mrinv::service::{RequestView, ResponseView, WireOp, WireRequest, WireResponse};
use mrinv_mapreduce::decode_read_reply;
use mrinv_mapreduce::exec::WireTaskResult;
use mrinv_mapreduce::wire::{read_frame, write_frame};
use mrinv_mapreduce::{Phase, TaskDescriptor, TaskStats};
use mrinv_matrix::io::{decode_binary, encode_binary_vec};
use mrinv_matrix::Matrix;
use proptest::prelude::*;
use serde::{Number, Serialize, Value};

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

/// A worker's DFS read reply as it arrives: one frame, whose body the
/// worker decodes (the frame's length is the file's).
fn dfs_read_reply(bytes: &[u8]) -> bool {
    let mut body = Vec::new();
    read_frame(&mut &bytes[..], &mut body).is_ok() && decode_read_reply(&body).is_ok()
}

/// A decoder under test: `true` is `Ok`.
type Decoder = fn(&[u8]) -> bool;

/// Every decoder under test, by name.
const DECODERS: [(&str, Decoder); 11] = [
    ("read_frame", frame),
    ("WireRequest", wire::<WireRequest>),
    ("WireResponse", wire::<WireResponse>),
    ("TaskDescriptor", wire::<TaskDescriptor>),
    ("WireTaskResult", wire::<WireTaskResult>),
    ("decode_binary", matrix),
    ("RequestView", request_view),
    ("ResponseView", response_view),
    ("RequestView (named)", request_view),
    ("ResponseView (admitted)", response_view),
    ("DFS read reply", dfs_read_reply),
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

/// `value`, an object, with `key` set to `field` (added after the
/// others if it is not there).
fn with_key(value: Value, key: &str, field: Value) -> Value {
    let Value::Object(mut fields) = value else {
        panic!("a wire struct is an object")
    };
    match fields.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = field,
        None => fields.push((key.to_string(), field)),
    }
    Value::Object(fields)
}

/// A name's `[order, d0, d1]`, or any other list of numbers.
fn words(words: &[u64]) -> Value {
    Value::Array(words.iter().map(|&w| Value::Number(Number::U(w))).collect())
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
    let mut framed = Vec::new();
    write_frame(&mut framed, 1, &bincode::serialize(&request)).unwrap();
    let named = WireRequest {
        a: Vec::new(),
        ..request.clone()
    };
    let named = with_key(named.to_value(), "name", words(&[2, u64::MAX, 9]));
    let admitted = with_key(response.to_value(), "admitted", words(&[2, 1, 0]));
    // Status OK, two homes (nodes 1 and 3), then a five-byte file.
    let mut read_reply = Vec::new();
    let body = [0, 2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0, 0, 1, 2, 3, 4, 5];
    write_frame(&mut read_reply, 1, &body).unwrap();
    vec![
        framed,
        bincode::serialize(&request),
        bincode::serialize(&response),
        bincode::serialize(&descriptor),
        bincode::serialize(&result),
        encode_binary_vec(&a),
        bincode::serialize(&request),
        bincode::serialize(&response),
        bincode::value_to_bytes(&named),
        bincode::value_to_bytes(&admitted),
        read_reply,
    ]
}

/// `valid` with the `width`-byte little-endian field at `at` set to
/// `value` (truncated to the field).
fn with_field(valid: &[u8], at: usize, width: usize, value: u64) -> Vec<u8> {
    let mut lying = valid.to_vec();
    lying[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
    lying
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
/// `u64::MAX`; a worker's reply could say exactly that in a `TaskStats`.
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

/// A malformed `name` — the wrong number of words, the wrong type, an
/// order of 0 or beyond any frame, or a name beside a matrix — is a
/// decode error: the view refuses it, and a live server answers it with
/// an error under id 0 and stays up for the next connection.
#[test]
fn a_malformed_name_is_an_error_not_a_panic() {
    use mrinv::service::{ServerHandle, ServiceConfig};
    use mrinv_mapreduce::Cluster;

    let request = || WireRequest {
        tenant: "t".into(),
        id: 3,
        op: WireOp::Invert,
        a: Vec::new(),
        rhs: Vec::new(),
        nb: 2,
        separate_intermediate_files: true,
        block_wrap: true,
        transpose_u: true,
    };
    let with_matrix = WireRequest {
        a: encode_binary_vec(&Matrix::identity(2)),
        ..request()
    };
    let malformed = [
        (request(), words(&[2, 1])),
        (request(), words(&[2, 1, 0, 0])),
        (request(), words(&[])),
        (request(), Value::String("2,1,0".into())),
        (request(), Value::Bytes(vec![2, 1, 0])),
        (
            request(),
            Value::Array(vec![Value::Number(Number::F(2.0)); 3]),
        ),
        (request(), words(&[0, 1, 0])),
        (request(), words(&[u64::MAX, 1, 0])),
        (request(), words(&[1 << 20, 1, 0])),
        (with_matrix, words(&[2, 1, 0])),
    ];
    let server = ServerHandle::start(
        std::sync::Arc::new(Cluster::medium(1)),
        ServiceConfig::default(),
    )
    .unwrap();
    for (request, name) in malformed {
        let body = bincode::value_to_bytes(&with_key(request.to_value(), "name", name.clone()));
        let err = RequestView::read(&body).unwrap_err();
        assert!(err.0.starts_with("field \"name\""), "{name:?}: {}", err.0);
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut stream, 1, &body).unwrap();
        let mut reply = Vec::new();
        assert_eq!(read_frame(&mut stream, &mut reply).unwrap(), 2);
        let reply: WireResponse = bincode::deserialize(&reply).unwrap();
        assert!(!reply.ok && reply.id == 0, "{name:?}");
        assert!(reply.error.contains("field \"name\""), "{}", reply.error);
    }
}
