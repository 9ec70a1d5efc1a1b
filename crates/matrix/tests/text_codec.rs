//! The text codec's two oracles. The writer must print every `f64` byte
//! for byte as `format!("{v:e}")` does; the reader must accept exactly the
//! tokens `str::parse::<f64>` accepts and decode them to the same bits.
//! Both are driven through `encode_text` / `decode_text`, the only way in.
//! (The power-of-ten table is checked against exact integer arithmetic by
//! the unit tests beside it, in `src/io/decimal.rs`.)
//!
//! Tier-1 runs a few hundred thousand cases; the `#[ignore]`d sweeps run
//! millions and are for `--release -- --include-ignored` (CI does).

use mrinv_matrix::io::{decode_text, encode_text};
use mrinv_matrix::{Matrix, MatrixError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform in (-1, 1), the distribution `random_matrix` fills with.
fn unit(rng: &mut StdRng) -> f64 {
    rng.gen_range(-1.0..1.0)
}

/// Asserts the writer's token for each value is `{:e}`'s and reads back
/// (through the standard parser) as the same bits.
fn check_writer(values: &[f64]) {
    let m = Matrix::from_vec(1, values.len(), values.to_vec()).unwrap();
    let text = encode_text(&m);
    let (header, body) = text.split_once('\n').unwrap();
    assert_eq!(header, format!("1 {}", values.len()));
    let mut tokens = body.strip_suffix('\n').unwrap().split(' ');
    for v in values {
        let token = tokens.next().expect("one token per value");
        assert_eq!(token, format!("{v:e}"), "bits {:#018x}", v.to_bits());
        let back: f64 = token.parse().unwrap();
        assert!(
            back.to_bits() == v.to_bits() || (back.is_nan() && v.is_nan()),
            "{token} reads back as {back:e}"
        );
    }
    assert!(values.is_empty() || tokens.next().is_none());
}

/// Asserts `decode_text` agrees with `str::parse::<f64>` on every token:
/// the accepted ones together as one row, bit for bit, and each rejected
/// one alone as a codec error.
fn check_reader(tokens: &[String]) {
    let (good, bad): (Vec<_>, Vec<_>) = tokens.iter().partition(|t| t.parse::<f64>().is_ok());
    let row: Vec<&str> = good.iter().map(|t| t.as_str()).collect();
    let text = format!("1 {}\n{}\n", row.len(), row.join(" "));
    match decode_text(&text) {
        Ok(m) => {
            for (token, got) in row.iter().zip(m.as_slice()) {
                let want: f64 = token.parse().unwrap();
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{token}: {got:e} vs {want:e}"
                );
            }
        }
        // The error names the token.
        Err(e) => panic!("rejected a token the standard parser accepts: {e}"),
    }
    for token in bad {
        let alone = decode_text(&format!("1 1\n{token}\n"));
        assert!(
            matches!(alone, Err(MatrixError::Codec(_))),
            "{token:?} gave {alone:?}, the standard parser rejects it"
        );
    }
}

#[test]
fn writer_matches_core_fmt_on_edge_values() {
    let mut values = vec![
        0.0,
        -0.0,
        f64::from_bits(1),
        f64::from_bits((1 << 52) - 1),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
        1.0,
        -1.0,
        0.1,
        0.3,
        1.0 / 3.0,
        123456789.0,
        9007199254740993.0,
        5e-324,
        1.7976931348623157e308,
    ];
    values.extend((-1074..=1023).map(|e| 2f64.powi(e)));
    values.extend((-323..=308).map(|k| format!("1e{k}").parse::<f64>().unwrap()));
    values.extend((0..=17).map(|k| 10f64.powi(k) - 1.0));
    check_writer(&values);

    // The one free choice of a shortest writer: an exact tie rounds up.
    let tie = Matrix::from_vec(1, 1, vec![2f64.powi(-25)]).unwrap();
    assert_eq!(encode_text(&tie), "1 1\n2.9802322387695313e-8\n");
}

#[test]
fn writer_matches_core_fmt_at_every_exponent() {
    let mut values = Vec::new();
    for biased in 0..0x7ffu64 {
        for mantissa in [0, 1, (1 << 52) - 1] {
            let bits = biased << 52 | mantissa;
            values.push(f64::from_bits(bits));
            values.push(f64::from_bits(bits | 1 << 63));
        }
    }
    check_writer(&values);
}

fn writer_sweep(cases: usize) {
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for _ in 0..cases / 2000 {
        let bits: Vec<f64> = (0..1000).map(|_| f64::from_bits(rng.next_u64())).collect();
        check_writer(&bits);
        let units: Vec<f64> = (0..1000).map(|_| unit(&mut rng)).collect();
        check_writer(&units);
    }
}

#[test]
fn writer_matches_core_fmt_on_random_values() {
    writer_sweep(200_000);
}

#[test]
#[ignore = "millions of cases: run in release"]
fn writer_matches_core_fmt_on_random_values_long() {
    writer_sweep(6_000_000);
}

/// 1 to 19 digits with a random sign, point and exponent.
fn random_decimal(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..=19usize);
    let mut token = String::from(["", "-", "+", ""][rng.gen_range(0..4usize)]);
    // 0 puts the point first, `len` last, anything above leaves it out.
    let point = rng.gen_range(0..len + 4);
    for i in 0..len {
        if i == point {
            token.push('.');
        }
        // Leading and trailing zeros now and then.
        let zero = (i < 3 || i + 3 > len) && rng.gen_range(0..4u8) == 0;
        token.push(if zero {
            '0'
        } else {
            (b'0' + rng.gen_range(0..10u8)) as char
        });
    }
    if point == len {
        token.push('.');
    }
    let exponent = match rng.gen_range(0..8u8) {
        0 => return token,
        // Around both ends of the fast window and of the f64 range.
        1 => rng.gen_range(0..800u32) as i64 - 400,
        2 => [-28, -27, 55, 56][rng.gen_range(0..4usize)] + (len - point.min(len)) as i64,
        _ => rng.gen_range(0..100u32) as i64 - 45,
    };
    token.push(if rng.gen_bool(0.25) { 'E' } else { 'e' });
    if exponent >= 0 && rng.gen_range(0..3u8) == 0 {
        token.push('+');
    }
    token + &exponent.to_string()
}

/// Decimal strings exactly half way between two adjacent doubles.
fn halfway_tokens(rng: &mut StdRng) -> Vec<String> {
    // Spacing is 1 in [2^52, 2^53): m + 0.5 is a tie.
    let m = (1 << 52) | rng.next_u64() >> 12;
    // Spacing is 2 in [2^53, 2^54): an odd n is a tie, and so is n * 2^j.
    let n = (1 << 53) | rng.next_u64() >> 11 | 1;
    let j = rng.gen_range(0..9u32);
    vec![
        format!("{m}.5"),
        format!("{m}5e-1"),
        format!("{m}.5e0"),
        format!("-{m}.50"),
        format!("{m}50E-2"),
        format!("0.{m}5e16"),
        format!("{n}"),
        format!("{n}.0"),
        format!("{}", n << j),
        format!("{}e-1", (n << j) as u128 * 10),
        format!("{}e1", n << j),
    ]
}

fn reader_sweep(cases: usize) {
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for _ in 0..cases / 2500 {
        let mut tokens: Vec<String> = (0..1000).map(|_| random_decimal(&mut rng)).collect();
        for _ in 0..400 {
            // Any bit pattern; magnitudes a matrix holds; values that
            // print, in fixed notation, inside the fast window.
            let v = match rng.gen_range(0..3u8) {
                0 => f64::from_bits(rng.next_u64()),
                1 => unit(&mut rng),
                _ => unit(&mut rng) * 10f64.powi(rng.gen_range(0..30u32) as i32 - 12),
            };
            tokens.push(format!("{v:e}"));
            tokens.push(format!("{v:.17e}"));
            // `{}` of 1e300 is 301 digits: keep the row a sane length.
            if v == 0.0 || (1e-30..1e30).contains(&v.abs()) {
                tokens.push(format!("{v}"));
            }
        }
        for _ in 0..30 {
            tokens.extend(halfway_tokens(&mut rng));
        }
        check_reader(&tokens);
    }
}

#[test]
fn reader_matches_std_parse_on_random_tokens() {
    reader_sweep(150_000);
}

#[test]
#[ignore = "millions of cases: run in release"]
fn reader_matches_std_parse_on_random_tokens_long() {
    reader_sweep(5_000_000);
}

#[test]
fn reader_matches_std_parse_on_odd_tokens() {
    let tokens = [
        "1.",
        ".5",
        "+1.5",
        "1E5",
        "1e+5",
        "-0",
        "+0",
        "0",
        "-0.0e0",
        "000",
        "0e99999999999",
        "0.0000000000000000000000000000000000001",
        "00000000000000000000000000001.5",
        "inf",
        "-inf",
        "+inf",
        "NaN",
        "nan",
        "-NaN",
        "infinity",
        "Infinity",
        "INF",
        "infinit",
        "1e",
        "1e+",
        "1e-",
        "e5",
        ".e5",
        ".",
        "-",
        "+",
        "-.",
        "+-1",
        "--1",
        "1.2.3",
        "1..2",
        "1e5x",
        "1e5.0",
        "1e5e5",
        "1x",
        "x1",
        "0x10",
        "1_000",
        "1,5",
        "1e309",
        "1e308",
        "1.7976931348623157e308",
        "1.7976931348623159e308",
        "1e-400",
        "4.9e-324",
        "2.4703282292062327e-324",
        "2.4703282292062328e-324",
        "2.2250738585072011e-308",
        "2.2250738585072014e-308",
        "123456789012345678901234567890",
        "1234567890123456789",
        "12345678901234567890",
        "9999999999999999999",
        "18446744073709551615",
        "18446744073709551616",
        "0.9999999999999999999",
        "9007199254740993",
        "9007199254740992.5",
        "9007199254740993e0",
        "1e99999999999",
        "1e-99999999999",
        // Exponents that wrap a u64 accumulator to 2^63, 0 and 5.
        "1e-9223372036854775808",
        "1e9223372036854775808",
        "1e18446744073709551616",
        "1e-18446744073709551621",
        "1e55",
        "1e56",
        "1e-27",
        "1e-28",
        "9999999999999999999e55",
        "1e0000000000000000000001",
        "1é",
        "١٢٣",
        "1\u{a0}2",
    ]
    .map(String::from);
    check_reader(&tokens);
}

/// The parent's writer: 18 significant digits through `core::fmt`.
fn encode_text_legacy(m: &Matrix) -> String {
    let mut out = format!("{} {}\n", m.rows(), m.cols());
    for row in m.row_iter() {
        let row: Vec<String> = row.iter().map(|v| format!("{v:.17e}")).collect();
        out += &(row.join(" ") + "\n");
    }
    out
}

#[test]
fn files_written_by_older_builds_still_load() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    let mut values = vec![0.0, -0.0, f64::MAX, f64::MIN_POSITIVE, f64::from_bits(1)];
    values.extend((0..2995).map(|i| match i % 3 {
        0 => f64::from_bits(rng.next_u64() & !(0x7ff << 52) | rng.gen_range(0..0x7ffu64) << 52),
        _ => unit(&mut rng) * 10f64.powi(rng.gen_range(0..12u32) as i32 - 8),
    }));
    let m = Matrix::from_vec(60, 50, values).unwrap();
    let old = encode_text_legacy(&m);
    assert!(old.contains("e-") && old.lines().nth(1).unwrap().len() > 50 * 23);
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&decode_text(&old).unwrap()), bits(&m));
    assert_eq!(
        bits(&decode_text(&encode_text(&m)).unwrap()),
        bits(&m),
        "and the new format agrees"
    );
}
