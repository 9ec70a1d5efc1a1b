//! `f64` to and from decimal text, one number at a time, for the text
//! matrix codec.
//!
//! Both directions work from one table of 128-bit powers of ten, built at
//! compile time. The writer is Schubfach (Giulietti, "The Schubfach way to
//! render doubles", 2020): the shortest decimal that reads back as the same
//! `f64`, the closest one among those, and byte for byte what
//! `format!("{v:e}")` prints. The reader is Eisel–Lemire (Lemire, "Number
//! parsing at a gigabyte per second", 2021) inside the exponent window
//! where that algorithm cannot be undecided, and `str::parse::<f64>` for
//! every other token, so what is accepted and what it decodes to are
//! exactly the standard library's.

use std::num::ParseFloatError;

/// Longest token [`write_f64`] produces: `-d.dddddddddddddddde-xxx`.
pub(super) const F64_MAX_LEN: usize = 24;

const K_MIN: i32 = -292;
const K_MAX: i32 = 324;

/// Limbs of the table builder's integers: `2^832` and `5^324 < 2^753` fit.
const LIMBS: usize = 14;

/// `POW10[k - K_MIN] = (hi, lo)` with `g = hi * 2^64 + lo` the smallest
/// integer such that `10^k <= g * 2^r`, where `r = floor(log2(10^k)) - 127`;
/// so `2^127 <= g < 2^128`, and `g` is exact for `0 <= k <= 55`.
static POW10: [(u64, u64); (K_MAX - K_MIN + 1) as usize] = pow10_table();

const fn pow10_table() -> [(u64, u64); (K_MAX - K_MIN + 1) as usize] {
    let mut table = [(0, 0); (K_MAX - K_MIN + 1) as usize];
    // 10^k = 5^k * 2^k: the leading 128 bits of 5^k, rounded up.
    let mut power = [0u64; LIMBS];
    power[0] = 1;
    let mut k = 0;
    while k <= K_MAX {
        table[(k - K_MIN) as usize] = leading_128_ceil(&power);
        let (mut i, mut carry) = (0, 0u128);
        while i < LIMBS {
            carry += power[i] as u128 * 5;
            power[i] = carry as u64;
            carry >>= 64;
            i += 1;
        }
        assert!(carry == 0 || k == K_MAX);
        k += 1;
    }
    // 10^-n: floor(floor(x / 5) / 5) = floor(x / 25), so dividing 2^832 by
    // five n times leaves floor(2^832 / 5^n), whose leading 128 bits are
    // floor(2^s / 5^n) for some s; the quotient is never whole, so its
    // ceiling is one more.
    let mut quotient = [0u64; LIMBS];
    quotient[LIMBS - 1] = 1;
    let mut n = 1;
    while n <= -K_MIN {
        let (mut i, mut rem) = (LIMBS, 0u128);
        while i > 0 {
            i -= 1;
            rem = (rem << 64) | quotient[i] as u128;
            quotient[i] = (rem / 5) as u64;
            rem %= 5;
        }
        table[(-n - K_MIN) as usize] = leading_128_ceil(&quotient);
        n += 1;
    }
    table
}

/// The 128 bits from the highest set bit of `x` down, rounded up.
const fn leading_128_ceil(x: &[u64; LIMBS]) -> (u64, u64) {
    let mut top = LIMBS - 1;
    while x[top] == 0 {
        top -= 1;
    }
    let bits = 64 * top + 64 - x[top].leading_zeros() as usize;
    if bits <= 128 {
        // Only 5^k for k <= 55: exact, shifted up.
        let v = ((x[1] as u128) << 64 | x[0] as u128) << (128 - bits);
        return ((v >> 64) as u64, v as u64);
    }
    // Every longer value is odd (a power of five) or the floor of a
    // fraction, so rounding up always adds one.
    let (limb, shift) = ((bits - 128) / 64, (bits - 128) % 64);
    let window = x[limb] as u128 | (x[limb + 1] as u128) << 64;
    let v = if shift == 0 {
        window
    } else {
        // The highest set bit is in this third limb.
        window >> shift | (x[limb + 2] as u128) << (128 - shift)
    };
    assert!(v >> 127 == 1 && v != u128::MAX);
    let v = v + 1;
    ((v >> 64) as u64, v as u64)
}

fn pow10(k: i32) -> (u64, u64) {
    POW10[(k - K_MIN) as usize]
}

/// `floor(log2(10^e))` for `|e| <= 1233`.
fn floor_log2_pow10(e: i32) -> i32 {
    (e * 1_741_647) >> 19
}

/// `"00" "01" ... "99"`.
static DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Writes `v` as `format!("{v:e}")` does and returns the length.
pub(super) fn write_f64(v: f64, out: &mut [u8; F64_MAX_LEN]) -> usize {
    let mut put = |at: usize, s: &[u8]| {
        out[at..at + s.len()].copy_from_slice(s);
        at + s.len()
    };
    if v.is_nan() {
        return put(0, b"NaN");
    }
    let bits = v.to_bits();
    let at = if bits >> 63 != 0 { put(0, b"-") } else { 0 };
    let (fraction, biased) = (bits & ((1 << 52) - 1), (bits >> 52 & 0x7ff) as i32);
    if biased == 0x7ff {
        return put(at, b"inf");
    }
    if biased == 0 && fraction == 0 {
        return put(at, b"0e0");
    }
    let (mut digits, mut exp10) = shortest_decimal(fraction, biased);
    while digits % 10 == 0 {
        digits /= 10;
        exp10 += 1;
    }

    // The digits go one place to the right of where they end up, then the
    // first moves left to make room for the point. The low eight split as
    // a tree, whose branches the processor overlaps; one chain of divisions
    // through all seventeen has to run in order.
    let len = decimal_len(digits);
    let mut i = at + 1 + len;
    let mut pair = |i: usize, p: u32| {
        out[i..i + 2].copy_from_slice(&DIGIT_PAIRS[2 * p as usize..2 * p as usize + 2]);
    };
    let mut head = digits;
    if digits >= 100_000_000 {
        head = digits / 100_000_000;
        let tail = (digits % 100_000_000) as u32;
        let (high, low) = (tail / 10_000, tail % 10_000);
        i -= 8;
        pair(i, high / 100);
        pair(i + 2, high % 100);
        pair(i + 4, low / 100);
        pair(i + 6, low % 100);
    }
    let mut head = head as u32;
    while head >= 100 {
        i -= 2;
        pair(i, head % 100);
        head /= 100;
    }
    if head >= 10 {
        pair(i - 2, head);
    } else {
        out[i - 1] = b'0' + head as u8;
    }
    out[at] = out[at + 1];
    let mut end = at + 1;
    if len > 1 {
        out[end] = b'.';
        end += len;
    }

    out[end] = b'e';
    end += 1;
    let mut exp = exp10 + len as i32 - 1;
    if exp < 0 {
        out[end] = b'-';
        end += 1;
        exp = -exp;
    }
    let exp = exp as usize;
    if exp >= 100 {
        out[end] = b'0' + (exp / 100) as u8;
        end += 1;
    }
    if exp >= 10 {
        out[end] = b'0' + (exp / 10 % 10) as u8;
        end += 1;
    }
    out[end] = b'0' + (exp % 10) as u8;
    end + 1
}

/// Number of decimal digits of `d`, for `1 <= d < 10^17`.
fn decimal_len(d: u64) -> usize {
    const POWERS: [u64; 18] = {
        let mut p = [1; 18];
        let mut i = 1;
        while i < 18 {
            p[i] = p[i - 1] * 10;
            i += 1;
        }
        p
    };
    // floor(log10(2^b)) is at most one below the answer.
    let guess = (((64 - d.leading_zeros()) * 1233) >> 12) as usize;
    guess + (d >= POWERS[guess]) as usize
}

/// Schubfach: `(d, k)` with `d * 10^k` the shortest decimal in the rounding
/// interval of the finite non-zero double with these fields, the one
/// closest to it when several are as short, and the larger on an exact tie
/// (as `core::fmt` rounds: `2^-25` prints `2.9802322387695313e-8`). `d` may
/// end in zeros.
fn shortest_decimal(fraction: u64, biased: i32) -> (u64, i32) {
    // The double is c * 2^q.
    let (c, q) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    let even = c % 2 == 0;
    // Below a power of two the neighbour is half as far away.
    let narrow = fraction == 0 && biased > 1;

    // Interval ends and value, times four so the half-steps are whole.
    let (cbl, cb, cbr) = (4 * c - 2 + narrow as u64, 4 * c, 4 * c + 2);
    // k = floor(log10(2^q)), or floor(log10(3/4 * 2^q)) when narrow.
    let k = (q * 1_262_611 - if narrow { 524_031 } else { 0 }) >> 22;
    let h = q + floor_log2_pow10(-k) + 1;
    debug_assert!((1..=4).contains(&h));
    let g = pow10(-k);
    let vbl = round_to_odd(g, cbl << h);
    let vb = round_to_odd(g, cb << h);
    let vbr = round_to_odd(g, cbr << h);
    // An even significand owns both ends of its interval.
    let (lower, upper) = (vbl + !even as u64, vbr - !even as u64);

    let s = vb / 4;
    if s >= 10 {
        // One digit fewer, if exactly one such decimal is inside.
        let sp = s / 10;
        let down_inside = lower <= 40 * sp;
        let up_inside = 40 * sp + 40 <= upper;
        if down_inside != up_inside {
            return (sp + up_inside as u64, k + 1);
        }
    }
    let down_inside = lower <= 4 * s;
    let up_inside = 4 * s + 4 <= upper;
    if down_inside != up_inside {
        return (s + up_inside as u64, k);
    }
    // Both inside: the nearer, ties up.
    (s + (vb >= 4 * s + 2) as u64, k)
}

/// `floor(g * cp / 2^128)` with the lowest bit set if anything was dropped:
/// enough to compare against whole and half steps exactly.
fn round_to_odd(g: (u64, u64), cp: u64) -> u64 {
    let low_hi = (g.1 as u128 * cp as u128) >> 64;
    let sum = g.0 as u128 * cp as u128 + low_hi;
    (sum >> 64) as u64 | (sum as u64 > 1) as u64
}

/// Eisel–Lemire: the double nearest `w * 10^q`, ties to even, for
/// `w != 0` and `-27 <= q <= 55`. In that window `10^q` or its reciprocal
/// fits the table exactly up to one ceiling, which the algorithm's proof
/// covers, so there is no undecided case; and the result is always a
/// normal number, so there is no subnormal or overflow branch either.
fn eisel_lemire(w: u64, q: i32) -> f64 {
    let lz = w.leading_zeros();
    let w = w << lz;
    let (g_hi, g_lo) = pow10(q);
    let mut product = w as u128 * g_hi as u128;
    // 55 bits are needed: 53, one to round, one the normalisation may eat.
    // When the 9 bits below could still carry into them, add the next term.
    if (product >> 64) as u64 & 0x1ff == 0x1ff {
        product += (w as u128 * g_lo as u128) >> 64;
    }
    let (hi, lo) = ((product >> 64) as u64, product as u64);
    let upper = (hi >> 63) as u32;
    let shift = upper + 9;
    let mut mantissa = hi >> shift;
    let mut exp2 = floor_log2_pow10(q) + 63 + upper as i32 - lz as i32 + 1023;
    // Exactly half way between two doubles (possible only when 5^|q| is
    // small): step back so the rounding below lands on the even one.
    if lo <= 1 && (-4..=23).contains(&q) && mantissa & 3 == 1 && mantissa << shift == hi {
        mantissa &= !1;
    }
    mantissa = (mantissa + (mantissa & 1)) >> 1;
    if mantissa >= 2 << 52 {
        mantissa = 1 << 52;
        exp2 += 1;
    }
    f64::from_bits((exp2 as u64) << 52 | mantissa & !(1 << 52))
}

/// Appends the run of ASCII digits at `bytes[*i..]` to `w` (wrapping past
/// 19 of them), moves `i` past it and returns its length.
fn scan_digits(bytes: &[u8], i: &mut usize, w: &mut u64) -> usize {
    let from = *i;
    // Eight at a time while there are eight: a byte is a digit when adding
    // 0x46 does not reach 0x80 and subtracting '0' does not borrow; then
    // the eight values fold pairwise, 10 * a + b three times over.
    while let Some(chunk) = bytes.get(*i..*i + 8) {
        let v = u64::from_le_bytes(chunk.try_into().expect("sliced to 8 bytes"));
        let over = v.wrapping_add(0x4646_4646_4646_4646);
        let v = v.wrapping_sub(0x3030_3030_3030_3030);
        if (over | v) & 0x8080_8080_8080_8080 != 0 {
            break;
        }
        let v = v * 10 + (v >> 8);
        let low = (v & 0x0000_00ff_0000_00ff).wrapping_mul(100 + (1_000_000 << 32));
        let high = (v >> 16 & 0x0000_00ff_0000_00ff).wrapping_mul(1 + (10_000 << 32));
        let eight = low.wrapping_add(high) >> 32;
        *w = w.wrapping_mul(100_000_000).wrapping_add(eight);
        *i += 8;
    }
    while let Some(d) = bytes
        .get(*i)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d < 10)
    {
        *w = w.wrapping_mul(10).wrapping_add(d as u64);
        *i += 1;
    }
    *i - from
}

/// Reads the number token that starts at `text[start]` (not whitespace)
/// and runs to the next ASCII whitespace byte or the end of `text`;
/// returns where it ends and what `str::parse::<f64>` makes of it.
pub(super) fn scan_f64(text: &str, start: usize) -> (usize, Result<f64, ParseFloatError>) {
    let bytes = text.as_bytes();
    let mut i = start;
    let negative = bytes[i] == b'-';
    if negative || bytes[i] == b'+' {
        i += 1;
    }

    // `[digits][.digits][(e|E)[+|-]digits]`, at least one mantissa digit.
    let mut w = 0;
    let whole = scan_digits(bytes, &mut i, &mut w);
    let mut after_point = 0;
    if bytes.get(i) == Some(&b'.') {
        i += 1;
        after_point = scan_digits(bytes, &mut i, &mut w);
    }
    // 19 digits always fit a u64; leading zeros count, to keep this simple.
    let mut fast = (1..=19).contains(&(whole + after_point));
    let mut q = -(after_point as i64);
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        i += 1;
        let negative_exponent = bytes.get(i) == Some(&b'-');
        if negative_exponent || bytes.get(i) == Some(&b'+') {
            i += 1;
        }
        let mut exponent = 0;
        let length = scan_digits(bytes, &mut i, &mut exponent);
        // Four digits reach far outside the window below; more may have
        // wrapped, and what they left is not used.
        fast &= (1..=4).contains(&length);
        let exponent = exponent.min(9999) as i64;
        q += if negative_exponent {
            -exponent
        } else {
            exponent
        };
    }

    let mut end = i;
    while end < bytes.len() && !bytes[end].is_ascii_whitespace() {
        end += 1;
    }
    // A longer, malformed or non-numeric token (`inf`, `NaN`) and one
    // outside the exponent window go the long way.
    if end != i || !fast || !(-27..=55).contains(&q) {
        return (end, text[start..end].parse());
    }
    let magnitude = if w == 0 {
        0.0
    } else {
        eisel_lemire(w, q as i32)
    };
    (end, Ok(if negative { -magnitude } else { magnitude }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `x * y`, little-endian `u32` limbs.
    fn mul(x: &[u32], y: &[u32]) -> Vec<u32> {
        let mut out = vec![0u32; x.len() + y.len()];
        for (i, &a) in x.iter().enumerate() {
            let mut carry = 0u64;
            for (j, &b) in y.iter().enumerate() {
                carry += out[i + j] as u64 + a as u64 * b as u64;
                out[i + j] = carry as u32;
                carry >>= 32;
            }
            out[i + y.len()] = carry as u32;
        }
        while out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn pow(base: u32, n: i32) -> Vec<u32> {
        (0..n).fold(vec![1], |acc, _| mul(&acc, &[base]))
    }

    fn limbs_of(g: u128) -> Vec<u32> {
        (0..4).map(|i| (g >> (32 * i)) as u32).collect()
    }

    fn less(x: &[u32], y: &[u32]) -> bool {
        (x.len(), x.iter().rev().collect::<Vec<_>>())
            < (y.len(), y.iter().rev().collect::<Vec<_>>())
    }

    /// Every entry against its definition, `(g - 1) * 2^r < 10^k <= g * 2^r`,
    /// in exact integer arithmetic that shares nothing with the builder.
    #[test]
    fn pow10_table_is_the_ceiling_of_every_power() {
        for k in K_MIN..=K_MAX {
            let (hi, lo) = pow10(k);
            let g = (hi as u128) << 64 | lo as u128;
            assert!(g >> 127 == 1, "10^{k} is not normalised");
            // 10^k <=> g * 2^r is 5^k * 2^(k-r) <=> g; a negative power
            // multiplies the other side instead.
            let e2 = k - (floor_log2_pow10(k) - 127);
            let power = mul(&pow(5, k), &pow(2, e2));
            let scale = mul(&pow(5, -k), &pow(2, -e2));
            let entry = mul(&limbs_of(g), &scale);
            assert!(!less(&entry, &power), "10^{k}: entry too small");
            assert!(
                less(&mul(&limbs_of(g - 1), &scale), &power),
                "10^{k}: entry is not the smallest"
            );
            assert_eq!(entry == power, (0..=55).contains(&k), "10^{k} exact");
        }
    }

    #[test]
    fn pow10_table_anchors() {
        assert_eq!(pow10(0), (0x8000_0000_0000_0000, 0));
        assert_eq!(pow10(-1), (0xCCCC_CCCC_CCCC_CCCC, 0xCCCC_CCCC_CCCC_CCCD));
        assert_eq!(pow10(-292), (0xFF77_B1FC_BEBC_DC4F, 0x25E8_E89C_13BB_0F7B));
    }
}
