//! The packed, cache-blocked GEMM engine.
//!
//! Standard BLIS-style structure with three levels of blocking:
//!
//! ```text
//! for jc in 0..n step NC          // B macro-panel   (L3 / whole matrix)
//!   for pc in 0..k step KC        // pack B[pc.., jc..] into NR-wide panels (L2)
//!     for ic in 0..m step MC      // pack A[ic.., pc..] into MR-tall panels (L1)
//!       for jr in 0..nc step NR   // micro-panel of packed B
//!         for ir in 0..mc step MR // micro-panel of packed A
//!           MR x NR register-tiled microkernel over kc
//! ```
//!
//! Packing rewrites both operands so the microkernel reads two contiguous
//! streams (`MR` A-values and `NR` B-values per k-step) regardless of the
//! original layout or transposition. An operand whose stored rows run
//! along `k` (`A` as stored, `B` transposed) is turned k-major by 4 x 4
//! transposes in registers on the wide arms, `O(m·k)` during packing
//! instead of a strided access in the `O(m·k·n)` inner loop; the packers
//! run through [`Arm::run`] like the leaves. Edge tiles are zero-padded in
//! the packed buffers, so the microkernel never branches on ragged shapes.
//!
//! The microkernel keeps an `MR x NR = 4 x 16` f64 accumulator block and
//! updates every element by one fused multiply-add per k-step,
//! `acc = fma(a, b, acc)`, starting from `+0.0`. It has three arms, one
//! picked per call by `std`'s cached CPUID probe ([`Arm::detect`]):
//! AVX-512F (8 ZMM accumulators), AVX2 + FMA (the 16-wide panel as two
//! 8-wide halves of 8 YMM accumulators each) and portable
//! [`f64::mul_add`]. IEEE 754's `fusedMultiplyAdd` is correctly rounded,
//! and libm's `fma` gives the hardware instruction's bits, so the three
//! arms — hence every host, with FMA hardware or without — return the
//! same bits. The portable arm is only slow: one libm call per step, under
//! 1 GFLOP/s. The tests run every arm the host has against the portable
//! one, word for word. The trsm and LU leaves run their loops on the same
//! arms, through [`Arm::run`].
//!
//! `beta` is applied to `C` once up front; the k-blocks then accumulate
//! with `+=`, and `alpha` is folded into the accumulator write-out, as a
//! separately rounded multiply and add (Rust never contracts `a * b + c`).
//!
//! [`MC`], [`KC`], [`NC`] and the serial/parallel crossover
//! [`PAR_MIN_MADDS`] are compile-time constants. `KC` fixes how each
//! element's partial sums over `k` are grouped, hence its floating-point
//! rounding, so every bit-identity pin in the repository depends on it.
//!
//! Both loop nests carve each `(jc, pc)` panel of `C` into the same work
//! items, disjoint `(row-tile × column-range)` windows, each packing its A
//! tile. The serial nest runs each item as it is carved. The parallel
//! nest, taken on a multi-thread pool from [`PAR_MIN_MADDS`] on, fans the
//! items out across the persistent rayon pool, with B packed once and
//! shared read-only. Every `C` element receives its `pc`-partial sums in
//! the same order from the same microkernel loop, so the two nests are
//! **bitwise identical**, at any thread count or item distribution.
//!
//! A product with [`Stairs`] — a staircase, or `trsm`'s right-hand-side
//! vectors with the terms where each can be nonzero — packs each panel of
//! `op(A)` rows and `op(B)` columns only over the terms of its K panel
//! where one of its rows (columns) can be nonzero, and runs each
//! microtile only over the terms where both its rows and its columns can.
//! Each term so skipped is an exact `±0.0` product (for finite operands)
//! at the head or tail of a panel sum that starts at `+0.0`: the sum never
//! reaches `-0.0`, so such a term leaves it as it is. No panel boundary
//! moves, so the result is the dense product's, bit for bit. A microtile
//! left with no term (only trsm's vectors, whose updates have `alpha =
//! -1`) is skipped: adding its `-0.0` would leave `C` as it is.

use std::cell::RefCell;
use std::ops::Range;

use rayon::prelude::*;

use super::{MatMut, Op, OpRef};

/// Microkernel tile height (rows of C per register block).
pub(super) const MR: usize = 4;
/// Microkernel tile width (columns of C per register block).
pub(super) const NR: usize = 16;
/// Macro-block rows: rows of packed A per L2-resident slab, and the
/// largest order `trsm` solves in its unblocked leaf.
pub(super) const MC: usize = 64;
/// Macro-block depth: k-extent of the packed panels (L1 reuse).
const KC: usize = 256;
/// `KC` for callers: the k-extent over which the packed engine sums one
/// partial product before adding it to `C`. A caller that knows its
/// operands are structurally zero over leading whole panels can drop them
/// from a multiple of this ([`super::gemm_staircase`]'s `origin`) without
/// changing a bit of the result: the remaining terms keep their grouping.
pub const K_PANEL: usize = KC;
/// Macro-block columns: outermost B panel width.
const NC: usize = 4096;
/// Serial/parallel crossover in multiply-adds: products with `m·k·n`
/// below this stay serial (fan-out overhead beats the win).
const PAR_MIN_MADDS: usize = 1 << 21;

/// One instantiation of the microkernel. Every arm computes each step as
/// one correctly rounded `fma(a, b, acc)` on an accumulator that starts
/// at `+0.0`, in ascending `k`, so all three return the same bits; they
/// differ only in how many lanes one instruction covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Arm {
    /// `f64::mul_add` on the baseline target features: a call to libm's
    /// `fma` on x86-64, correctly rounded with or without an FMA unit.
    Portable,
    /// AVX2 + FMA: the 16-wide panel as two 8-wide halves, each held in
    /// 8 YMM accumulators over the whole `kc` loop.
    Avx2Fma,
    /// AVX-512F: the whole tile in 8 ZMM accumulators.
    Avx512,
}

impl Arm {
    /// Whether this host can run the arm (CPUID, cached by `std`).
    pub(super) fn available(self) -> bool {
        match self {
            Arm::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Arm::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Arm::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest arm this host has.
    pub(super) fn detect() -> Arm {
        [Arm::Avx512, Arm::Avx2Fma]
            .into_iter()
            .find(|arm| arm.available())
            .unwrap_or(Arm::Portable)
    }

    /// Runs `body` compiled for this arm's target features: under the wide
    /// arms every [`f64::mul_add`] it inlines is one FMA instruction, under
    /// the portable arm a call to libm's `fma`. The trsm and LU leaves run
    /// through this; the microkernel has intrinsics of its own.
    ///
    /// # Panics
    /// If the arm is not [`available`](Self::available) on this host.
    #[inline]
    pub(super) fn run<F: Fused>(self, body: F) -> F::Out {
        assert!(self.available(), "{self:?} leaf on a host without it");
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the assert above confirmed the CPU has AVX2 and FMA,
            // the features `run_avx2` is compiled for.
            Arm::Avx2Fma => unsafe { run_avx2(body) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, for AVX-512F.
            Arm::Avx512 => unsafe { run_avx512(body) },
            _ => body.run(),
        }
    }

    /// The `MR x NR` product of one packed A panel (`kc` groups of MR
    /// values) and one packed B panel (`kc` groups of NR values).
    ///
    /// The arm must be [`available`](Self::available) on this host.
    #[inline]
    fn micro(self, ap: &[f64], bp: &[f64]) -> [[f64; NR]; MR] {
        debug_assert_eq!(ap.len() / MR, bp.len() / NR);
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: every caller passes an arm that `available()`
            // confirmed (`run_packed` asserts it), i.e. the CPU has AVX2
            // and FMA, the features `micro_avx2` is compiled for.
            Arm::Avx2Fma => unsafe { micro_avx2(ap, bp) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above, for AVX-512F and `micro_avx512`.
            Arm::Avx512 => unsafe { micro_avx512(ap, bp) },
            _ => micro_portable(ap, bp),
        }
    }
}

impl Arm {
    /// Writes the 4 x 4 block `src` transposed, its column `q` to
    /// `dst[q * stride..][..4]`: four loads, four stores and the shuffles
    /// between them, in registers on the wide arms.
    ///
    /// The arm must be [`available`](Self::available) on this host.
    #[inline(always)]
    fn transpose4(self, src: [&[f64; 4]; 4], dst: &mut [f64], stride: usize) {
        let dst = &mut dst[..3 * stride + 4];
        match self {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as for `micro`, the arm is one `available()`
            // confirmed (`run_packed` asserts it), so the CPU has AVX, the
            // feature `transpose4_avx` is compiled for.
            Arm::Avx2Fma | Arm::Avx512 => unsafe { transpose4_avx(src, dst, stride) },
            _ => {
                for q in 0..4 {
                    for (r, row) in src.iter().enumerate() {
                        dst[q * stride + r] = row[q];
                    }
                }
            }
        }
    }
}

/// [`Arm::transpose4`] on YMM registers: two rounds of shuffles, within
/// 128-bit lanes and then across them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn transpose4_avx(src: [&[f64; 4]; 4], dst: &mut [f64], stride: usize) {
    use std::arch::x86_64::{_mm256_loadu_pd, _mm256_permute2f128_pd, _mm256_storeu_pd};
    use std::arch::x86_64::{_mm256_unpackhi_pd, _mm256_unpacklo_pd};

    // SAFETY: each row of `src` holds 4 f64s (unaligned loads need no
    // alignment).
    let [r0, r1, r2, r3] = src.map(|row| unsafe { _mm256_loadu_pd(row.as_ptr()) });
    // [a0 b0 a2 b2], [a1 b1 a3 b3], and the same of rows 2 and 3.
    let (t0, t1) = (_mm256_unpacklo_pd(r0, r1), _mm256_unpackhi_pd(r0, r1));
    let (t2, t3) = (_mm256_unpacklo_pd(r2, r3), _mm256_unpackhi_pd(r2, r3));
    let columns = [
        _mm256_permute2f128_pd::<0x20>(t0, t2),
        _mm256_permute2f128_pd::<0x20>(t1, t3),
        _mm256_permute2f128_pd::<0x31>(t0, t2),
        _mm256_permute2f128_pd::<0x31>(t1, t3),
    ];
    for (q, column) in columns.into_iter().enumerate() {
        let out = &mut dst[q * stride..q * stride + 4];
        // SAFETY: `out` holds 4 f64s.
        unsafe { _mm256_storeu_pd(out.as_mut_ptr(), column) };
    }
}

/// A loop to compile once per [`Arm`]. `run` must be `#[inline(always)]`,
/// so that its body lands inside each arm's `#[target_feature]` frame.
pub(super) trait Fused {
    /// What the loop returns.
    type Out;
    /// The loop itself.
    fn run(self) -> Self::Out;
}

/// [`Fused::run`] compiled for AVX2 + FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn run_avx2<F: Fused>(body: F) -> F::Out {
    body.run()
}

/// [`Fused::run`] compiled for AVX-512F (which implies FMA).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn run_avx512<F: Fused>(body: F) -> F::Out {
    body.run()
}

/// Portable arm: `acc = a.mul_add(b, acc)` per element and step.
fn micro_portable(ap: &[f64], bp: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0; NR]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for (accr, &ar) in acc.iter_mut().zip(a) {
            for (accj, &bj) in accr.iter_mut().zip(b) {
                *accj = ar.mul_add(bj, *accj);
            }
        }
    }
    acc
}

/// AVX2 + FMA arm: `vfmadd231pd` on YMM registers. A 4 x 16 tile would
/// need all 16 YMM registers for accumulators alone, so the arm runs the
/// `kc` loop once per 8-column half (8 accumulators, two B loads and an A
/// broadcast per step). Each element still sees its `kc` steps in order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
fn micro_avx2(ap: &[f64], bp: &[f64]) -> [[f64; NR]; MR] {
    use std::arch::x86_64::{_mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd};
    use std::arch::x86_64::{_mm256_setzero_pd, _mm256_storeu_pd};

    let mut out = [[0.0; NR]; MR];
    for half in 0..NR / 8 {
        let mut acc = [[_mm256_setzero_pd(); 2]; MR];
        for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
            let b = &b[half * 8..half * 8 + 8];
            // SAFETY: `b` holds 8 f64s; the loads read `b[0..4]` and
            // `b[4..8]` (unaligned loads need no alignment).
            let (b0, b1) = unsafe {
                (
                    _mm256_loadu_pd(b.as_ptr()),
                    _mm256_loadu_pd(b[4..].as_ptr()),
                )
            };
            for (accr, &ar) in acc.iter_mut().zip(a) {
                let ar = _mm256_set1_pd(ar);
                accr[0] = _mm256_fmadd_pd(ar, b0, accr[0]);
                accr[1] = _mm256_fmadd_pd(ar, b1, accr[1]);
            }
        }
        for (outr, accr) in out.iter_mut().zip(&acc) {
            let dst = &mut outr[half * 8..half * 8 + 8];
            // SAFETY: `dst` holds 8 f64s; the stores write `dst[0..4]`
            // and `dst[4..8]`.
            unsafe {
                _mm256_storeu_pd(dst.as_mut_ptr(), accr[0]);
                _mm256_storeu_pd(dst[4..].as_mut_ptr(), accr[1]);
            }
        }
    }
    out
}

/// AVX-512F arm: `vfmadd231pd` on ZMM registers, the 4 x 16 tile in 8
/// accumulators (two per row), one pass over `kc`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn micro_avx512(ap: &[f64], bp: &[f64]) -> [[f64; NR]; MR] {
    use std::arch::x86_64::{_mm512_fmadd_pd, _mm512_loadu_pd, _mm512_set1_pd};
    use std::arch::x86_64::{_mm512_setzero_pd, _mm512_storeu_pd};

    let mut acc = [[_mm512_setzero_pd(); 2]; MR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        // SAFETY: `b` holds NR = 16 f64s; the loads read `b[0..8]` and
        // `b[8..16]` (unaligned loads need no alignment).
        let (b0, b1) = unsafe {
            (
                _mm512_loadu_pd(b.as_ptr()),
                _mm512_loadu_pd(b[8..].as_ptr()),
            )
        };
        for (accr, &ar) in acc.iter_mut().zip(a) {
            let ar = _mm512_set1_pd(ar);
            accr[0] = _mm512_fmadd_pd(ar, b0, accr[0]);
            accr[1] = _mm512_fmadd_pd(ar, b1, accr[1]);
        }
    }
    let mut out = [[0.0; NR]; MR];
    for (outr, accr) in out.iter_mut().zip(&acc) {
        // SAFETY: `outr` holds NR = 16 f64s; the stores write `outr[0..8]`
        // and `outr[8..16]`.
        unsafe {
            _mm512_storeu_pd(outr.as_mut_ptr(), accr[0]);
            _mm512_storeu_pd(outr[8..].as_mut_ptr(), accr[1]);
        }
    }
    out
}

/// One operand's panels, packed k-major for the microkernel: the
/// `W`-wide panels (`MR` rows of `op(A)`, or `NR` columns of `op(B)`) of
/// the logical `len x kc` or `kc x len` block at `(at, pc)`, each over the
/// terms its `span` gives (of `0..kc`), zero-padded past `len`. Panel `r`
/// holds indices `at + r*W ..` in `buf[r*W*kc..]`, term `p` at `p*W`. As
/// one loop for [`Arm::run`], which returns the elements written.
struct Pack<'a, S, const W: usize> {
    arm: Arm,
    op: OpRef<'a>,
    at: usize,
    len: usize,
    pc: usize,
    kc: usize,
    span: S,
    buf: &'a mut [f64],
}

impl<S: Fn(Range<usize>) -> Range<usize>, const W: usize> Fused for Pack<'_, S, W> {
    type Out = usize;

    #[inline(always)]
    fn run(self) -> usize {
        let Pack {
            arm,
            op,
            at,
            len,
            pc,
            kc,
            span,
            buf,
        } = self;
        // Stored rows hold the panel's indices (NoTrans A, Trans B) or its
        // terms (Trans A, NoTrans B).
        let across = (W == MR) == (op.op() == Op::NoTrans);
        let mut written = 0;
        for (panel, chunk) in buf.chunks_exact_mut(W * kc).enumerate() {
            let i0 = at + panel * W;
            let live = W.min(at + len - i0);
            let s = span(i0..i0 + live);
            if across {
                // Index r's terms are stored row r: whole quartets of rows
                // and terms by in-register transposes, the rest one by one.
                let src = |r: usize| &op.stored_row(i0 + r)[pc..pc + kc];
                let (rows, terms) = (live / 4 * 4, s.start + s.len() / 4 * 4);
                for r0 in (0..rows).step_by(4) {
                    let four = [src(r0), src(r0 + 1), src(r0 + 2), src(r0 + 3)];
                    for p in (s.start..terms).step_by(4) {
                        let at = |r: usize| four[r][p..p + 4].try_into().expect("four terms");
                        arm.transpose4([at(0), at(1), at(2), at(3)], &mut chunk[p * W + r0..], W);
                    }
                }
                for r in 0..live {
                    let rest = if r < rows { terms..s.end } else { s.clone() };
                    for p in rest {
                        chunk[p * W + r] = src(r)[p];
                    }
                }
            } else {
                // Term p's indices are stored row p: copy it.
                for p in s.clone() {
                    let row = &op.stored_row(pc + p)[i0..i0 + live];
                    match <&[f64; W]>::try_from(row) {
                        Ok(whole) => chunk[p * W..(p + 1) * W].copy_from_slice(whole),
                        Err(_) => chunk[p * W..p * W + live].copy_from_slice(row),
                    }
                }
            }
            if live < W {
                for p in s.clone() {
                    chunk[p * W + live..(p + 1) * W].fill(0.0);
                }
            }
            written += W * s.len();
        }
        written
    }
}

/// Where the rows of `op(A)`, or the columns of `op(B)`, can be nonzero
/// along the product's terms. Term `p` of a `k`-term window stands for
/// index `origin + p` of the whole product ([`Stairs::origin`]).
#[derive(Debug, Clone, Copy)]
pub(super) enum Steps<'a> {
    /// Every index can be nonzero on every term.
    All,
    /// Index `i` is zero before index `row0 + i`: a staircase.
    From(usize),
    /// Index `i` is zero before index `first[i]` (throughout at
    /// `usize::MAX`): a forward solve's right-hand-side vectors.
    Head(&'a [usize]),
    /// Index `i` is zero from window term `origin + k - first[i]` on: a
    /// backward solve's vectors, whose window runs against solve order
    /// (term `p` is solve step `origin + k - 1 - p`).
    Tail(&'a [usize]),
}

impl Steps<'_> {
    /// The terms of a `k`-term window on which some index of `idx` (not
    /// empty) can be nonzero.
    #[inline]
    fn span(self, idx: Range<usize>, origin: usize, k: usize) -> Range<usize> {
        let head = |first: usize| first.saturating_sub(origin).min(k);
        match self {
            Steps::All => 0..k,
            Steps::From(row0) => head(row0 + idx.start)..k,
            Steps::Head(first) => first[idx].iter().map(|&f| head(f)).min().unwrap_or(k)..k,
            Steps::Tail(first) => 0..first[idx].iter().map(|&f| k - head(f)).max().unwrap_or(0),
        }
    }

    /// How many leading indices can be nonzero before window term `end`.
    fn live(self, origin: usize, end: usize) -> usize {
        match self {
            Steps::From(row0) => origin.saturating_add(end).saturating_sub(row0),
            Steps::All | Steps::Head(_) | Steps::Tail(_) => usize::MAX,
        }
    }
}

/// The terms on which each row of `op(A)` and each column of `op(B)` can
/// be nonzero, as [`super::gemm_staircase`] and `trsm`'s coupling updates
/// know them: the window's term `p` is index `origin + p`.
#[derive(Debug, Clone, Copy)]
pub(super) struct Stairs<'a> {
    pub(super) a: Steps<'a>,
    pub(super) b: Steps<'a>,
    pub(super) origin: usize,
}

impl Stairs<'static> {
    /// A dense product.
    pub(super) const DENSE: Stairs<'static> = Stairs {
        a: Steps::All,
        b: Steps::All,
        origin: 0,
    };
}

/// Runs the two inner register-tile loops for one packed (A block, B panel)
/// pair, adding `alpha * acc` into `c`, the `mc x nc` window of C the pair
/// covers, each microtile over the terms where both its rows (`a_span`)
/// and its columns (`b_span`, indices local to `c`) can be nonzero.
/// Returns the multiply-adds run on elements of `c`.
fn macro_kernel(
    arm: Arm,
    abuf: &[f64],
    bbuf: &[f64],
    alpha: f64,
    a_span: impl Fn(Range<usize>) -> Range<usize>,
    b_span: impl Fn(Range<usize>) -> Range<usize>,
    c: &mut MatMut<'_>,
) -> u64 {
    let (mc, nc) = (c.rows(), c.cols());
    let kc = abuf.len() / (mc.div_ceil(MR) * MR);
    let mut a_spans = [const { 0..0 }; MC / MR];
    for (apanel, s) in a_spans.iter_mut().take(mc.div_ceil(MR)).enumerate() {
        let i0 = apanel * MR;
        *s = a_span(i0..i0 + MR.min(mc - i0));
    }
    let mut madds = 0;
    for (bpanel, bchunk) in bbuf.chunks_exact(NR * kc).enumerate() {
        let j0 = bpanel * NR;
        let jw = NR.min(nc - j0);
        let bs = b_span(j0..j0 + jw);
        for ((apanel, achunk), s) in abuf.chunks_exact(MR * kc).enumerate().zip(&a_spans) {
            let i0 = apanel * MR;
            let iw = MR.min(mc - i0);
            let (p0, p1) = (s.start.max(bs.start), s.end.min(bs.end));
            if p0 >= p1 {
                continue;
            }
            let acc = arm.micro(&achunk[p0 * MR..p1 * MR], &bchunk[p0 * NR..p1 * NR]);
            madds += (iw * jw * (p1 - p0)) as u64;
            for (r, accr) in acc.iter().enumerate().take(iw) {
                let crow = &mut c.row_mut(i0 + r)[j0..j0 + jw];
                for (cv, av) in crow.iter_mut().zip(accr) {
                    *cv += alpha * av;
                }
            }
        }
    }
    madds
}

/// Carves `c`, one `(jc, pc)` panel's live block of C, into work items of
/// one `MC`-row tile by `per` NR-wide B panels: disjoint windows, so items
/// can run concurrently. Calls `each(ic, panels, tile)` for each in turn.
fn carve<'c>(c: MatMut<'c>, per: usize, mut each: impl FnMut(usize, Range<usize>, MatMut<'c>)) {
    let (m, nc) = (c.rows(), c.cols());
    let panels = nc.div_ceil(NR);
    let mut below = c;
    for ic in (0..m).step_by(MC) {
        let (tile_rows, rest) = below.split_rows(MC.min(m - ic));
        below = rest;
        let mut right = tile_rows;
        for p0 in (0..panels).step_by(per) {
            let p1 = (p0 + per).min(panels);
            let (tile, rest) = right.split_cols((p1 * NR).min(nc) - p0 * NR);
            right = rest;
            each(ic, p0..p1, tile);
        }
    }
}

thread_local! {
    /// Per-thread A-packing buffer for the parallel loop nest, reused
    /// across work items and calls (bounded by mc·kc floats per thread).
    static ABUF: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Whether `op(A)·op(B)` runs on the parallel loop nest: on a pool wider
/// than one thread, from [`PAR_MIN_MADDS`] multiply-adds on.
pub(super) fn parallel_pays(a: &OpRef<'_>, b: &OpRef<'_>) -> bool {
    rayon::current_num_threads() > 1 && a.rows() * a.cols() * b.cols() >= PAR_MIN_MADDS
}

/// The packed engine proper, with an explicit microkernel arm and loop
/// nest (see the module docs). `beta` must already have been applied to
/// `C`. Returns the multiply-adds run on elements of `C`.
///
/// # Panics
/// If `arm` is not [`available`](Arm::available) on this host.
pub(super) fn run_packed(
    arm: Arm,
    parallel: bool,
    alpha: f64,
    a: OpRef<'_>,
    b: OpRef<'_>,
    stairs: Stairs,
    mut c: MatMut<'_>,
) -> u64 {
    assert!(arm.available(), "{arm:?} microkernel on a host without it");
    super::perf::record_packed_path(parallel);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return 0;
    }
    // One buffer per operand per call, not kept (that would raise resident
    // memory); the parallel nest packs A into its per-thread `ABUF`. A short
    // buffer is swapped for a zeroed one; the microkernel reads only the
    // slots packing wrote.
    let (mut bbuf, mut abuf) = (Vec::new(), Vec::new());
    // Kernel perf counters want the packing/microkernel time split;
    // resolve the gate once so disabled runs never read a clock.
    let perf_on = super::perf::is_enabled();
    let mut madds = 0;

    let origin = stairs.origin;
    for jc in (0..n).step_by(NC) {
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let mr = m.min(stairs.a.live(origin, pc + kc));
            let nc = NC
                .min(n - jc)
                .min(stairs.b.live(origin, pc + kc).saturating_sub(jc));
            if mr == 0 || nc == 0 {
                continue;
            }
            // No live element has a nonzero term outside `pc..end`.
            let (sa, sb) = (
                stairs.a.span(0..mr, origin, k),
                stairs.b.span(jc..jc + nc, origin, k),
            );
            let (pc, end) = (
                sa.start.max(sb.start).max(pc),
                sa.end.min(sb.end).min(pc + kc),
            );
            if pc >= end {
                continue;
            }
            let kc = end - pc;
            // The terms of this panel on which rows (columns) `idx` can be
            // nonzero.
            let clip = |s: Range<usize>| {
                let lo = s.start.clamp(pc, end);
                lo - pc..s.end.clamp(lo, end) - pc
            };
            let a_span = |idx| clip(stairs.a.span(idx, origin, k));
            let b_span = |idx| clip(stairs.b.span(idx, origin, k));

            let blen = nc.div_ceil(NR) * NR * kc;
            if bbuf.len() < blen {
                bbuf = vec![0.0; blen];
            }
            let tb = perf_on.then(std::time::Instant::now);
            let packed = arm.run(Pack::<_, NR> {
                arm,
                op: b,
                at: jc,
                len: nc,
                pc,
                kc,
                span: b_span,
                buf: &mut bbuf[..blen],
            });
            if let Some(tb) = tb {
                super::perf::record_pack(tb.elapsed(), packed);
            }
            let bpanel = &bbuf[..blen];

            // One work item: pack its A tile, multiply it by its B panels.
            let item = |ic, panels: Range<usize>, mut tile: MatMut<'_>, abuf: &mut Vec<f64>| {
                let mc = tile.rows();
                let alen = mc.div_ceil(MR) * MR * kc;
                if abuf.len() < alen {
                    *abuf = vec![0.0; alen];
                }
                let ta = perf_on.then(std::time::Instant::now);
                let packed = arm.run(Pack::<_, MR> {
                    arm,
                    op: a,
                    at: ic,
                    len: mc,
                    pc,
                    kc,
                    span: a_span,
                    buf: &mut abuf[..alen],
                });
                if let Some(ta) = ta {
                    super::perf::record_pack(ta.elapsed(), packed);
                }
                let j0 = jc + panels.start * NR;
                let b_sub = &bpanel[panels.start * NR * kc..panels.end * NR * kc];
                let tile_a = |r: Range<usize>| a_span(ic + r.start..ic + r.end);
                let tile_b = |c: Range<usize>| b_span(j0 + c.start..j0 + c.end);
                macro_kernel(arm, &abuf[..alen], b_sub, alpha, tile_a, tile_b, &mut tile)
            };
            let window = c.reborrow().window(0..mr, jc..jc + nc);
            let jr_panels = nc.div_ceil(NR);
            if parallel {
                // Few row tiles split the jr loop too; each split repacks
                // its A tile, O(mc·kc) against O(mc·kc·nc/splits) compute.
                let ic_tiles = mr.div_ceil(MC);
                let want_items = rayon::current_num_threads() * 2;
                let jr_splits = want_items
                    .div_ceil(ic_tiles)
                    .min(jr_panels.div_ceil(4))
                    .max(1);
                let mut items = Vec::with_capacity(ic_tiles * jr_splits);
                carve(window, jr_panels.div_ceil(jr_splits), |ic, panels, tile| {
                    items.push((ic, panels, tile))
                });
                madds += items
                    .into_par_iter()
                    .map(|(ic, panels, tile)| {
                        ABUF.with(|cell| item(ic, panels, tile, &mut cell.borrow_mut()))
                    })
                    .sum::<u64>();
            } else {
                carve(window, jr_panels, |ic, panels, tile| {
                    madds += item(ic, panels, tile, &mut abuf)
                });
            }
        }
    }
    madds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocking_constants_are_pinned() {
        // KC groups each element's partial sums over k, so it decides the
        // engine's floating-point bits; MC is also trsm's block size.
        // Changing any of the four moves every bit-identity pin at once.
        assert_eq!((MC, KC, NC, PAR_MIN_MADDS), (64, 256, 4096, 1 << 21));
    }
}
