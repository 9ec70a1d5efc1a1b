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
//! original layout or transposition — the transposed operand costs one
//! strided pass during packing, `O(m·k)`, instead of a strided access in
//! the `O(m·k·n)` inner loop. Edge tiles are zero-padded in the packed
//! buffers, so the microkernel never branches on ragged shapes.
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
//! With `parallel = true` and a multi-thread pool, the `ic` loop (and for
//! wide-but-short operands the `jr` loop too) fans out across the
//! persistent rayon pool: for each `(jc, pc)` iteration, B is packed once
//! and shared read-only, then work items covering disjoint
//! `(row-tile × column-range)` tiles of `C` run in parallel, each packing
//! its A tile into a thread-local buffer. Every `C` element still receives
//! its `pc`-partial sums in the same order as the serial nest, and each
//! partial sum is computed by the identical microkernel loop — so the
//! parallel path is **bitwise identical** to the serial path, regardless
//! of thread count or tile distribution. Products below the crossover
//! stay serial.

use std::cell::RefCell;

use rayon::prelude::*;

use super::{scale_by_beta, GemmBackend, MatMut, Op, OpRef, Result};

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
/// operands are structurally zero over leading whole panels can window
/// them away (`super::OpRef::window`) from a multiple of this without
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

/// Packs the `mc x kc` block of `op(A)` with top-left logical corner
/// `(ic, pc)` into MR-row panels: panel `r` holds logical rows
/// `ic + r*MR ..`, laid out k-major (`kc` groups of MR values). Rows past
/// `mc` are zero-padded.
fn pack_a(a: OpRef<'_>, ic: usize, mc: usize, pc: usize, kc: usize, buf: &mut [f64]) {
    debug_assert_eq!(buf.len(), mc.div_ceil(MR) * MR * kc);
    for (panel, chunk) in buf.chunks_exact_mut(MR * kc).enumerate() {
        let r0 = ic + panel * MR;
        let live = MR.min(ic + mc - r0);
        match a.op() {
            Op::NoTrans => {
                // Rows of the stored window stream; writes stride by MR.
                for r in 0..live {
                    let row = &a.stored_row(r0 + r)[pc..pc + kc];
                    for (p, &v) in row.iter().enumerate() {
                        chunk[p * MR + r] = v;
                    }
                }
            }
            Op::Trans => {
                // Logical row r is stored column r: for each stored row p,
                // both the read (row[r0..]) and the write (p*MR..) are
                // contiguous.
                for p in 0..kc {
                    let row = &a.stored_row(pc + p)[r0..r0 + live];
                    chunk[p * MR..p * MR + live].copy_from_slice(row);
                }
            }
        }
        if live < MR {
            for p in 0..kc {
                for r in live..MR {
                    chunk[p * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Packs the `kc x nc` block of `op(B)` with top-left logical corner
/// `(pc, jc)` into NR-column panels, k-major (`kc` groups of NR values).
/// Columns past `nc` are zero-padded.
fn pack_b(b: OpRef<'_>, pc: usize, kc: usize, jc: usize, nc: usize, buf: &mut [f64]) {
    debug_assert_eq!(buf.len(), nc.div_ceil(NR) * NR * kc);
    for (panel, chunk) in buf.chunks_exact_mut(NR * kc).enumerate() {
        let j0 = jc + panel * NR;
        let live = NR.min(jc + nc - j0);
        match b.op() {
            Op::NoTrans => {
                for p in 0..kc {
                    let row = &b.stored_row(pc + p)[j0..j0 + live];
                    chunk[p * NR..p * NR + live].copy_from_slice(row);
                }
            }
            Op::Trans => {
                // Logical column j is stored row j: stream it, scattering
                // with stride NR.
                for j in 0..live {
                    let row = &b.stored_row(j0 + j)[pc..pc + kc];
                    for (p, &v) in row.iter().enumerate() {
                        chunk[p * NR + j] = v;
                    }
                }
            }
        }
        if live < NR {
            for p in 0..kc {
                for j in live..NR {
                    chunk[p * NR + j] = 0.0;
                }
            }
        }
    }
}

/// Runs the two inner register-tile loops for one packed (A block, B panel)
/// pair, adding `alpha * acc` into `c`, the `mc x nc` window of C the pair
/// covers. The serial nest and every work item of the parallel nest run
/// this same function on their own window.
fn macro_kernel(arm: Arm, abuf: &[f64], bbuf: &[f64], kc: usize, alpha: f64, c: &mut MatMut<'_>) {
    let (mc, nc) = (c.rows(), c.cols());
    for (bpanel, bchunk) in bbuf.chunks_exact(NR * kc).enumerate() {
        let j0 = bpanel * NR;
        let jw = NR.min(nc - j0);
        for (apanel, achunk) in abuf.chunks_exact(MR * kc).enumerate() {
            let i0 = apanel * MR;
            let iw = MR.min(mc - i0);
            let acc = arm.micro(achunk, bchunk);
            for (r, accr) in acc.iter().enumerate().take(iw) {
                let crow = &mut c.row_mut(i0 + r)[j0..j0 + jw];
                for (cv, av) in crow.iter_mut().zip(accr) {
                    *cv += alpha * av;
                }
            }
        }
    }
}

thread_local! {
    /// Per-thread A-packing buffer for the parallel loop nest, reused
    /// across work items and calls (bounded by mc·kc floats per thread).
    static ABUF: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// The packed engine proper, with an explicit microkernel arm and
/// serial/parallel choice. `beta` must already have been applied to `C`
/// by the caller ([`GemmBackend::gemm_checked`] does).
///
/// The parallel and serial paths produce **bitwise identical** results:
/// both accumulate each C element's `pc`-partial sums in the same
/// outer-loop order, computed by the same microkernel. So do all arms.
///
/// # Panics
/// If `arm` is not [`available`](Arm::available) on this host.
pub(super) fn run_packed(
    arm: Arm,
    parallel: bool,
    name: &'static str,
    alpha: f64,
    a: OpRef<'_>,
    b: OpRef<'_>,
    mut c: MatMut<'_>,
) {
    assert!(arm.available(), "{arm:?} microkernel on a host without it");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }
    // One buffer per operand for the whole call (the parallel nest packs A
    // into its per-thread `ABUF`): packing writes every slot it later
    // reads, padding included, so no panel needs a fresh, zeroed one.
    // Buffers kept across calls would add their size to the process's
    // resident high-water mark.
    let mut bbuf = vec![0.0; n.min(NC).div_ceil(NR) * NR * k.min(KC)];
    let mut abuf = if parallel {
        Vec::new()
    } else {
        vec![0.0; MC.min(m).div_ceil(MR) * MR * k.min(KC)]
    };
    // Kernel perf counters want the packing/microkernel time split;
    // resolve the gate once so disabled runs never read a clock.
    let perf_on = super::perf::is_enabled();

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            let blen = nc.div_ceil(NR) * NR * kc;
            let tb = perf_on.then(std::time::Instant::now);
            pack_b(b, pc, kc, jc, nc, &mut bbuf[..blen]);
            if let Some(tb) = tb {
                super::perf::record_pack(name, tb.elapsed());
            }
            let bpanel = &bbuf[..blen];

            if parallel {
                // Fan the macro-tile grid out across the persistent pool:
                // one work item per (A row-tile × B column-range), each
                // packing its own A tile into a thread-local buffer. Wide-
                // but-short operands (few row tiles) split the jr loop so
                // every thread still gets work; an item covering a split
                // repacks its A tile, which is O(mc·kc) against the item's
                // O(mc·kc·nc/splits) compute.
                let ic_tiles = m.div_ceil(MC);
                let jr_panels = nc.div_ceil(NR);
                let want_items = rayon::current_num_threads() * 2;
                let jr_splits = if ic_tiles >= want_items {
                    1
                } else {
                    want_items
                        .div_ceil(ic_tiles)
                        .min(jr_panels.div_ceil(4))
                        .max(1)
                };
                let panels_per = jr_panels.div_ceil(jr_splits);
                // Carve this panel's columns of C into one exclusive
                // window per item: disjoint by construction, so the items
                // can write concurrently.
                let mut items = Vec::with_capacity(ic_tiles * jr_splits);
                let mut below = c.reborrow().window(0..m, jc..jc + nc);
                for t in 0..ic_tiles {
                    let (tile_rows, rest) = below.split_rows(MC.min(m - t * MC));
                    below = rest;
                    let mut right = tile_rows;
                    let mut p0 = 0;
                    while p0 < jr_panels {
                        let p1 = (p0 + panels_per).min(jr_panels);
                        let (tile, rest) = right.split_cols((p1 * NR).min(nc) - p0 * NR);
                        right = rest;
                        items.push((t * MC, p0, p1, tile));
                        p0 = p1;
                    }
                }
                items.into_par_iter().for_each(|(ic, p0, p1, mut tile)| {
                    let mc = tile.rows();
                    ABUF.with(|cell| {
                        let mut abuf = cell.borrow_mut();
                        let alen = mc.div_ceil(MR) * MR * kc;
                        if abuf.len() < alen {
                            abuf.resize(alen, 0.0);
                        }
                        let ta = perf_on.then(std::time::Instant::now);
                        pack_a(a, ic, mc, pc, kc, &mut abuf[..alen]);
                        if let Some(ta) = ta {
                            super::perf::record_pack(name, ta.elapsed());
                        }
                        let b_sub = &bpanel[p0 * NR * kc..p1 * NR * kc];
                        macro_kernel(arm, &abuf[..alen], b_sub, kc, alpha, &mut tile);
                    });
                });
            } else {
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    let alen = mc.div_ceil(MR) * MR * kc;
                    let ta = perf_on.then(std::time::Instant::now);
                    pack_a(a, ic, mc, pc, kc, &mut abuf[..alen]);
                    if let Some(ta) = ta {
                        super::perf::record_pack(name, ta.elapsed());
                    }
                    let mut tile = c.reborrow().window(ic..ic + mc, jc..jc + nc);
                    macro_kernel(arm, &abuf[..alen], bpanel, kc, alpha, &mut tile);
                }
            }
        }
    }
}

impl GemmBackend for super::Packed {
    fn gemm_checked(
        &self,
        alpha: f64,
        a: OpRef<'_>,
        b: OpRef<'_>,
        beta: f64,
        mut c: MatMut<'_>,
    ) -> Result<()> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        scale_by_beta(&mut c, beta);
        if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
            return Ok(());
        }
        // Wide-but-short operands parallelize via jr-splitting, so `m`
        // alone never gates the nest: only the crossover and the
        // degenerate single-thread pool (where the serial nest is
        // strictly better) do.
        let use_par =
            self.parallel && rayon::current_num_threads() > 1 && m * k * n >= PAR_MIN_MADDS;
        if self.parallel {
            super::perf::record_packed_path(self.name(), use_par);
        }
        run_packed(Arm::detect(), use_par, self.name(), alpha, a, b, c);
        Ok(())
    }

    fn name(&self) -> &'static str {
        if self.parallel {
            "packed"
        } else {
            "packed-serial"
        }
    }
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
