//! In-place rectangular windows of row-major storage.
//!
//! [`MatRef`] and [`MatMut`] address a `rows x cols` rectangle of a
//! [`Matrix`] (or of another window) by pointer, extent and row stride, so
//! the kernels can read and update a sub-block where it lives instead of
//! copying it out and back. Windows are to a `Matrix` what `&[f64]` /
//! `&mut [f64]` sub-slices are to a `Vec`: the borrow checker sees one
//! shared or exclusive borrow of the parent for the window's lifetime, and
//! [`MatMut::split_rows`] / [`MatMut::split_cols`] hand out exclusive
//! windows over *disjoint* element sets.
//!
//! Column-split windows interleave in memory (row `i` of the left window is
//! followed by row `i` of the right one), which a pair of `&mut [f64]`
//! cannot express — hence the raw pointer. All `unsafe` of the window
//! mechanism lives in this file; every other kernel module goes through
//! [`MatRef::row`] / [`MatMut::row_mut`], which only ever materialize a
//! slice over one row of the window's own columns.

use std::marker::PhantomData;
use std::ops::Range;

use crate::dense::Matrix;

/// A shared, read-only window: element `(i, j)` of the window is element
/// `i * stride + j` past `ptr`.
///
/// Invariant (established by every constructor, relied on by `row`): for
/// each `i < rows`, the `cols` elements starting at `ptr + i * stride` lie
/// inside one live allocation that is not written through any other path
/// for the lifetime `'a`.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    ptr: *const f64,
    rows: usize,
    cols: usize,
    stride: usize,
    _borrow: PhantomData<&'a [f64]>,
}

// SAFETY: a MatRef is a shared borrow of `f64` elements (the invariant
// above forbids concurrent writers), exactly like `&[f64]`, which is Send.
unsafe impl Send for MatRef<'_> {}
// SAFETY: as above — `&MatRef` only permits reads of plain `f64` data.
unsafe impl Sync for MatRef<'_> {}

/// An exclusive, writable window with the same addressing as [`MatRef`].
///
/// Invariant: as for [`MatRef`], and additionally no other live window or
/// reference reaches any of this window's elements for the lifetime `'a`.
pub(crate) struct MatMut<'a> {
    ptr: *mut f64,
    rows: usize,
    cols: usize,
    stride: usize,
    _borrow: PhantomData<&'a mut [f64]>,
}

// SAFETY: a MatMut is an exclusive borrow of its `f64` elements, like
// `&mut [f64]` (Send); sending it moves that exclusivity with it.
unsafe impl Send for MatMut<'_> {}

fn check_range(what: &str, r: &Range<usize>, extent: usize) {
    assert!(
        r.start <= r.end && r.end <= extent,
        "window {what} {r:?} out of bounds for extent {extent}"
    );
}

impl<'a> From<&'a Matrix> for MatRef<'a> {
    fn from(m: &'a Matrix) -> Self {
        MatRef {
            ptr: m.as_slice().as_ptr(),
            rows: m.rows(),
            cols: m.cols(),
            stride: m.cols(),
            _borrow: PhantomData,
        }
    }
}

impl<'a> MatRef<'a> {
    /// Row count.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// The sub-window covering `rows` x `cols` of this one.
    ///
    /// # Panics
    /// If either range is reversed or exceeds the window.
    pub(crate) fn window(self, rows: Range<usize>, cols: Range<usize>) -> MatRef<'a> {
        check_range("rows", &rows, self.rows);
        check_range("cols", &cols, self.cols);
        MatRef {
            // Stays inside (or one past the end of) the parent's
            // allocation: wrapping_add keeps the offset computation safe
            // even for an empty window at the far corner.
            ptr: self.ptr.wrapping_add(rows.start * self.stride + cols.start),
            rows: rows.len(),
            cols: cols.len(),
            stride: self.stride,
            _borrow: PhantomData,
        }
    }

    /// Row `i` of the window.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &'a [f64] {
        assert!(i < self.rows, "row {i} out of {} window rows", self.rows);
        // SAFETY: i < rows, so by the type invariant the `cols` elements at
        // ptr + i*stride are inside a live allocation with no writer for
        // 'a; the slice covers only this window's own columns.
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.stride), self.cols) }
    }
}

impl<'a> From<&'a mut Matrix> for MatMut<'a> {
    fn from(m: &'a mut Matrix) -> Self {
        let (rows, cols) = m.shape();
        MatMut {
            ptr: m.as_mut_slice().as_mut_ptr(),
            rows,
            cols,
            stride: cols,
            _borrow: PhantomData,
        }
    }
}

impl<'a> MatMut<'a> {
    /// Row count.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// A shorter exclusive borrow of the same window.
    #[inline]
    pub(crate) fn reborrow(&mut self) -> MatMut<'_> {
        MatMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            stride: self.stride,
            _borrow: PhantomData,
        }
    }

    /// A read-only view of the same window for as long as `self` is
    /// (shared-)borrowed.
    #[inline]
    pub(crate) fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            stride: self.stride,
            _borrow: PhantomData,
        }
    }

    /// A window over `rows` x `cols` of this one that outlives `&self`.
    ///
    /// # Safety
    /// The caller must not let the result coexist with `self`, or with
    /// another carved window, over any common element.
    unsafe fn carve(&self, rows: Range<usize>, cols: Range<usize>) -> MatMut<'a> {
        check_range("rows", &rows, self.rows);
        check_range("cols", &cols, self.cols);
        MatMut {
            // See MatRef::window: the offset never leaves the allocation.
            ptr: self.ptr.wrapping_add(rows.start * self.stride + cols.start),
            rows: rows.len(),
            cols: cols.len(),
            stride: self.stride,
            _borrow: PhantomData,
        }
    }

    /// The sub-window covering `rows` x `cols` of this one.
    ///
    /// # Panics
    /// If either range is reversed or exceeds the window.
    pub(crate) fn window(self, rows: Range<usize>, cols: Range<usize>) -> MatMut<'a> {
        // SAFETY: `self` is consumed, so the carved window is the only one
        // left over its (sub)set of elements.
        unsafe { self.carve(rows, cols) }
    }

    /// Splits into the windows above and below row `at`.
    pub(crate) fn split_rows(self, at: usize) -> (MatMut<'a>, MatMut<'a>) {
        // SAFETY: `self` is consumed and the two windows cover disjoint row
        // ranges of it, so no element is reachable from both.
        unsafe {
            (
                self.carve(0..at, 0..self.cols),
                self.carve(at..self.rows, 0..self.cols),
            )
        }
    }

    /// Splits into the windows left and right of column `at`.
    pub(crate) fn split_cols(self, at: usize) -> (MatMut<'a>, MatMut<'a>) {
        // SAFETY: `self` is consumed and the two windows cover disjoint
        // column ranges: their rows interleave in memory but share no
        // element, and `row`/`row_mut` only ever slice a window's own
        // columns.
        unsafe {
            (
                self.carve(0..self.rows, 0..at),
                self.carve(0..self.rows, at..self.cols),
            )
        }
    }

    /// Row `i` of the window.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row {i} out of {} window rows", self.rows);
        // SAFETY: as in `row_mut`; a shared borrow of `self` rules out a
        // concurrent `row_mut` on this window.
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.stride), self.cols) }
    }

    /// Row `i` of the window, writable.
    #[inline]
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row {i} out of {} window rows", self.rows);
        // SAFETY: i < rows, so by the type invariant the `cols` elements at
        // ptr + i*stride are inside a live allocation that only this window
        // reaches for 'a, and `&mut self` makes the returned slice the only
        // live access to them; it covers only this window's own columns,
        // so a column-split sibling's elements are never included.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.stride), self.cols) }
    }
}
