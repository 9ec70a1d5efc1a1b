//! References to LU factors stored across many DFS files.
//!
//! With the Section 6.1 optimization the pipeline *never* combines factor
//! files: the final `L` is the union of every level's `L1`/`L2'`/`L3`
//! pieces, `N(d) = 2^d + (m0/2)(2^d − 1)` files in all, and readers
//! assemble what they need on the fly ("in our implementation, these files
//! are read into memory recursively"). [`FactorRef`] is the recursive
//! descriptor of that file forest; a node names its level's `L2'`/`U2`
//! stripe files with the [`MatrixSource`]s the level's reducers read.
//!
//! Assembly reads through the one accounted handle
//! ([`mrinv_mapreduce::TaskIo`]) and places every `U` / `Uᵀ` stripe and
//! leaf block with [`MatrixSource::read_into`]; only the `L2'` stripes,
//! whose rows land through `P2`, and the leaves of a packed assembly keep
//! a loop of their own over [`stored_block`]. Either way each stored row
//! is decoded straight into its place in the one output matrix. A packed
//! assembly ([`FactorRef::assemble_packed`]) is Algorithm 1's in-place
//! layout for the whole forest: one matrix holding `L` strictly below the
//! diagonal and `U` on and above it. Two subtleties every assembly
//! handles:
//!
//! * **pivoting** — the stored bottom-left stripes are `L2'`
//!   (pre-permutation); the true factor block is `L2 = P2·L2'`, so readers
//!   apply `P2` while assembling ("L2 is constructed only as it is read
//!   from HDFS", Section 5.3);
//! * **transposed storage** — upper factors live on disk transposed, as
//!   Section 6.3 stores them, whether or not that optimization is priced;
//!   [`FactorRef::assemble_u_t`] returns `Uᵀ` without ever materializing a
//!   row-major `U`, and only the packed assembly flips it.

use std::sync::Arc;

use mrinv_mapreduce::TaskIo;
use mrinv_matrix::{lu, Matrix, Permutation};
use serde::{de_field, DeError, Deserialize, Serialize, Value};

use crate::error::{CoreError, Result};
use crate::source::{expect_covered, inside, stored_block, write_block, MatrixSource, Piece};

/// Recursive descriptor of where a (unit-lower `L`, upper `U`, permutation
/// `P`) factor triple lives in the DFS.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FactorRef {
    /// A master-node-decomposed block of order at most `nb`: one file per
    /// factor.
    Leaf {
        /// Block order.
        n: usize,
        /// Path of the unit-lower factor (full dense block).
        l_path: String,
        /// Path of the upper factor, stored as `Uᵀ` (Section 6.3).
        u_path: String,
        /// Pivot permutation of this block.
        perm: Permutation,
    },
    /// An internal recursion node (Figure 1): factors of `A1`, the level's
    /// `L2'`/`U2` stripe files, and factors of `B`. The two sources are the
    /// ones the level's reducers read, unwindowed. The children are shared,
    /// so a copy of a node (a later level's mapper holds its `A1`) copies
    /// no subtree; build one with [`FactorRef::node`], which derives the
    /// node's permutations once.
    Node {
        /// Block order at this level.
        n: usize,
        /// Split point: `A1` has order `half`.
        half: usize,
        /// Factors of the top-left block.
        a1: Arc<FactorRef>,
        /// `L2'` (pre-permutation), `(n-half) × half`, one piece per row
        /// stripe.
        l2: MatrixSource,
        /// `U2` as stored: `U2ᵀ`, `(n-half) × half`, one piece per row
        /// stripe (Section 6.3).
        u2: MatrixSource,
        /// Factors of the updated bottom-right block `B`.
        b: Arc<FactorRef>,
        /// The full `P`: `P1` and `P2` augmented (Algorithm 2 line 11).
        perm: Permutation,
        /// `P2⁻¹`: stored row `r` of `L2'` is row `l2_dest[r]` of `L2`.
        l2_dest: Permutation,
    },
}

impl FactorRef {
    /// Order of the factored block.
    pub(crate) fn n(&self) -> usize {
        match self {
            FactorRef::Leaf { n, .. } | FactorRef::Node { n, .. } => *n,
        }
    }

    /// An internal node over its children, with its permutations derived
    /// here, once: `P` (the augmentation of `P1` and `P2`) and `P2⁻¹`, the
    /// row map its `L2'` stripes are placed by.
    pub(crate) fn node(
        n: usize,
        half: usize,
        a1: Arc<FactorRef>,
        l2: MatrixSource,
        u2: MatrixSource,
        b: Arc<FactorRef>,
    ) -> FactorRef {
        FactorRef::Node {
            n,
            half,
            perm: Permutation::augment(a1.perm(), b.perm()),
            l2_dest: b.perm().inverse(),
            a1,
            l2,
            u2,
            b,
        }
    }

    /// The full pivot permutation `P` (Algorithm 2 line 11: the
    /// augmentation of `P1` and `P2`, recursively).
    pub(crate) fn perm(&self) -> &Permutation {
        match self {
            FactorRef::Leaf { perm, .. } | FactorRef::Node { perm, .. } => perm,
        }
    }

    /// Every DFS path this forest references, in a deterministic order:
    /// what a finished run releases once it has packed the factors, or
    /// at once when nothing needs them.
    pub(crate) fn paths(&self) -> Vec<&str> {
        fn walk<'f>(f: &'f FactorRef, out: &mut Vec<&'f str>) {
            match f {
                FactorRef::Leaf { l_path, u_path, .. } => {
                    out.push(l_path);
                    out.push(u_path);
                }
                FactorRef::Node { a1, l2, u2, b, .. } => {
                    walk(a1, out);
                    out.extend(l2.paths());
                    out.extend(u2.paths());
                    walk(b, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Assembles the full unit-lower factor `L`, applying each level's
    /// `P2` to its `L2'` stripes.
    pub(crate) fn assemble_l(&self, io: &mut TaskIo) -> Result<Matrix> {
        self.assemble(io, Factor::L)
    }

    /// Assembles `Uᵀ` (lower-triangular), the form every upper factor is
    /// stored in: no file is flipped on the way in.
    pub(crate) fn assemble_u_t(&self, io: &mut TaskIo) -> Result<Matrix> {
        self.assemble(io, Factor::Ut)
    }

    /// Assembles `L` and `U` packed into one matrix — `L` strictly below
    /// the diagonal (its unit diagonal implicit), `U` on and above it —
    /// with the full `P`: what a solve substitutes through, in half the
    /// words of a dense `L` and `U`.
    ///
    /// The packed form drops each leaf's `L` diagonal and the zero
    /// triangle of each leaf file; a leaf whose dropped words are not
    /// exactly those (`1.0`, `+0.0`) is a [`CoreError::Invariant`] naming
    /// the file, since the packed form would read back other numbers.
    pub(crate) fn assemble_packed(&self, io: &mut TaskIo) -> Result<lu::LuFactors> {
        Ok(lu::LuFactors {
            lu: self.assemble(io, Factor::Lu)?,
            perm: self.perm().clone(),
        })
    }

    /// One allocation for the whole factor; every file of the forest is
    /// decoded once and written once, at its final position.
    fn assemble(&self, io: &mut TaskIo, factor: Factor) -> Result<Matrix> {
        let n = self.n();
        let mut out = Matrix::zeros(n, n);
        self.place(io, factor, &mut out, 0)?;
        Ok(out)
    }

    /// Writes this subtree's share of `factor` into `out`, whose diagonal
    /// block starting at `(at, at)` this subtree factors.
    fn place(&self, io: &mut TaskIo, factor: Factor, out: &mut Matrix, at: usize) -> Result<()> {
        if at + self.n() > out.rows() {
            return Err(CoreError::Invariant(format!(
                "factor block of order {} at {at} overruns its parent of order {}",
                self.n(),
                out.rows()
            )));
        }
        match self {
            FactorRef::Leaf {
                n, l_path, u_path, ..
            } => {
                if factor == Factor::Lu {
                    place_packed_leaf(io, *n, l_path, u_path, out, at)?;
                } else {
                    let path = if factor == Factor::L { l_path } else { u_path };
                    let whole = (0, *n);
                    MatrixSource::new((*n, *n), vec![Piece::new(path.clone(), whole, whole)])
                        .read_into(io, whole, whole, out, (at, at), factor.flips())?;
                }
            }
            FactorRef::Node {
                n,
                half,
                a1,
                l2,
                u2,
                b,
                l2_dest,
                ..
            } => {
                // The children's orders index `out` and `P2` below.
                let rest = b.n();
                if a1.n() != *half || *half + rest != *n {
                    return Err(CoreError::Invariant(format!(
                        "factor node of order {n} split at {half} has children of order {} and {rest}",
                        a1.n()
                    )));
                }
                let mid = at + *half;
                a1.place(io, factor, out, at)?;
                if matches!(factor, Factor::L | Factor::Lu) {
                    // L2 = P2·L2': stored row `r` of L2' is row `P2⁻¹[r]`
                    // of L2, so the stripes keep their own row map; like
                    // every read, they must cover their block exactly once.
                    let mut placed = 0;
                    for p in l2.pieces() {
                        if !inside(p.rows, p.cols, (rest, *half)) {
                            return Err(CoreError::Invariant(format!(
                                "stripe {} covers rows {:?} cols {:?}, outside its {rest}x{half} block",
                                p.path, p.rows, p.cols
                            )));
                        }
                        let bytes = io.read(&p.path)?;
                        let m = stored_block(&bytes, &p.path, (p.nrows(), p.ncols()))?;
                        for (k, r) in (p.rows.0..p.rows.1).enumerate() {
                            let row = out.row_mut(mid + l2_dest.source_of(r));
                            m.read_row(k, 0, &mut row[at + p.cols.0..at + p.cols.1]);
                        }
                        placed += p.nrows() * p.ncols();
                    }
                    let what = format_args!("a {rest}x{half} L2' block");
                    expect_covered(placed, rest * *half, what)?;
                }
                if factor != Factor::L {
                    // U2ᵀ sits below U1ᵀ; flipped, U2 sits right of U1.
                    let corner = if factor.flips() { (at, mid) } else { (mid, at) };
                    u2.read_into(io, (0, rest), (0, *half), out, corner, factor.flips())?;
                }
                b.place(io, factor, out, mid)?;
            }
        }
        Ok(())
    }

    /// The Section 6.1 ablation (`separate_intermediate_files = false`):
    /// serially combines this factor forest into two single files under
    /// `dir`, returning the equivalent [`FactorRef::Leaf`].
    ///
    /// The returned leaf's permutation is the full assembled `P`, and its
    /// `l.bin`/`u.bin` hold the permuted, combined `L` and `Uᵀ` — so
    /// downstream consumers behave identically; only the serial combine
    /// cost and the extra write I/O differ.
    pub(crate) fn combine(&self, io: &mut TaskIo, dir: &str) -> Result<FactorRef> {
        let l = self.assemble_l(io)?;
        let u_t = self.assemble_u_t(io)?;
        let leaf = FactorRef::write_leaf(io, dir, &l, &u_t, self.perm().clone());
        Ok(leaf)
    }

    /// Writes one block's factors, `L` and `Uᵀ`, as the two files of a
    /// leaf under `dir` and returns the leaf naming them.
    pub(crate) fn write_leaf(
        io: &mut TaskIo,
        dir: &str,
        l: &Matrix,
        u_t: &Matrix,
        perm: Permutation,
    ) -> FactorRef {
        let l_path = format!("{dir}/l.bin");
        let u_path = format!("{dir}/u.bin");
        write_block(io, &l_path, l);
        write_block(io, &u_path, u_t);
        FactorRef::Leaf {
            n: l.rows(),
            l_path,
            u_path,
            perm,
        }
    }
}

// Manual serde: the vendored derive cannot handle data-carrying enum
// variants, and `Permutation` (a foreign type) ships inline as its
// `S`-array so no orphan impl is needed.
impl Serialize for FactorRef {
    fn to_value(&self) -> Value {
        match self {
            FactorRef::Leaf {
                n,
                l_path,
                u_path,
                perm,
            } => Value::Object(vec![
                ("kind".to_string(), Value::String("leaf".to_string())),
                ("n".to_string(), n.to_value()),
                ("l_path".to_string(), l_path.to_value()),
                ("u_path".to_string(), u_path.to_value()),
                ("perm".to_string(), perm.as_slice().to_value()),
            ]),
            FactorRef::Node {
                n,
                half,
                a1,
                l2,
                u2,
                b,
                ..
            } => Value::Object(vec![
                ("kind".to_string(), Value::String("node".to_string())),
                ("n".to_string(), n.to_value()),
                ("half".to_string(), half.to_value()),
                ("a1".to_string(), a1.to_value()),
                ("l2".to_string(), l2.to_value()),
                ("u2".to_string(), u2.to_value()),
                ("b".to_string(), b.to_value()),
            ]),
        }
    }
}

impl Deserialize for FactorRef {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let kind: String = de_field(v, "kind")?;
        match kind.as_str() {
            "leaf" => {
                let n = de_field(v, "n")?;
                let perm = Permutation::from_vec(de_field(v, "perm")?)
                    .map_err(|e| DeError(format!("field \"perm\": {e}")))?;
                if perm.len() != n {
                    return Err(DeError(format!(
                        "field \"perm\": {} pivots for a leaf of order {n}",
                        perm.len()
                    )));
                }
                Ok(FactorRef::Leaf {
                    n,
                    l_path: de_field(v, "l_path")?,
                    u_path: de_field(v, "u_path")?,
                    perm,
                })
            }
            "node" => Ok(FactorRef::node(
                de_field(v, "n")?,
                de_field(v, "half")?,
                de_field(v, "a1")?,
                de_field(v, "l2")?,
                de_field(v, "u2")?,
                de_field(v, "b")?,
            )),
            other => Err(DeError(format!("unknown FactorRef kind {other:?}"))),
        }
    }
}

/// Places a leaf's two files into the packed matrix `out` at `(at, at)`:
/// `L`'s strict lower triangle, then `U`'s upper one (row `r` of `U` is
/// stored column `r` of `Uᵀ`). Every word the packed form drops is checked
/// to be the one it implies: `L`'s diagonal `1.0`, each file's other
/// triangle `+0.0`.
fn place_packed_leaf(
    io: &mut TaskIo,
    n: usize,
    l_path: &str,
    u_path: &str,
    out: &mut Matrix,
    at: usize,
) -> Result<()> {
    let misread = |path: &str, r: usize, what: &str| {
        CoreError::Invariant(format!(
            "file {path} holds {what} in stored row {r}, which the packed factors would drop"
        ))
    };
    fn zero(mut words: impl Iterator<Item = f64>) -> bool {
        words.all(|v| v.to_bits() == 0)
    }
    let bytes = io.read(l_path)?;
    let l = stored_block(&bytes, l_path, (n, n))?;
    for r in 0..n {
        if l.row(r, r..r + 1).ne([1.0]) {
            return Err(misread(l_path, r, "a diagonal word other than 1"));
        }
        if !zero(l.row(r, r + 1..n)) {
            return Err(misread(
                l_path,
                r,
                "a word other than +0 above the diagonal",
            ));
        }
        l.read_row(r, 0, &mut out.row_mut(at + r)[at..at + r]);
    }
    let bytes = io.read(u_path)?;
    let u = stored_block(&bytes, u_path, (n, n))?;
    for r in 0..n {
        if !zero(u.row(r, r + 1..n)) {
            return Err(misread(
                u_path,
                r,
                "a word other than +0 outside U's triangle",
            ));
        }
        for (i, v) in u.row(r, 0..r + 1).enumerate() {
            out[(at + i, at + r)] = v;
        }
    }
    Ok(())
}

/// Which matrix of the factor triple an assembly produces.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Factor {
    /// Unit-lower `L`.
    L,
    /// `Uᵀ` (lower-triangular).
    Ut,
    /// `L` and `U` packed in one matrix (Algorithm 1's layout).
    Lu,
}

impl Factor {
    /// Whether a `U` file is transposed on the way in: only the packed
    /// assembly, which places `U` itself, flips the stored `Uᵀ`.
    fn flips(self) -> bool {
        self == Factor::Lu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::write_piece;
    use mrinv_mapreduce::Dfs;
    use mrinv_matrix::block::{even_ranges, BlockRange};
    use mrinv_matrix::random::{random_invertible, random_unit_lower, random_upper};
    use std::sync::Arc;

    /// Stores a known (L, U, P) pair as a two-level FactorRef forest, each
    /// upper factor as `Uᵀ`.
    fn build_node(
        dfs: &Arc<Dfs>,
        l: &Matrix,
        u: &Matrix,
        p_top: &Permutation,
        p_bot: &Permutation,
        half: usize,
        stripes: usize,
    ) -> FactorRef {
        let n = l.rows();
        let mut io = TaskIo::new(dfs.clone());
        // Leaves for A1 and B.
        let l1 = l.block(BlockRange::new((0, half), (0, half))).unwrap();
        let u1 = u.block(BlockRange::new((0, half), (0, half))).unwrap();
        let l3 = l.block(BlockRange::new((half, n), (half, n))).unwrap();
        let u3 = u.block(BlockRange::new((half, n), (half, n))).unwrap();
        write_block(&mut io, "f/a1/l", &l1);
        write_block(&mut io, "f/a1/u", &u1.transpose());
        write_block(&mut io, "f/b/l", &l3);
        write_block(&mut io, "f/b/u", &u3.transpose());
        // L2 stripes are stored pre-permutation: L2' = P2^-1 L2.
        let l2 = l.block(BlockRange::new((half, n), (0, half))).unwrap();
        let l2p = p_bot.inverse().apply_rows(&l2);
        let mut l2_pieces = Vec::new();
        for (k, (r0, r1)) in even_ranges(n - half, stripes).into_iter().enumerate() {
            let path = format!("f/l2/{k}");
            let stripe = l2p.row_stripe(r0, r1).unwrap();
            l2_pieces.push(write_piece(&mut io, &path, r0, 0, &stripe));
        }
        let u2 = u.block(BlockRange::new((0, half), (half, n))).unwrap();
        let mut u2_pieces = Vec::new();
        for (k, (c0, c1)) in even_ranges(n - half, stripes).into_iter().enumerate() {
            let path = format!("f/u2/{k}");
            let stripe = u2.col_stripe(c0, c1).unwrap();
            u2_pieces.push(write_piece(&mut io, &path, c0, 0, &stripe.transpose()));
        }
        let a1 = FactorRef::Leaf {
            n: half,
            l_path: "f/a1/l".into(),
            u_path: "f/a1/u".into(),
            perm: p_top.clone(),
        };
        let b = FactorRef::Leaf {
            n: n - half,
            l_path: "f/b/l".into(),
            u_path: "f/b/u".into(),
            perm: p_bot.clone(),
        };
        let l2 = MatrixSource::new((n - half, half), l2_pieces);
        let u2 = MatrixSource::new((n - half, half), u2_pieces);
        FactorRef::node(n, half, Arc::new(a1), l2, u2, Arc::new(b))
    }

    fn shuffled_perm(n: usize, seed: u64) -> Permutation {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut s: Vec<usize> = (0..n).collect();
        s.shuffle(&mut rng);
        Permutation::from_vec(s).unwrap()
    }

    #[test]
    fn node_assembly_round_trips() {
        let dfs = Arc::new(Dfs::default());
        let n = 12;
        let half = 5;
        let l = random_unit_lower(n, 1);
        let u = random_upper(n, 2);
        let p1 = shuffled_perm(half, 3);
        let p2 = shuffled_perm(n - half, 4);
        let f = build_node(&dfs, &l, &u, &p1, &p2, half, 3);
        let mut io = TaskIo::new(dfs.clone());
        assert_eq!(f.n(), n);
        assert_eq!(f.assemble_l(&mut io).unwrap(), l);
        assert_eq!(f.assemble_u_t(&mut io).unwrap(), u.transpose());
        assert_eq!(f.perm(), &Permutation::augment(&p1, &p2));
        // The packed form unpacks to the dense assemblies' exact bits.
        let packed = f.assemble_packed(&mut io).unwrap();
        assert_eq!(packed.unit_lower(), l);
        assert_eq!(packed.upper(), u);
        assert_eq!(&packed.perm, f.perm());
        assert_eq!(
            f.paths().len(),
            2 * (1 + 3 + 1),
            "L and U: leaf, 3 stripes, leaf"
        );
    }

    #[test]
    fn leaf_round_trips() {
        let dfs = Arc::new(Dfs::default());
        let mut io = TaskIo::new(dfs.clone());
        let n = 6;
        let l = random_unit_lower(n, 5);
        let u = random_upper(n, 6);
        write_block(&mut io, "leaf/l", &l);
        write_block(&mut io, "leaf/u", &u.transpose());
        let f = FactorRef::Leaf {
            n,
            l_path: "leaf/l".into(),
            u_path: "leaf/u".into(),
            perm: shuffled_perm(n, 7),
        };
        assert_eq!(f.assemble_l(&mut io).unwrap(), l);
        assert_eq!(f.assemble_u_t(&mut io).unwrap(), u.transpose());
        assert_eq!(f.paths().len(), 2, "one L file, one U file");
    }

    /// A leaf whose files hold a word the packed form would drop — an `L`
    /// diagonal other than 1, anything but `+0` in either file's zero
    /// triangle — is refused naming the file, and the clean leaf packs to
    /// `L`'s strict lower and `U`'s upper triangle.
    #[test]
    fn packed_assembly_refuses_a_leaf_it_would_misread() {
        let n = 5;
        let l = random_unit_lower(n, 50);
        let u = random_upper(n, 51);
        let mut clean = u.clone();
        for i in 0..n {
            clean.row_mut(i)[..i].copy_from_slice(&l.row(i)[..i]);
        }
        let assemble = |l: &Matrix, u: &Matrix| {
            let dfs = Arc::new(Dfs::default());
            let mut io = TaskIo::new(dfs);
            let perm = Permutation::identity(n);
            let leaf = FactorRef::write_leaf(&mut io, "leaf", l, &u.transpose(), perm);
            leaf.assemble_packed(&mut io)
        };
        assert_eq!(assemble(&l, &u).unwrap().lu, clean);
        let edit = |m: &Matrix, at: (usize, usize), v: f64| {
            let mut m = m.clone();
            m[at] = v;
            m
        };
        for (bad_l, bad_u, file) in [
            (edit(&l, (2, 2), 0.5), u.clone(), "leaf/l.bin"),
            (edit(&l, (1, 3), 1e-300), u.clone(), "leaf/l.bin"),
            (edit(&l, (0, 4), -0.0), u.clone(), "leaf/l.bin"),
            (l.clone(), edit(&u, (4, 1), 2.0), "leaf/u.bin"),
            (l.clone(), edit(&u, (3, 0), f64::NAN), "leaf/u.bin"),
        ] {
            match assemble(&bad_l, &bad_u) {
                Err(CoreError::Invariant(msg)) => {
                    assert!(msg.contains(file), "{msg} names {file}")
                }
                other => panic!("{file}: {other:?}"),
            }
        }
    }

    /// A stored leaf's pivots are checked on the way in: a repeated or
    /// out-of-range entry, or an array of the wrong order, is a decode
    /// error naming the field, not a `FactorRef` that indexes out of bounds.
    #[test]
    fn leaf_pivots_are_checked_when_decoded() {
        let leaf = |n: usize, perm: Vec<usize>| {
            let mut v = FactorRef::Leaf {
                n,
                l_path: "l".into(),
                u_path: "u".into(),
                perm: Permutation::identity(perm.len()),
            }
            .to_value();
            if let Value::Object(fields) = &mut v {
                fields.iter_mut().find(|(k, _)| k == "perm").unwrap().1 = perm.to_value();
            }
            FactorRef::from_value(&v)
        };
        assert_eq!(
            leaf(3, vec![2, 0, 1]).unwrap().perm().as_slice(),
            &[2, 0, 1]
        );
        for (n, perm, why) in [
            (2, vec![0, 0], "entry 1 is 0"),
            (2, vec![0, 2], "entry 1 is 2"),
            (3, vec![1, 0], "2 pivots for a leaf of order 3"),
        ] {
            let err = leaf(n, perm).unwrap_err().0;
            assert!(err.starts_with("field \"perm\": "), "{err}");
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn paths_enumerate_the_whole_forest() {
        let dfs = Arc::new(Dfs::default());
        let n = 12;
        let half = 5;
        let l = random_unit_lower(n, 30);
        let u = random_upper(n, 31);
        let p1 = shuffled_perm(half, 32);
        let p2 = shuffled_perm(n - half, 33);
        let f = build_node(&dfs, &l, &u, &p1, &p2, half, 3);
        let paths = f.paths();
        // Two leaves (l + u each) plus 3 L2' stripes plus 3 U2 stripes.
        assert_eq!(paths.len(), 2 + 2 + 3 + 3);
        for p in &paths {
            assert!(dfs.exists(p), "listed path {p} must exist");
        }
    }

    #[test]
    fn combine_produces_equivalent_leaf() {
        let dfs = Arc::new(Dfs::default());
        let n = 10;
        let half = 4;
        let l = random_unit_lower(n, 8);
        let u = random_upper(n, 9);
        let p1 = shuffled_perm(half, 10);
        let p2 = shuffled_perm(n - half, 11);
        let f = build_node(&dfs, &l, &u, &p1, &p2, half, 2);
        let mut io = TaskIo::new(dfs.clone());
        let combined = f.combine(&mut io, "f/combined").unwrap();
        assert!(matches!(combined, FactorRef::Leaf { .. }));
        assert_eq!(combined.assemble_l(&mut io).unwrap(), l);
        assert_eq!(combined.assemble_u_t(&mut io).unwrap(), u.transpose());
        assert_eq!(combined.perm(), f.perm());
        assert_eq!(combined.paths().len(), 2, "one L file, one U file");
        assert!(io.stats().write_bytes > 0, "combining costs write I/O");
    }

    #[test]
    fn corrupt_factor_shape_is_detected() {
        let dfs = Arc::new(Dfs::default());
        let mut io = TaskIo::new(dfs.clone());
        write_block(&mut io, "bad/l", &Matrix::zeros(3, 3));
        write_block(&mut io, "bad/u", &Matrix::zeros(4, 4));
        let f = FactorRef::Leaf {
            n: 4,
            l_path: "bad/l".into(),
            u_path: "bad/u".into(),
            perm: Permutation::identity(4),
        };
        assert!(matches!(
            f.assemble_l(&mut io),
            Err(CoreError::Invariant(_))
        ));
        assert!(f.assemble_u_t(&mut io).is_ok());
    }

    #[test]
    fn inconsistent_node_is_detected() {
        let dfs = Arc::new(Dfs::default());
        let (n, half) = (10, 4);
        let l = random_unit_lower(n, 40);
        let u = random_upper(n, 41);
        let p1 = shuffled_perm(half, 42);
        let p2 = shuffled_perm(n - half, 43);
        let good = build_node(&dfs, &l, &u, &p1, &p2, half, 2);
        let FactorRef::Node { a1, l2, u2, b, .. } = good else {
            panic!("expected node")
        };
        // Every stripe one row lower: the last one leaves its block.
        let shifted = |src: &MatrixSource| {
            let down = |p: &Piece| Piece::new(p.path.clone(), (p.rows.0 + 1, p.rows.1 + 1), p.cols);
            MatrixSource::new(src.shape(), src.pieces().iter().map(down).collect())
        };
        // U2 untransposed, `half x (n - half)` in column stripes: only
        // `U2ᵀ` is a valid `u2`, and half != n - half tells the two apart.
        let mut io = TaskIo::new(dfs.clone());
        let mut u2_pieces = Vec::new();
        for (k, (c0, c1)) in even_ranges(n - half, 2).into_iter().enumerate() {
            let block = u
                .block(BlockRange::new((0, half), (half + c0, half + c1)))
                .unwrap();
            u2_pieces.push(write_piece(
                &mut io,
                &format!("f/u2-row-major/{k}"),
                0,
                c0,
                &block,
            ));
        }
        let row_major = MatrixSource::new((half, n - half), u2_pieces);
        let node = |n, l2, u2| FactorRef::node(n, half, a1.clone(), l2, u2, b.clone());
        let stray = node(n, shifted(&l2), shifted(&u2));
        // A node whose children do not add up to its order.
        let shrunk = node(n - 1, l2.clone(), u2);
        for f in [stray, shrunk] {
            for got in [f.assemble_l(&mut io), f.assemble_u_t(&mut io)] {
                assert!(matches!(got, Err(CoreError::Invariant(_))));
            }
        }
        let untransposed = node(n, l2, row_major);
        assert!(matches!(
            untransposed.assemble_u_t(&mut io),
            Err(CoreError::Invariant(_))
        ));
        assert!(matches!(
            untransposed.assemble_packed(&mut io),
            Err(CoreError::Invariant(_))
        ));
    }

    #[test]
    fn assembled_factors_invert_a_real_decomposition() {
        // End-to-end sanity: factor a matrix with the in-memory block
        // method, store it as a FactorRef forest, reassemble, and verify
        // P·A = L·U still holds.
        let dfs = Arc::new(Dfs::default());
        let n = 14;
        let half = 7;
        let a = random_invertible(n, 20);
        let f = crate::inmem::block_lu(&a, half).unwrap();
        let p1 = {
            // block_lu at nb = half yields exactly one split: recover the
            // sub-permutations from the augmented structure.
            let s = f.perm.as_slice();
            Permutation::from_vec(s[..half].to_vec()).unwrap()
        };
        let p2 = {
            let s = f.perm.as_slice();
            Permutation::from_vec(s[half..].iter().map(|&v| v - half).collect()).unwrap()
        };
        let fr = build_node(&dfs, &f.l, &f.u, &p1, &p2, half, 2);
        let mut io = TaskIo::new(dfs.clone());
        let l = fr.assemble_l(&mut io).unwrap();
        let u = fr.assemble_u_t(&mut io).unwrap().transpose();
        let pa = fr.perm().apply_rows(&a);
        assert!((&l * &u).approx_eq(&pa, 1e-8));
    }
}
