//! Small dense matrices over `f64` and [`Complex64`].
//!
//! These back two distinct uses in the reproduction:
//!
//! * **Device transfer matrices** — 2×2 complex matrices for directional
//!   couplers and phase shifters (paper Eq. 5 and the DDot derivation), and
//! * **Reference GEMM results** — exact `f64` matrix products against which
//!   the photonic accelerator's analog results are compared.
//!
//! Row-major storage; indices are `(row, col)`.

use crate::complex::Complex64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// Errors produced by matrix constructors and operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatError {
    /// The provided data length does not match `rows * cols`.
    ShapeMismatch {
        /// Expected number of elements.
        expected: usize,
        /// Actual number of elements supplied.
        actual: usize,
    },
    /// Two operands have incompatible dimensions.
    DimMismatch {
        /// Left operand shape.
        left: (usize, usize),
        /// Right operand shape.
        right: (usize, usize),
    },
}

impl fmt::Display for MatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "data length {actual} does not match shape ({expected} expected)"
                )
            }
            MatError::DimMismatch { left, right } => {
                write!(
                    f,
                    "incompatible dimensions {}x{} and {}x{}",
                    left.0, left.1, right.0, right.1
                )
            }
        }
    }
}

impl std::error::Error for MatError {}

/// The source of matrix ids; starts at 1 so 0 can mean "none drawn".
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A matrix's content id: 0 until `id()` draws one, back to 0 on every
/// `&mut` access. An atomic so `&self` can draw it while matrices stay
/// `Sync`. Clones copy it (a clone holds the same content) and equality
/// ignores it (it names content, it is not content).
#[derive(Debug, Default)]
struct Version(AtomicU64);

impl Version {
    /// Forgets the id: a plain store through `&mut`, no atomic op.
    #[inline]
    fn reset(&mut self) {
        *self.0.get_mut() = 0;
    }
}

impl Clone for Version {
    fn clone(&self) -> Self {
        Self(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

impl PartialEq for Version {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

macro_rules! impl_matrix {
    ($name:ident, $elem:ty, $zero:expr, $one:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            rows: usize,
            cols: usize,
            data: Vec<$elem>,
            version: Version,
        }

        impl $name {
            /// Creates a matrix filled with zeros.
            ///
            /// # Panics
            ///
            /// Panics if `rows == 0` or `cols == 0`.
            pub fn zeros(rows: usize, cols: usize) -> Self {
                assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
                Self {
                    rows,
                    cols,
                    data: vec![$zero; rows * cols],
                    version: Version::default(),
                }
            }

            /// Creates the `n`-by-`n` identity matrix.
            pub fn identity(n: usize) -> Self {
                let mut m = Self::zeros(n, n);
                for i in 0..n {
                    m[(i, i)] = $one;
                }
                m
            }

            /// Creates a matrix from row-major data.
            ///
            /// # Errors
            ///
            /// Returns [`MatError::ShapeMismatch`] when `data.len() != rows * cols`.
            pub fn from_rows(rows: usize, cols: usize, data: Vec<$elem>) -> Result<Self, MatError> {
                if data.len() != rows * cols {
                    return Err(MatError::ShapeMismatch {
                        expected: rows * cols,
                        actual: data.len(),
                    });
                }
                Ok(Self {
                    rows,
                    cols,
                    data,
                    version: Version::default(),
                })
            }

            /// Creates a matrix by evaluating `f(row, col)` for every element.
            pub fn from_fn(
                rows: usize,
                cols: usize,
                mut f: impl FnMut(usize, usize) -> $elem,
            ) -> Self {
                let mut m = Self::zeros(rows, cols);
                for r in 0..rows {
                    for c in 0..cols {
                        m[(r, c)] = f(r, c);
                    }
                }
                m
            }

            /// Number of rows.
            #[inline]
            pub fn rows(&self) -> usize {
                self.rows
            }

            /// Number of columns.
            #[inline]
            pub fn cols(&self) -> usize {
                self.cols
            }

            /// Shape as `(rows, cols)`.
            #[inline]
            pub fn shape(&self) -> (usize, usize) {
                (self.rows, self.cols)
            }

            /// Borrows the row-major element slice.
            #[inline]
            pub fn as_slice(&self) -> &[$elem] {
                &self.data
            }

            /// Mutably borrows the row-major element slice.
            #[inline]
            pub fn as_mut_slice(&mut self) -> &mut [$elem] {
                self.version.reset();
                &mut self.data
            }

            /// An id naming this exact content: drawn from a process-wide
            /// counter on first call, then stable until the next `&mut`
            /// access, which drops it. Ids are never reused, and a clone
            /// keeps its source's id, so two matrices that report the same
            /// id hold the same elements and shape — the key a memo of
            /// per-matrix work needs.
            pub fn id(&self) -> u64 {
                // Relaxed suffices: the id publishes no data. The elements
                // change only through `&mut`, which already orders every
                // write before any later `&self` reader on any thread.
                let id = self.version.0.load(Ordering::Relaxed);
                if id != 0 {
                    return id;
                }
                let fresh = NEXT_ID.fetch_add(1, Ordering::Relaxed);
                match self.version.0.compare_exchange(
                    0,
                    fresh,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => fresh,
                    Err(raced) => raced,
                }
            }

            /// Returns a copy of row `r`.
            ///
            /// # Panics
            ///
            /// Panics if `r >= self.rows()`.
            pub fn row(&self, r: usize) -> Vec<$elem> {
                assert!(r < self.rows, "row index out of bounds");
                self.data[r * self.cols..(r + 1) * self.cols].to_vec()
            }

            /// Returns a copy of column `c`.
            ///
            /// # Panics
            ///
            /// Panics if `c >= self.cols()`.
            pub fn col(&self, c: usize) -> Vec<$elem> {
                assert!(c < self.cols, "column index out of bounds");
                (0..self.rows).map(|r| self[(r, c)]).collect()
            }

            /// Returns the transpose.
            pub fn transpose(&self) -> Self {
                Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
            }

            /// Matrix-matrix product via the correctness-grade triple
            /// loop — the reference every tuned kernel must match bit for
            /// bit.
            ///
            /// # Errors
            ///
            /// Returns [`MatError::DimMismatch`] when `self.cols() != rhs.rows()`.
            pub fn matmul_reference(&self, rhs: &Self) -> Result<Self, MatError> {
                if self.cols != rhs.rows {
                    return Err(MatError::DimMismatch {
                        left: self.shape(),
                        right: rhs.shape(),
                    });
                }
                let mut out = Self::zeros(self.rows, rhs.cols);
                // Slices up front: a matrix holds an atomic, so `&Self`
                // does not tell the optimizer its fields survive the
                // stores below, and indexing through it would reload them.
                let (n, b, acc) = (rhs.cols, rhs.as_slice(), &mut out.data[..]);
                for r in 0..self.rows {
                    for k in 0..self.cols {
                        let a = self[(r, k)];
                        for c in 0..n {
                            acc[r * n + c] += a * b[k * n + c];
                        }
                    }
                }
                Ok(out)
            }

            /// Matrix-vector product via the reference row-dot loop.
            ///
            /// # Errors
            ///
            /// Returns [`MatError::DimMismatch`] when `self.cols() != v.len()`.
            pub fn matvec_reference(&self, v: &[$elem]) -> Result<Vec<$elem>, MatError> {
                if self.cols != v.len() {
                    return Err(MatError::DimMismatch {
                        left: self.shape(),
                        right: (v.len(), 1),
                    });
                }
                let mut out = vec![$zero; self.rows];
                for r in 0..self.rows {
                    let mut acc = $zero;
                    for c in 0..self.cols {
                        acc += self[(r, c)] * v[c];
                    }
                    out[r] = acc;
                }
                Ok(out)
            }

            /// Applies `f` element-wise, producing a new matrix.
            pub fn map(&self, mut f: impl FnMut($elem) -> $elem) -> Self {
                Self {
                    rows: self.rows,
                    cols: self.cols,
                    data: self.data.iter().map(|&x| f(x)).collect(),
                    version: Version::default(),
                }
            }
        }

        impl Index<(usize, usize)> for $name {
            type Output = $elem;
            #[inline]
            fn index(&self, (r, c): (usize, usize)) -> &$elem {
                debug_assert!(r < self.rows && c < self.cols);
                &self.data[r * self.cols + c]
            }
        }

        impl IndexMut<(usize, usize)> for $name {
            #[inline]
            fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut $elem {
                debug_assert!(r < self.rows && c < self.cols);
                self.version.reset();
                &mut self.data[r * self.cols + c]
            }
        }

        impl Add<&$name> for &$name {
            type Output = $name;
            fn add(self, rhs: &$name) -> $name {
                assert_eq!(self.shape(), rhs.shape(), "shape mismatch in add");
                $name {
                    rows: self.rows,
                    cols: self.cols,
                    data: self
                        .data
                        .iter()
                        .zip(&rhs.data)
                        .map(|(&a, &b)| a + b)
                        .collect(),
                    version: Version::default(),
                }
            }
        }

        impl Sub<&$name> for &$name {
            type Output = $name;
            fn sub(self, rhs: &$name) -> $name {
                assert_eq!(self.shape(), rhs.shape(), "shape mismatch in sub");
                $name {
                    rows: self.rows,
                    cols: self.cols,
                    data: self
                        .data
                        .iter()
                        .zip(&rhs.data)
                        .map(|(&a, &b)| a - b)
                        .collect(),
                    version: Version::default(),
                }
            }
        }

        impl Mul<&$name> for &$name {
            type Output = $name;
            /// Panicking convenience wrapper around the `matmul` method.
            fn mul(self, rhs: &$name) -> $name {
                self.matmul(rhs)
                    .expect("dimension mismatch in matrix product")
            }
        }
    };
}

impl_matrix!(
    Mat,
    f64,
    0.0,
    1.0,
    "A dense row-major matrix of `f64` values.\n\n\
     # Examples\n\n\
     ```\n\
     use pdac_math::Mat;\n\
     let a = Mat::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;\n\
     let i = Mat::identity(2);\n\
     assert_eq!(a.matmul(&i)?, a);\n\
     # Ok::<(), pdac_math::matrix::MatError>(())\n\
     ```"
);
impl_matrix!(
    CMat,
    Complex64,
    Complex64::ZERO,
    Complex64::ONE,
    "A dense row-major matrix of [`Complex64`] values, used for photonic\n\
     transfer matrices.\n\n\
     # Examples\n\n\
     ```\n\
     use pdac_math::{CMat, Complex64};\n\
     let ps = CMat::from_rows(2, 2, vec![\n\
     Complex64::ONE, Complex64::ZERO,\n\
     Complex64::ZERO, Complex64::cis(-std::f64::consts::FRAC_PI_2),\n\
     ])?;\n\
     assert_eq!(ps.shape(), (2, 2));\n\
     # Ok::<(), pdac_math::matrix::MatError>(())\n\
     ```"
);

impl Mat {
    /// Matrix-matrix product through the tuned GEMM engine
    /// ([`crate::gemm`]): packed B-transposed panels, 4×4 register
    /// tiling, and row-panel threading (`PDAC_THREADS` override,
    /// [`crate::gemm::default_threads`] otherwise).
    ///
    /// Bit-identical to [`Self::matmul_reference`] for every thread
    /// count: each output cell accumulates its products in the same
    /// ascending-`k` order as the reference loop.
    ///
    /// # Errors
    ///
    /// Returns [`MatError::DimMismatch`] when `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Self) -> Result<Self, MatError> {
        self.matmul_with_threads(rhs, crate::gemm::default_threads())
    }

    /// [`Self::matmul`] with an explicit worker-thread cap (used by the
    /// determinism tests; results do not depend on `threads`).
    ///
    /// # Errors
    ///
    /// Returns [`MatError::DimMismatch`] when `self.cols() != rhs.rows()`.
    pub fn matmul_with_threads(&self, rhs: &Self, threads: usize) -> Result<Self, MatError> {
        if self.cols != rhs.rows {
            return Err(MatError::DimMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Self::zeros(self.rows, rhs.cols);
        pdac_telemetry::counter_add("math.gemm.macs", (self.rows * self.cols * rhs.cols) as u64);
        crate::gemm::gemm(
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
            &mut out.data,
            threads,
        );
        Ok(out)
    }

    /// Matrix-matrix product into a caller-owned output matrix, reusing
    /// its allocation (the hot-loop form of [`Self::matmul`]: repeated
    /// GEMMs of the same shape never reallocate).
    ///
    /// `out` is reshaped to `self.rows() × rhs.cols()` and fully
    /// overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`MatError::DimMismatch`] when `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) -> Result<(), MatError> {
        if self.cols != rhs.rows {
            return Err(MatError::DimMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        out.version.reset();
        out.rows = self.rows;
        out.cols = rhs.cols;
        out.data.clear();
        out.data.resize(self.rows * rhs.cols, 0.0);
        pdac_telemetry::counter_add("math.gemm.macs", (self.rows * self.cols * rhs.cols) as u64);
        crate::gemm::gemm(
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
            &mut out.data,
            crate::gemm::default_threads(),
        );
        Ok(())
    }

    /// Matrix-matrix product against a prepacked right operand (see
    /// [`crate::gemm::PackedB`]), into a caller-owned output matrix.
    /// Bit-identical to [`Self::matmul_into`] with the unpacked matrix;
    /// the per-call packing pass is skipped, which is the point — decode
    /// loops multiply the same weights thousands of times.
    ///
    /// # Errors
    ///
    /// Returns [`MatError::DimMismatch`] when `self.cols() != packed.k()`.
    pub fn matmul_prepacked_into(
        &self,
        packed: &crate::gemm::PackedB,
        out: &mut Self,
    ) -> Result<(), MatError> {
        if self.cols != packed.k() {
            return Err(MatError::DimMismatch {
                left: self.shape(),
                right: (packed.k(), packed.n()),
            });
        }
        out.resize(self.rows, packed.n());
        pdac_telemetry::counter_add(
            "math.gemm.macs",
            (self.rows * self.cols * packed.n()) as u64,
        );
        crate::gemm::gemm_prepacked(
            &self.data,
            packed,
            self.rows,
            &mut out.data,
            crate::gemm::default_threads(),
        );
        Ok(())
    }

    /// Matrix-matrix product against a byte-coded right operand (see
    /// [`crate::gemm::PackedCodes`]), into a caller-owned output matrix.
    /// Bit-identical to [`Self::matmul_prepacked_into`] with the decoded
    /// panels.
    ///
    /// # Errors
    ///
    /// Returns [`MatError::DimMismatch`] when `self.cols() != packed.k()`.
    pub fn matmul_codes_into(
        &self,
        packed: &crate::gemm::PackedCodes,
        out: &mut Self,
    ) -> Result<(), MatError> {
        if self.cols != packed.k() {
            return Err(MatError::DimMismatch {
                left: self.shape(),
                right: (packed.k(), packed.n()),
            });
        }
        out.resize(self.rows, packed.n());
        pdac_telemetry::counter_add(
            "math.gemm.macs",
            (self.rows * self.cols * packed.n()) as u64,
        );
        crate::gemm::gemm_codes(
            &self.data,
            packed,
            self.rows,
            &mut out.data,
            crate::gemm::default_threads(),
        );
        Ok(())
    }

    /// Grouped row products against a stacked right operand (see
    /// [`crate::gemm::gemm_grouped`]): row `g` of `self` (`G × k`) times
    /// block `g` of `rhs` (`G` stacked `k × n` blocks, i.e. `rhs` is
    /// `(G·k) × n`) into row `g` of `out` (`G × n`, reshaped and fully
    /// overwritten). Row `g` is bit-identical to `matmul_into` of that
    /// row against block `g` alone.
    ///
    /// # Errors
    ///
    /// Returns [`MatError::DimMismatch`] when `rhs.rows() != G·k`.
    pub fn matmul_grouped_into(&self, rhs: &Self, out: &mut Self) -> Result<(), MatError> {
        if rhs.rows != self.rows * self.cols {
            return Err(MatError::DimMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        out.resize(self.rows, rhs.cols);
        pdac_telemetry::counter_add("math.gemm.macs", (self.rows * self.cols * rhs.cols) as u64);
        crate::gemm::gemm_grouped(
            &self.data,
            &rhs.data,
            self.rows,
            self.cols,
            rhs.cols,
            &mut out.data,
            crate::gemm::default_threads(),
        );
        Ok(())
    }

    /// Reshapes to `rows × cols`, reusing the existing allocation when it
    /// is large enough. Element contents are unspecified afterwards —
    /// this is the scratch-buffer primitive behind the `*_into` ops,
    /// which overwrite every element anyway.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        self.version.reset();
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Element capacity of the backing allocation (for allocation-reuse
    /// assertions in tests and benches).
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Borrows row `r` without copying.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` without copying.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        self.version.reset();
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product on the same kernel/thread pool as
    /// [`Self::matmul`]; bit-identical to [`Self::matvec_reference`].
    ///
    /// # Errors
    ///
    /// Returns [`MatError::DimMismatch`] when `self.cols() != v.len()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, MatError> {
        if self.cols != v.len() {
            return Err(MatError::DimMismatch {
                left: self.shape(),
                right: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.rows];
        crate::gemm::gemv(
            &self.data,
            v,
            self.rows,
            self.cols,
            &mut out,
            crate::gemm::default_threads(),
        );
        Ok(out)
    }

    /// Solves the square linear system `self · x = b` by Gaussian
    /// elimination with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`MatError::DimMismatch`] when the matrix is not square or
    /// `b` has the wrong length, and [`MatError::ShapeMismatch`] (with
    /// both fields zero) when the matrix is numerically singular.
    ///
    /// # Examples
    ///
    /// ```
    /// use pdac_math::Mat;
    /// let a = Mat::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0])?;
    /// let x = a.solve(&[5.0, 10.0])?;
    /// assert!((x[0] - 1.0).abs() < 1e-12);
    /// assert!((x[1] - 3.0).abs() < 1e-12);
    /// # Ok::<(), pdac_math::matrix::MatError>(())
    /// ```
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, MatError> {
        let n = self.rows();
        if self.cols() != n || b.len() != n {
            return Err(MatError::DimMismatch {
                left: self.shape(),
                right: (b.len(), 1),
            });
        }
        let mut a = self.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let pivot_row = (col..n)
                .max_by(|&r1, &r2| {
                    a[(r1, col)]
                        .abs()
                        .partial_cmp(&a[(r2, col)].abs())
                        .expect("finite entries")
                })
                .expect("nonempty range");
            if a[(pivot_row, col)].abs() < 1e-12 {
                return Err(MatError::ShapeMismatch {
                    expected: 0,
                    actual: 0,
                });
            }
            if pivot_row != col {
                for c in 0..n {
                    let tmp = a[(col, c)];
                    a[(col, c)] = a[(pivot_row, c)];
                    a[(pivot_row, c)] = tmp;
                }
                x.swap(col, pivot_row);
            }
            for row in (col + 1)..n {
                let factor = a[(row, col)] / a[(col, col)];
                for c in col..n {
                    a[(row, c)] -= factor * a[(col, c)];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            x[col] /= a[(col, col)];
            for row in 0..col {
                let coeff = a[(row, col)];
                x[row] -= coeff * x[col];
            }
        }
        Ok(x)
    }

    /// Solves the least-squares problem `min ‖self · x − b‖₂` via the
    /// normal equations (fine for the small, well-conditioned calibration
    /// systems this crate needs).
    ///
    /// # Errors
    ///
    /// Returns [`MatError::DimMismatch`] for inconsistent shapes, or the
    /// singularity error from [`Self::solve`] for rank-deficient systems.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>, MatError> {
        if b.len() != self.rows() {
            return Err(MatError::DimMismatch {
                left: self.shape(),
                right: (b.len(), 1),
            });
        }
        let at = self.transpose();
        let ata = at.matmul(self)?;
        let atb = at.matvec(b)?;
        ata.solve(&atb)
    }

    /// Frobenius norm of the difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn distance(&self, other: &Mat) -> f64 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in distance");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// Maximum absolute element.
    pub fn max_abs(&self) -> f64 {
        self.as_slice().iter().fold(0.0, |m, &x| m.max(x.abs()))
    }
}

impl CMat {
    /// Matrix-matrix product (complex matrices are small device transfer
    /// matrices; the reference loop is the right tool).
    ///
    /// # Errors
    ///
    /// Returns [`MatError::DimMismatch`] when `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Self) -> Result<Self, MatError> {
        self.matmul_reference(rhs)
    }

    /// Matrix-vector product.
    ///
    /// # Errors
    ///
    /// Returns [`MatError::DimMismatch`] when `self.cols() != v.len()`.
    pub fn matvec(&self, v: &[Complex64]) -> Result<Vec<Complex64>, MatError> {
        self.matvec_reference(v)
    }

    /// Conjugate transpose (Hermitian adjoint).
    pub fn adjoint(&self) -> CMat {
        CMat::from_fn(self.cols(), self.rows(), |r, c| self[(c, r)].conj())
    }

    /// Checks unitarity: `U† U ≈ I` within `tol` on every element.
    ///
    /// Passive lossless photonic devices (directional couplers, phase
    /// shifters) must have unitary transfer matrices — energy conservation.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows() != self.cols() {
            return false;
        }
        let prod = self.adjoint().matmul(self).expect("square by construction");
        let n = self.rows();
        for r in 0..n {
            for c in 0..n {
                let expected = if r == c {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                if !prod[(r, c)].approx_eq(expected, tol) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Mat::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_validates_length() {
        let err = Mat::from_rows(2, 2, vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            MatError::ShapeMismatch {
                expected: 4,
                actual: 3
            }
        );
        assert!(err.to_string().contains("does not match"));
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Mat::from_rows(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rejects_mismatched_dims() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(MatError::DimMismatch { .. })));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Mat::from_rows(2, 3, vec![1.0, 0.0, 2.0, -1.0, 3.0, 1.0]).unwrap();
        let v = vec![2.0, 1.0, 0.0];
        let got = a.matvec(&v).unwrap();
        assert_eq!(got, vec![2.0, 1.0]);
    }

    #[test]
    fn matvec_rejects_wrong_len() {
        let a = Mat::zeros(2, 3);
        assert!(a.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], a[(1, 2)]);
    }

    #[test]
    fn row_and_col_extraction() {
        let a = Mat::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.row(1), vec![4.0, 5.0, 6.0]);
        assert_eq!(a.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Mat::from_fn(2, 2, |r, c| (r + c) as f64);
        let b = Mat::from_fn(2, 2, |r, c| (r * c) as f64 + 1.0);
        let sum = &a + &b;
        let back = &sum - &b;
        assert_eq!(back, a);
    }

    #[test]
    fn distance_and_max_abs() {
        let a = Mat::from_rows(1, 2, vec![3.0, -4.0]).unwrap();
        let z = Mat::zeros(1, 2);
        assert!((a.distance(&z) - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn solve_known_system() {
        let a = Mat::from_rows(3, 3, vec![1.0, 2.0, 0.0, 0.0, 1.0, 1.0, 2.0, 0.0, 3.0]).unwrap();
        let x_true = [1.5, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let x = a.solve(&b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal: only solvable with row exchange.
        let a = Mat::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn solve_detects_singularity() {
        let a = Mat::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(a.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn solve_rejects_nonsquare() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(MatError::DimMismatch { .. })
        ));
    }

    #[test]
    fn least_squares_overdetermined_line_fit() {
        // Fit y = 2x + 1 from noisy-free samples: exact recovery.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Mat::from_fn(5, 2, |r, c| if c == 0 { xs[r] } else { 1.0 });
        let y: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let coef = a.solve_least_squares(&y).unwrap();
        assert!((coef[0] - 2.0).abs() < 1e-10);
        assert!((coef[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Inconsistent system: solution must beat any perturbation.
        let a = Mat::from_rows(3, 1, vec![1.0, 1.0, 1.0]).unwrap();
        let coef = a.solve_least_squares(&[1.0, 2.0, 6.0]).unwrap();
        assert!((coef[0] - 3.0).abs() < 1e-12); // the mean
    }

    #[test]
    fn fifty_fifty_coupler_is_unitary() {
        // Paper Eq. 5 with t = 1/sqrt(2): the 50:50 DC used by DDot.
        let t = FRAC_1_SQRT_2;
        let j = Complex64::I;
        let dc = CMat::from_rows(
            2,
            2,
            vec![
                Complex64::from_re(t),
                j * (1.0 - t * t).sqrt(),
                j * (1.0 - t * t).sqrt(),
                Complex64::from_re(t),
            ],
        )
        .unwrap();
        assert!(dc.is_unitary(1e-12));
    }

    #[test]
    fn non_square_is_not_unitary() {
        let m = CMat::zeros(2, 3);
        assert!(!m.is_unitary(1e-9));
    }

    #[test]
    fn cmat_adjoint_conjugates() {
        let m = CMat::from_rows(
            1,
            2,
            vec![Complex64::new(1.0, 2.0), Complex64::new(0.0, -1.0)],
        )
        .unwrap();
        let adj = m.adjoint();
        assert_eq!(adj.shape(), (2, 1));
        assert_eq!(adj[(0, 0)], Complex64::new(1.0, -2.0));
    }

    #[test]
    fn complex_matmul_identity() {
        let m = CMat::from_fn(3, 3, |r, c| Complex64::new(r as f64, c as f64));
        let i = CMat::identity(3);
        assert_eq!(m.matmul(&i).unwrap(), m);
    }

    #[test]
    fn fast_matmul_is_bit_identical_to_reference() {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(99);
        for (m, k, n) in [
            (2, 2, 2),
            (5, 7, 3),
            (16, 16, 16),
            (33, 65, 17),
            (1, 64, 48),
        ] {
            let a = Mat::from_fn(m, k, |_, _| rng.gen_range_f64(-2.0, 2.0));
            let b = Mat::from_fn(k, n, |_, _| rng.gen_range_f64(-2.0, 2.0));
            let want = a.matmul_reference(&b).unwrap();
            assert_eq!(a.matmul(&b).unwrap(), want, "{m}x{k}x{n}");
            for threads in [1, 2, 8] {
                assert_eq!(
                    a.matmul_with_threads(&b, threads).unwrap(),
                    want,
                    "{m}x{k}x{n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn matmul_into_reuses_buffer_and_matches() {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(17);
        let a = Mat::from_fn(9, 12, |_, _| rng.gen_range_f64(-1.0, 1.0));
        let b = Mat::from_fn(12, 5, |_, _| rng.gen_range_f64(-1.0, 1.0));
        let mut out = Mat::zeros(1, 1);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul_reference(&b).unwrap());
        // Second call with different contents reuses the same buffer.
        let c = Mat::from_fn(12, 5, |_, _| rng.gen_range_f64(-1.0, 1.0));
        a.matmul_into(&c, &mut out).unwrap();
        assert_eq!(out, a.matmul_reference(&c).unwrap());
    }

    #[test]
    fn matmul_into_rejects_mismatched_dims() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let mut out = Mat::zeros(1, 1);
        assert!(matches!(
            a.matmul_into(&b, &mut out),
            Err(MatError::DimMismatch { .. })
        ));
    }

    #[test]
    fn fast_matvec_is_bit_identical_to_reference() {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(23);
        for (m, k) in [(1, 1), (3, 8), (65, 33), (128, 96)] {
            let a = Mat::from_fn(m, k, |_, _| rng.gen_range_f64(-1.0, 1.0));
            let v: Vec<f64> = (0..k).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
            assert_eq!(
                a.matvec(&v).unwrap(),
                a.matvec_reference(&v).unwrap(),
                "{m}x{k}"
            );
        }
    }

    #[test]
    fn matmul_prepacked_into_matches_matmul() {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(61);
        let a = Mat::from_fn(7, 24, |_, _| rng.gen_range_f64(-1.0, 1.0));
        let b = Mat::from_fn(24, 9, |_, _| rng.gen_range_f64(-1.0, 1.0));
        let packed = crate::gemm::PackedB::pack(b.as_slice(), 24, 9);
        let mut out = Mat::zeros(1, 1);
        a.matmul_prepacked_into(&packed, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        let bad = Mat::zeros(3, 5);
        assert!(matches!(
            bad.matmul_prepacked_into(&packed, &mut out),
            Err(MatError::DimMismatch { .. })
        ));
    }

    #[test]
    fn matmul_codes_into_matches_decoded_panels() {
        let mut rng = crate::rng::SplitMix64::seed_from_u64(62);
        let levels: Vec<f64> = (0..7).map(|_| rng.gen_range_f64(-1.0, 1.0)).collect();
        let codes: Vec<u8> = (0..24 * 9).map(|i| (i * 5 % 7) as u8).collect();
        let b: Vec<f64> = codes.iter().map(|&c| levels[usize::from(c)]).collect();
        let packed = crate::gemm::PackedCodes::pack_with(&b, 24, 9, &levels, |x| {
            levels.iter().position(|&l| l == x).unwrap() as u8
        });
        let a = Mat::from_fn(7, 24, |_, _| rng.gen_range_f64(-1.0, 1.0));
        let mut out = Mat::zeros(1, 1);
        a.matmul_codes_into(&packed, &mut out).unwrap();
        let mut want = Mat::zeros(1, 1);
        a.matmul_prepacked_into(&packed.decode(), &mut want)
            .unwrap();
        assert_eq!(out, want);
        let bad = Mat::zeros(3, 5);
        assert!(matches!(
            bad.matmul_codes_into(&packed, &mut out),
            Err(MatError::DimMismatch { .. })
        ));
    }

    #[test]
    fn resize_reuses_allocation() {
        let mut m = Mat::zeros(8, 8);
        let cap = m.capacity();
        m.resize(4, 4);
        assert_eq!(m.shape(), (4, 4));
        assert_eq!(m.capacity(), cap);
        m.resize(2, 32);
        assert_eq!(m.shape(), (2, 32));
        assert_eq!(m.capacity(), cap);
    }

    #[test]
    fn row_slices_borrow_rows() {
        let mut m = Mat::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m.row_slice(1), &[4.0, 5.0, 6.0]);
        m.row_slice_mut(0)[2] = 9.0;
        assert_eq!(m[(0, 2)], 9.0);
    }

    #[test]
    fn map_applies_elementwise() {
        let a = Mat::from_rows(1, 3, vec![1.0, -2.0, 3.0]).unwrap();
        let b = a.map(f64::abs);
        assert_eq!(b.as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn fresh_matrices_get_distinct_stable_ids() {
        let a = Mat::zeros(2, 2);
        let b = Mat::zeros(2, 2);
        assert_ne!(a.id(), 0);
        assert_ne!(b.id(), 0);
        assert_ne!(a.id(), b.id());
        assert_eq!(a.id(), a.id());
    }

    #[test]
    fn every_mut_path_draws_a_new_id() {
        type Mutation = fn(&mut Mat);
        let paths: [(&str, Mutation); 8] = [
            ("as_mut_slice", |m| m.as_mut_slice()[0] = 1.0),
            ("row_slice_mut", |m| m.row_slice_mut(0)[0] = 1.0),
            ("index_mut", |m| m[(0, 0)] = 1.0),
            ("resize", |m| m.resize(2, 2)),
            ("matmul_into", |m| {
                Mat::identity(2).matmul_into(&m.clone(), m).unwrap();
            }),
            ("matmul_prepacked_into", |m| {
                let packed = crate::gemm::PackedB::pack(m.as_slice(), 2, 2);
                Mat::identity(2).matmul_prepacked_into(&packed, m).unwrap();
            }),
            ("matmul_codes_into", |m| {
                let levels = [1.0, 2.0, 3.0, 4.0];
                let packed =
                    crate::gemm::PackedCodes::pack_with(m.as_slice(), 2, 2, &levels, |x| {
                        x as u8 - 1
                    });
                Mat::identity(2).matmul_codes_into(&packed, m).unwrap();
            }),
            ("matmul_grouped_into", |m| {
                let ones = Mat::from_rows(2, 1, vec![1.0, 1.0]).unwrap();
                ones.matmul_grouped_into(&m.clone(), m).unwrap();
            }),
        ];
        for (name, mutate) in paths {
            let mut m = Mat::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
            let (id, before) = (m.id(), m.clone());
            mutate(&mut m);
            // Every path leaves the contents as they were; the id must
            // change anyway, because `&mut` was all the matrix saw.
            assert_eq!(m, before, "{name}");
            assert_ne!(m.id(), 0, "{name}");
            assert_ne!(m.id(), id, "{name}");
        }
    }

    #[test]
    fn clone_keeps_the_id_and_equality_ignores_it() {
        let a = Mat::from_rows(1, 2, vec![1.0, 2.0]).unwrap();
        let id = a.id();
        let mut b = a.clone();
        assert_eq!(b.id(), id);
        b.as_mut_slice()[0] = 1.0;
        assert_ne!(a.id(), b.id());
        assert_eq!(a, b);
    }

    #[test]
    fn mat_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Mat>();
    }
}
