//! Shape arithmetic: size computation, stride derivation, broadcasting.

/// A tensor shape: a list of dimension extents, outermost first.
///
/// `Shape` is a thin newtype over `Vec<usize>` providing size/stride
/// helpers used throughout the crate.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Creates a shape from a slice of extents.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.0.len()
    }

    /// Total number of elements (product of extents; 1 for a scalar shape).
    pub fn size(&self) -> usize {
        self.0.iter().product()
    }

    /// Extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Row-major ("C") strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.0.len()];
        let mut acc = 1usize;
        for (i, &d) in self.0.iter().enumerate().rev() {
            strides[i] = acc;
            acc *= d;
        }
        strides
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims)
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape(dims)
    }
}

/// Computes the broadcast shape of two shapes under NumPy trailing-dimension
/// rules.
///
/// Dimensions are aligned from the right; each pair must be equal or one of
/// them must be `1`.
///
/// # Panics
///
/// Panics if the shapes are not broadcast-compatible.
pub fn broadcast_shapes(a: &[usize], b: &[usize]) -> Vec<usize> {
    let n = a.len().max(b.len());
    let mut out = vec![0usize; n];
    for i in 0..n {
        let da = if i < n - a.len() { 1 } else { a[i - (n - a.len())] };
        let db = if i < n - b.len() { 1 } else { b[i - (n - b.len())] };
        out[i] = if da == db {
            da
        } else if da == 1 {
            db
        } else if db == 1 {
            da
        } else {
            panic!("shapes {a:?} and {b:?} are not broadcast-compatible (dims {da} vs {db})");
        };
    }
    out
}

/// Strides of an operand of shape `shape` read at the indices of the
/// broadcast shape `out` (`shape` aligned to the right of `out`): the
/// operand's row-major stride on its own dimensions, 0 on dimensions it
/// broadcasts (extent 1, or missing on the left).
pub(crate) fn broadcast_strides(shape: &[usize], out: &[usize]) -> Vec<usize> {
    let own = Shape::new(shape).strides();
    let pad = out.len() - shape.len();
    (0..out.len()).map(|i| if i < pad || shape[i - pad] == 1 { 0 } else { own[i - pad] }).collect()
}

/// Walks the row-major index space `dims` one row at a time, a row being
/// a run along the last dimension, and calls `row(offsets)` for each row
/// in order. `offsets[j]` is operand `j`'s flat offset of the row's first
/// element, where operand `j` advances by `strides[j][d]` along
/// dimension `d`; stepping along the row itself is left to the caller.
/// A rank-0 space has one row, a space with an empty dimension none.
pub(crate) fn for_each_row<const K: usize>(
    dims: &[usize],
    strides: [&[usize]; K],
    mut row: impl FnMut([usize; K]),
) {
    if dims.contains(&0) {
        return;
    }
    let outer = dims.len().saturating_sub(1);
    let mut idx = vec![0usize; outer];
    let mut off = [0usize; K];
    // Odometer over the outer dimensions, innermost first.
    'rows: loop {
        row(off);
        for d in (0..outer).rev() {
            idx[d] += 1;
            if idx[d] < dims[d] {
                for (o, s) in off.iter_mut().zip(&strides) {
                    *o += s[d];
                }
                continue 'rows;
            }
            idx[d] = 0;
            for (o, s) in off.iter_mut().zip(&strides) {
                *o -= s[d] * (dims[d] - 1);
            }
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::new(&[2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
        assert_eq!(Shape::new(&[]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn size_and_ndim() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.size(), 24);
        assert_eq!(s.ndim(), 3);
        assert_eq!(Shape::new(&[]).size(), 1);
    }

    #[test]
    fn broadcast_basic() {
        assert_eq!(broadcast_shapes(&[2, 3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[2, 1], &[1, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[3], &[2, 3]), vec![2, 3]);
        assert_eq!(broadcast_shapes(&[], &[4, 5]), vec![4, 5]);
    }

    #[test]
    #[should_panic(expected = "not broadcast-compatible")]
    fn broadcast_incompatible() {
        broadcast_shapes(&[2, 3], &[4, 3]);
    }

    #[test]
    fn broadcast_strides_zero_broadcast_dims() {
        assert_eq!(broadcast_strides(&[4, 1], &[2, 4, 3]), vec![0, 1, 0]);
        assert_eq!(broadcast_strides(&[2, 4, 3], &[2, 4, 3]), vec![12, 3, 1]);
        assert_eq!(broadcast_strides(&[], &[5]), vec![0]);
    }
}
