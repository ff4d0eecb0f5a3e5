//! `permute` and broadcasting elementwise ops against naive
//! per-element references.
//!
//! Both ops walk strides: one odometer over the outer dimensions and a
//! run along the last one. The references here do it the slow way, a
//! div/mod unravel of every output index, so any odometer or stride
//! mistake (rank 0, empty or unit dimensions, left padding, broadcast
//! dimensions in the middle) shows up as a value in the wrong place.

use proptest::prelude::*;

use pipemare_tensor::Tensor;

/// Row-major multi-index of flat position `flat` in `dims`.
fn unravel(mut flat: usize, dims: &[usize]) -> Vec<usize> {
    let mut idx = vec![0; dims.len()];
    for d in (0..dims.len()).rev() {
        idx[d] = flat % dims[d];
        flat /= dims[d];
    }
    idx
}

/// Row-major flat position of `idx` in `dims`.
fn ravel(idx: &[usize], dims: &[usize]) -> usize {
    idx.iter().zip(dims).fold(0, |acc, (&i, &d)| acc * d + i)
}

/// A tensor whose elements are their own flat positions, so every
/// value says where it came from.
fn numbered(dims: &[usize]) -> Tensor {
    let n = dims.iter().product();
    Tensor::from_vec((0..n).map(|i| i as f32).collect(), dims)
}

fn naive_permute(t: &Tensor, perm: &[usize]) -> Vec<f32> {
    let src = t.shape();
    let dst: Vec<usize> = perm.iter().map(|&p| src[p]).collect();
    let n: usize = dst.iter().product();
    (0..n)
        .map(|flat| {
            let idx = unravel(flat, &dst);
            let mut src_idx = vec![0; src.len()];
            for (k, &p) in perm.iter().enumerate() {
                src_idx[p] = idx[k];
            }
            t.data()[ravel(&src_idx, src)]
        })
        .collect()
}

/// Every permutation of `0..n`, in lexicographic order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for first in 0..n {
        for rest in permutations(n - 1) {
            let mut p = vec![first];
            p.extend(rest.into_iter().map(|r| if r >= first { r + 1 } else { r }));
            out.push(p);
        }
    }
    out
}

/// NumPy broadcast of two shapes, aligned on the right.
fn naive_broadcast_shape(a: &[usize], b: &[usize]) -> Vec<usize> {
    let n = a.len().max(b.len());
    let dim = |s: &[usize], i: usize| if i < n - s.len() { 1 } else { s[i - (n - s.len())] };
    (0..n).map(|i| if dim(a, i) == 1 { dim(b, i) } else { dim(a, i) }).collect()
}

/// Flat position in an operand of shape `s` read at broadcast index
/// `idx`: left-padded dimensions are dropped, unit dimensions pinned to 0.
fn broadcast_ravel(idx: &[usize], s: &[usize]) -> usize {
    let own: Vec<usize> = idx[idx.len() - s.len()..]
        .iter()
        .zip(s)
        .map(|(&i, &d)| if d == 1 { 0 } else { i })
        .collect();
    ravel(&own, s)
}

fn naive_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> (Vec<usize>, Vec<f32>) {
    let out = naive_broadcast_shape(a.shape(), b.shape());
    let n: usize = out.iter().product();
    let data = (0..n)
        .map(|flat| {
            let idx = unravel(flat, &out);
            f(
                a.data()[broadcast_ravel(&idx, a.shape())],
                b.data()[broadcast_ravel(&idx, b.shape())],
            )
        })
        .collect();
    (out, data)
}

/// Pairs two element values into one exactly representable number, so
/// the result also shows which operand each value came from.
fn pair(x: f32, y: f32) -> f32 {
    x * 256.0 + y
}

/// A broadcast-compatible pair of shapes: a full shape of rank 0–4 with
/// extents 0–3, one operand of that full rank and one of a trailing
/// slice of it (the left padding), in either order, each with about a
/// quarter of its extents replaced by 1 (broadcast dimensions anywhere,
/// including the middle).
fn broadcast_pair() -> impl Strategy<Value = (Vec<usize>, Vec<usize>)> {
    prop::collection::vec(0usize..4, 0..=4).prop_flat_map(|full| {
        let r = full.len();
        (Just(full), 0..=r, 0u8..2, prop::collection::vec(0u8..4, 2 * r)).prop_map(
            move |(full, rank, swap, ones)| {
                let pick = |rank: usize, ones: &[u8]| -> Vec<usize> {
                    (r - rank..r).map(|i| if ones[i] == 0 { 1 } else { full[i] }).collect()
                };
                let (long, short) = (pick(r, &ones[..r]), pick(rank, &ones[r..]));
                if swap == 1 {
                    (short, long)
                } else {
                    (long, short)
                }
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn permute_matches_naive_reference_for_every_permutation(
        dims in prop::collection::vec(0usize..4, 0..=4),
    ) {
        let t = numbered(&dims);
        for perm in permutations(dims.len()) {
            let got = t.permute(&perm);
            let want_dims: Vec<usize> = perm.iter().map(|&p| dims[p]).collect();
            prop_assert_eq!(got.shape(), &want_dims[..], "perm {:?}", perm);
            prop_assert_eq!(got.data(), &naive_permute(&t, &perm)[..], "perm {:?}", perm);
        }
    }

    #[test]
    fn broadcasting_zip_matches_naive_reference(shapes in broadcast_pair()) {
        let (sa, sb) = shapes;
        let (a, b) = (numbered(&sa), numbered(&sb).scale(0.5));
        let (want_dims, want) = naive_zip(&a, &b, pair);
        let got = a.zip(&b, pair);
        prop_assert_eq!(got.shape(), &want_dims[..], "{:?} with {:?}", sa, sb);
        prop_assert_eq!(got.data(), &want[..], "{:?} with {:?}", sa, sb);
        let (_, want_sum) = naive_zip(&b, &a, |x, y| x + y);
        let sum = b.add(&a);
        prop_assert_eq!(sum.data(), &want_sum[..], "{:?} + {:?}", sb, sa);
    }
}

#[test]
fn middle_and_leading_broadcast_dims() {
    for (sa, sb) in [
        (vec![2, 1, 3], vec![4, 1]),
        (vec![4, 1], vec![2, 1, 3]),
        (vec![2, 3, 4], vec![3, 1]),
        (vec![], vec![2, 2]),
        (vec![1], vec![]),
        (vec![3, 1, 2, 1], vec![4, 1, 5]),
    ] {
        let (a, b) = (numbered(&sa), numbered(&sb));
        let (want_dims, want) = naive_zip(&a, &b, pair);
        let got = a.zip(&b, pair);
        assert_eq!(got.shape(), &want_dims[..], "{sa:?} with {sb:?}");
        assert_eq!(got.data(), &want[..], "{sa:?} with {sb:?}");
    }
}
