//! The three matmul kernels behind [`Tensor::matmul`](crate::Tensor::matmul),
//! [`Tensor::matmul_nt`](crate::Tensor::matmul_nt) and
//! [`Tensor::matmul_tn`](crate::Tensor::matmul_tn).
//!
//! Each is one plain sequential loop nest, written under one hard
//! constraint: **bit-exactness**. For every output element the partial
//! products `a[i,k]·b[k,j]` are accumulated in strictly ascending `k` order
//! with plain `f32` multiply-then-add (no FMA, one accumulator per element),
//! starting from `+0.0` and skipping terms whose `a` value compares equal to
//! zero. That order fixes every bit of the result, so the three kernels agree
//! bitwise with each other and with a per-element reference loop, and the
//! golden-trace regression harness depends on it.
//!
//! The kernels never spawn threads. Parallelism comes from the federated
//! client fan-out, which runs each client's forward/backward steps, and so
//! its kernels, on its own worker thread.

/// `[m, k] × [k, n] -> [m, n]` in `ikj` order, so the inner loop runs over
/// contiguous rows of both `b` and `out`. `out` must be zeroed, row-major.
pub(crate) fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    for i in 0..m {
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in a[i * k..(i + 1) * k].iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    }
}

/// `[m, k] × [n, k]ᵀ -> [m, n]`: copies `Bᵀ` into a buffer leased from the
/// arena, then runs [`matmul`]. The copy relocates values without touching
/// the arithmetic. `out` must be zeroed.
pub(crate) fn matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let arena = crate::arena::TensorArena::global();
    let mut bt = arena.lease(k * n);
    bt.extend((0..k).flat_map(|kk| (0..n).map(move |j| b[j * k + kk])));
    matmul(a, &bt, m, k, n, out);
    arena.recycle(bt);
}

/// `[k, m]ᵀ × [k, n] -> [m, n]`: the reduction runs over the shared leading
/// (sample) axis `s`, reading both operands row-contiguously. Each output
/// element still receives its terms in ascending `s`. `out` must be zeroed.
pub(crate) fn matmul_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    for s in 0..k {
        let brow = &b[s * n..(s + 1) * n];
        for (o, &av) in a[s * m..(s + 1) * m].iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[o * n..(o + 1) * n];
            for (ov, &bv) in orow.iter_mut().zip(brow) {
                *ov += av * bv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    /// After warm-up the pool holds the output buffers and the `matmul_nt`
    /// transpose buffer, so repeated identical products must allocate
    /// nothing.
    #[cfg(feature = "alloc-count")]
    #[test]
    fn warm_matmul_allocates_nothing() {
        let arena = crate::arena::TensorArena::global();
        let mut rng = crate::SeededRng::new(3);
        let a = crate::Tensor::randn(&[32, 64], 1.0, &mut rng);
        let b = crate::Tensor::randn(&[64, 256], 1.0, &mut rng);
        let bt = crate::Tensor::randn(&[256, 64], 1.0, &mut rng);
        // Two warm-up passes: the references keep their buffers, so the pool
        // needs a second pass to hold an output buffer and a transpose buffer.
        let reference = a.matmul(&b).unwrap();
        let reference_nt = a.matmul_nt(&bt).unwrap();
        drop(a.matmul(&b).unwrap());
        drop(a.matmul_nt(&bt).unwrap());
        arena.reset_thread_stats();
        for _ in 0..8 {
            assert_eq!(a.matmul(&b).unwrap(), reference);
            assert_eq!(a.matmul_nt(&bt).unwrap(), reference_nt);
        }
        let stats = arena.thread_stats();
        assert_eq!(
            stats.fresh_allocs, 0,
            "warm matmul must be allocation-free: {stats:?}"
        );
        assert!(stats.pool_hits > 0, "warm matmul must lease from the pool");
    }
}
