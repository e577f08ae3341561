//! Direct-convolution kernels behind [`Conv2d`](super::Conv2d), bit-identical
//! to the per-output loops they replaced (kept as the test reference).
//!
//! Floating-point addition is not associative, so a kernel may only change
//! *which loop is innermost*, never the terms an accumulator receives or
//! their order:
//!
//! * an output is its bias plus `x·w` over in-bounds taps in ascending
//!   `(ic, ky, kx)` order;
//! * an input gradient sums `g·w` over ascending `(oc, oy, ox)`;
//! * a weight gradient adds `g·x` to its previous value over ascending
//!   `(n, oy, ox)`, and a bias gradient adds `g` in the same order;
//! * a term with `g == 0` is skipped.
//!
//! Each kernel keeps the reduction loops in that order and runs its
//! innermost loop over *independent* accumulators held in registers: a
//! chunk of [`LANES`] output columns (forward), of input columns (dX), or
//! of [`OC_LANES`] output channels (dW), for a block of [`BLOCK`] channels
//! that share each loaded row. A term that is out of bounds or skipped is
//! dropped with [`select`], never computed as a product with a padding
//! zero: `acc + 0·w` would turn `-0.0` into `+0.0` and `0·inf` into NaN.
//!
//! The 3×3, stride-1 shape every image proxy model uses is compiled with
//! kernel size and stride as constants (`K`, `S`); any other shape runs the
//! same code with both read at run time (`K = S = 0`).

use mhfl_tensor::TensorArena;

/// Output (forward) or input (dX) columns one kernel step accumulates.
const LANES: usize = 8;

/// Output channels one dW step accumulates.
const OC_LANES: usize = 8;

/// Channels whose accumulators share every loaded row: output channels in
/// the forward kernel, input channels in the dX and dW kernels. Channel
/// counts are padded up to whole blocks with zeros, whose results are never
/// stored; a fixed block size keeps every kernel one well-vectorised shape.
const BLOCK: usize = 4;

/// `new` if `keep`, else `old` bit for bit. Written as a select, not as
/// arithmetic, so a skipped term cannot touch its accumulator; the compiler
/// turns it into a vector blend.
#[inline(always)]
fn select(keep: bool, new: f32, old: f32) -> f32 {
    if keep {
        new
    } else {
        old
    }
}

/// The `N` values of `s` from `at` on, as an array (which the compiler keeps
/// in registers). Every caller's chunk lies inside its row by construction.
#[inline(always)]
fn chunk<const N: usize>(s: &[f32], at: usize) -> &[f32; N] {
    s[at..]
        .first_chunk()
        .expect("a kernel chunk lies inside its row")
}

/// Taps `lo..hi` of one kernel axis through which output position `o`
/// reads a real input element: `0 <= o·s + t - p < len`.
fn taps_of(o: usize, s: usize, p: usize, k: usize, len: usize) -> (usize, usize) {
    let base = o * s;
    let lo = p.saturating_sub(base).min(k);
    let hi = (len + p).saturating_sub(base).min(k);
    (lo, hi.max(lo))
}

/// Output positions `lo..hi` that read a real input element through tap `t`:
/// `0 <= o·s + t - p < len` and `o < out_len`.
fn outputs_of(t: usize, s: usize, p: usize, len: usize, out_len: usize) -> (usize, usize) {
    let lo = p.saturating_sub(t).div_ceil(s);
    let hi = if len + p > t {
        ((len + p - t - 1) / s + 1).min(out_len)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// `channels` rounded up to whole [`BLOCK`]s.
fn padded(channels: usize) -> usize {
    channels.div_ceil(BLOCK) * BLOCK
}

/// The weight axis a kernel blocks its channels along.
#[derive(Clone, Copy, PartialEq)]
enum Blocked {
    Out,
    In,
}

/// Copies `wgt` (`[out_ch, in_ch, k, k]`) into blocks of [`BLOCK`]
/// channels along the `blocked` axis, each laid out `[other channel, ky,
/// kx, channel in block]`, so that a kernel step loads its block's weights
/// for one tap as one slice. The last block is padded with zero-weight
/// channels, whose results are never stored.
fn pack_weights(wgt: &[f32], out_ch: usize, in_ch: usize, kk: usize, blocked: Blocked) -> Vec<f32> {
    let (channels, others) = match blocked {
        Blocked::Out => (out_ch, in_ch),
        Blocked::In => (in_ch, out_ch),
    };
    let at = |c: usize, other: usize, tap: usize| {
        if c >= channels {
            return 0.0;
        }
        let (oc, ic) = match blocked {
            Blocked::Out => (c, other),
            Blocked::In => (other, c),
        };
        wgt[(oc * in_ch + ic) * kk + tap]
    };
    let mut packed = TensorArena::global().lease(padded(channels) * others * kk);
    for c0 in (0..padded(channels)).step_by(BLOCK) {
        for other in 0..others {
            for tap in 0..kk {
                packed.extend((c0..c0 + BLOCK).map(|c| at(c, other, tap)));
            }
        }
    }
    packed
}

/// The shapes of one convolution call: batch, channels, input and output
/// size, kernel size, stride and padding.
#[derive(Clone, Copy, Debug)]
pub(super) struct Geometry {
    pub batch: usize,
    pub in_ch: usize,
    pub out_ch: usize,
    pub h: usize,
    pub w: usize,
    pub oh: usize,
    pub ow: usize,
    pub k: usize,
    pub s: usize,
    pub p: usize,
}

impl Geometry {
    /// Kernel size and stride: the constants when the kernel was compiled
    /// for them, the run-time values otherwise.
    #[inline(always)]
    fn ks<const K: usize, const S: usize>(&self) -> (usize, usize) {
        (
            if K > 0 { K } else { self.k },
            if S > 0 { S } else { self.s },
        )
    }

    /// `(k, s) == (3, 1)`: the shape compiled with constants.
    fn is_3x3_unit(&self) -> bool {
        (self.k, self.s) == (3, 1)
    }

    /// `out = conv(x, wgt) + bias`, with `out` fully overwritten.
    pub fn forward(&self, x: &[f32], wgt: &[f32], bias: &[f32], out: &mut [f32]) {
        if self.is_3x3_unit() {
            self.forward_with::<3, 1>(x, wgt, bias, out);
        } else {
            self.forward_with::<0, 0>(x, wgt, bias, out);
        }
    }

    fn forward_with<const K: usize, const S: usize>(
        &self,
        x: &[f32],
        wgt: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        let Geometry {
            batch,
            in_ch,
            out_ch,
            h,
            w,
            oh,
            ow,
            p,
            ..
        } = *self;
        let (k, s) = self.ks::<K, S>();
        let arena = TensorArena::global();
        let chunks = ow.div_ceil(LANES);
        // Input rows with `p` zero columns in front and enough behind that
        // every lane of every chunk loads inside the row.
        let row = (w + 2 * p).max((chunks * LANES - 1) * s + k);
        let mut xp = arena.lease_zeroed(in_ch * h * row);
        // live[(kx * chunks + c) * LANES + j] != 0: tap kx of output column
        // c * LANES + j exists and reads a real input column. (Lane-wide
        // integers, not bools, so the test vectorises.)
        let live: Vec<u32> = (0..k)
            .flat_map(|kx| {
                (0..chunks * LANES).map(move |ox| {
                    let ix = ox * s + kx;
                    u32::from(ox < ow && ix >= p && ix < p + w)
                })
            })
            .collect();
        let wpack = pack_weights(wgt, out_ch, in_ch, k * k, Blocked::Out);
        let block_len = BLOCK * in_ch * k * k;
        for (x_n, out_n) in x
            .chunks_exact(in_ch * h * w)
            .zip(out.chunks_exact_mut(out_ch * oh * ow))
            .take(batch)
        {
            for (src, dst) in x_n.chunks_exact(w).zip(xp.chunks_exact_mut(row)) {
                dst[p..p + w].copy_from_slice(src);
            }
            let input = Padded {
                rows: &xp,
                row,
                chunks,
            };
            for (wblk, oc0) in wpack
                .chunks_exact(block_len)
                .zip((0..out_ch).step_by(BLOCK))
            {
                let bias: [f32; BLOCK] =
                    std::array::from_fn(|b| bias.get(oc0 + b).copied().unwrap_or(0.0));
                let out_blk = &mut out_n[oc0 * oh * ow..];
                forward_block::<K, S>(self, &input, &live, wblk, bias, out_blk);
            }
        }
        arena.recycle(xp);
        arena.recycle(wpack);
    }

    /// dX of `dy` into `dx`, which is fully overwritten.
    pub fn input_grad(&self, dy: &[f32], wgt: &[f32], dx: &mut [f32]) {
        if self.is_3x3_unit() {
            self.input_grad_with::<3, 1>(dy, wgt, dx);
        } else {
            self.input_grad_with::<0, 0>(dy, wgt, dx);
        }
    }

    fn input_grad_with<const K: usize, const S: usize>(
        &self,
        dy: &[f32],
        wgt: &[f32],
        dx: &mut [f32],
    ) {
        let Geometry {
            batch,
            in_ch,
            out_ch,
            h,
            w,
            oh,
            ow,
            p,
            ..
        } = *self;
        let (k, s) = self.ks::<K, S>();
        let arena = TensorArena::global();
        let chunks = w.div_ceil(LANES);
        // Gradient rows spread to input-column spacing: dy[oc, oy, ox] sits
        // at column ox * s + k - 1, so input column ix reads it through tap
        // kx at ix + p + k - 1 - kx. Every other column is zero and skipped
        // like any zero gradient.
        let row = (chunks * LANES + p + k - 1).max((ow - 1) * s + k);
        let mut dyp = arena.lease_zeroed(out_ch * oh * row);
        let wpack = pack_weights(wgt, out_ch, in_ch, k * k, Blocked::In);
        let block_len = BLOCK * out_ch * k * k;
        for (dy_n, dx_n) in dy
            .chunks_exact(out_ch * oh * ow)
            .zip(dx.chunks_exact_mut(in_ch * h * w))
            .take(batch)
        {
            for (src, dst) in dy_n.chunks_exact(ow).zip(dyp.chunks_exact_mut(row)) {
                for (ox, &g) in src.iter().enumerate() {
                    dst[ox * s + k - 1] = g;
                }
            }
            let grad = Padded {
                rows: &dyp,
                row,
                chunks,
            };
            for (wblk, ic0) in wpack.chunks_exact(block_len).zip((0..in_ch).step_by(BLOCK)) {
                input_grad_block::<K, S>(self, &grad, wblk, &mut dx_n[ic0 * h * w..]);
            }
        }
        arena.recycle(dyp);
        arena.recycle(wpack);
    }

    /// Adds dW of `dy` into `dw` and db into `db`.
    pub fn weight_grad(&self, x: &[f32], dy: &[f32], dw: &mut [f32], db: &mut [f32]) {
        if self.is_3x3_unit() {
            self.weight_grad_with::<3, 1>(x, dy, dw, db);
        } else {
            self.weight_grad_with::<0, 0>(x, dy, dw, db);
        }
    }

    fn weight_grad_with<const K: usize, const S: usize>(
        &self,
        x: &[f32],
        dy: &[f32],
        dw: &mut [f32],
        db: &mut [f32],
    ) {
        let Geometry {
            batch,
            in_ch,
            out_ch,
            h,
            w,
            oh,
            ow,
            ..
        } = *self;
        let (k, _) = self.ks::<K, S>();
        let arena = TensorArena::global();
        let kk = k * k;
        let icp = padded(in_ch);
        let ocp = out_ch.div_ceil(OC_LANES) * OC_LANES;
        // dW as [ic, ky, kx, oc], dy as [oy, ox, oc] and x as [iy, ix, ic],
        // channels zero-padded: a step loads a vector of output channels
        // and a block of input channels, each as one slice.
        let mut dwt = arena.lease_zeroed(icp * kk * ocp);
        for (oc, src) in dw.chunks_exact(in_ch * kk).enumerate() {
            for (tap, &v) in src.iter().enumerate() {
                dwt[tap * ocp + oc] = v;
            }
        }
        let mut dyt = arena.lease_zeroed(oh * ow * ocp);
        let mut xt = arena.lease_zeroed(h * w * icp);
        for (x_n, dy_n) in x
            .chunks_exact(in_ch * h * w)
            .zip(dy.chunks_exact(out_ch * oh * ow))
            .take(batch)
        {
            for (oc, plane) in dy_n.chunks_exact(oh * ow).enumerate() {
                for (pos, &g) in plane.iter().enumerate() {
                    dyt[pos * ocp + oc] = g;
                }
            }
            for (ic, plane) in x_n.chunks_exact(h * w).enumerate() {
                for (pos, &v) in plane.iter().enumerate() {
                    xt[pos * icp + ic] = v;
                }
            }
            for gv in dyt.chunks_exact(ocp) {
                for (d, &g) in db.iter_mut().zip(gv) {
                    *d = select(g != 0.0, *d + g, *d);
                }
            }
            for (ic0, dwt_blk) in (0..icp)
                .step_by(BLOCK)
                .zip(dwt.chunks_exact_mut(BLOCK * kk * ocp))
            {
                weight_grad_block::<K, S>(self, &xt[ic0..], &dyt, ocp, dwt_blk);
            }
        }
        for (oc, dst) in dw.chunks_exact_mut(in_ch * kk).enumerate() {
            for (tap, d) in dst.iter_mut().enumerate() {
                *d = dwt[tap * ocp + oc];
            }
        }
        arena.recycle(xt);
        arena.recycle(dyt);
        arena.recycle(dwt);
    }
}

/// One sample's input (forward) or spread output gradient (dX), stored in
/// rows of `row` values padded so that every chunk loads inside its row.
struct Padded<'a> {
    rows: &'a [f32],
    row: usize,
    chunks: usize,
}

/// One block of output channels of one sample, from its packed weights
/// `wblk` (`[ic, ky, kx, BLOCK]`), into `out` (starting at the block's first
/// channel plane). `live` holds the padding masks built in `forward_with`.
#[inline(never)]
fn forward_block<const K: usize, const S: usize>(
    g: &Geometry,
    input: &Padded,
    live: &[u32],
    wblk: &[f32],
    bias: [f32; BLOCK],
    out: &mut [f32],
) {
    let Geometry {
        in_ch,
        h,
        oh,
        ow,
        p,
        ..
    } = *g;
    let (k, s) = g.ks::<K, S>();
    let span = (LANES - 1) * s + 1;
    // Real channels in this block; the rest are padding, never stored.
    let planes = (out.len() / (oh * ow)).min(BLOCK);
    for oy in 0..oh {
        let (ky_lo, ky_hi) = taps_of(oy, s, p, k, h);
        for c in 0..input.chunks {
            let ox0 = c * LANES;
            // `from_fn`, not `bias.map`: the latter defeats vectorisation here.
            let mut acc: [[f32; LANES]; BLOCK] = std::array::from_fn(|b| [bias[b]; LANES]);
            for ic in 0..in_ch {
                for ky in ky_lo..ky_hi {
                    let xrow = &input.rows[(ic * h + oy * s + ky - p) * input.row..][..input.row];
                    let wrow = &wblk[(ic * k + ky) * k * BLOCK..][..k * BLOCK];
                    for kx in 0..k {
                        let live: &[u32; LANES] = live[(kx * input.chunks + c) * LANES..]
                            .first_chunk()
                            .expect("one mask per lane");
                        let seg = &xrow[ox0 * s + kx..][..span];
                        let xs: [f32; LANES] = std::array::from_fn(|j| seg[j * s]);
                        let ws: &[f32; BLOCK] = chunk(wrow, kx * BLOCK);
                        for (lanes, &wv) in acc.iter_mut().zip(ws) {
                            for j in 0..LANES {
                                lanes[j] = select(live[j] != 0, lanes[j] + xs[j] * wv, lanes[j]);
                            }
                        }
                    }
                }
            }
            let n = LANES.min(ow - ox0);
            for (b, lanes) in acc.iter().enumerate().take(planes) {
                out[(b * oh + oy) * ow + ox0..][..n].copy_from_slice(&lanes[..n]);
            }
        }
    }
}

/// One block of input channels of one sample's dX, from its packed weights
/// `wblk` (`[oc, ky, kx, BLOCK]`), into `dx` (starting at the block's first
/// channel plane). For a fixed input position, `ky` and then `kx`
/// descending visit the outputs that read it in ascending `(oy, ox)` order.
#[inline(never)]
fn input_grad_block<const K: usize, const S: usize>(
    g: &Geometry,
    grad: &Padded,
    wblk: &[f32],
    dx: &mut [f32],
) {
    let Geometry {
        out_ch,
        h,
        w,
        oh,
        p,
        ..
    } = *g;
    let (k, s) = g.ks::<K, S>();
    // Real channels in this block; the rest are padding, never stored.
    let planes = (dx.len() / (h * w)).min(BLOCK);
    for iy in 0..h {
        for c in 0..grad.chunks {
            let ix0 = c * LANES;
            let mut acc = [[0.0f32; LANES]; BLOCK];
            for oc in 0..out_ch {
                for ky in (0..k).rev() {
                    // The output row that reads input row `iy` through `ky`.
                    let Some(t) = (iy + p).checked_sub(ky) else {
                        continue;
                    };
                    if t % s != 0 || t / s >= oh {
                        continue;
                    }
                    let grow = &grad.rows[(oc * oh + t / s) * grad.row..][..grad.row];
                    let wrow = &wblk[(oc * k + ky) * k * BLOCK..][..k * BLOCK];
                    for kx in (0..k).rev() {
                        let gs: &[f32; LANES] = chunk(grow, ix0 + p + k - 1 - kx);
                        let ws: &[f32; BLOCK] = chunk(wrow, kx * BLOCK);
                        for (lanes, &wv) in acc.iter_mut().zip(ws) {
                            for j in 0..LANES {
                                lanes[j] = select(gs[j] != 0.0, lanes[j] + gs[j] * wv, lanes[j]);
                            }
                        }
                    }
                }
            }
            let n = LANES.min(w - ix0);
            for (b, lanes) in acc.iter().enumerate().take(planes) {
                dx[(b * h + iy) * w + ix0..][..n].copy_from_slice(&lanes[..n]);
            }
        }
    }
}

/// Adds one sample's dW for one block of input channels into `dwt`
/// (the block's `[ic, ky, kx, ocp]` rows), from `xt` (`[iy, ix, icp]`,
/// starting at the block's first channel) and `dyt` (`[oy, ox, ocp]`).
/// Each weight takes its terms in ascending `(oy, ox)`.
#[inline(never)]
fn weight_grad_block<const K: usize, const S: usize>(
    g: &Geometry,
    xt: &[f32],
    dyt: &[f32],
    ocp: usize,
    dwt: &mut [f32],
) {
    let Geometry {
        in_ch,
        h,
        w,
        oh,
        ow,
        p,
        ..
    } = *g;
    let (k, s) = g.ks::<K, S>();
    let icp = padded(in_ch);
    for ky in 0..k {
        let (oy_lo, oy_hi) = outputs_of(ky, s, p, h, oh);
        for kx in 0..k {
            let (ox_lo, ox_hi) = outputs_of(kx, s, p, w, ow);
            for c in (0..ocp).step_by(OC_LANES) {
                let at = |b: usize| ((b * k + ky) * k + kx) * ocp + c;
                let mut acc: [[f32; OC_LANES]; BLOCK] = std::array::from_fn(|b| *chunk(dwt, at(b)));
                for oy in oy_lo..oy_hi {
                    let iy = oy * s + ky - p;
                    for ox in ox_lo..ox_hi {
                        let ix = ox * s + kx - p;
                        let gs: &[f32; OC_LANES] = chunk(dyt, (oy * ow + ox) * ocp + c);
                        let xs: &[f32; BLOCK] = chunk(xt, (iy * w + ix) * icp);
                        for (lanes, &xv) in acc.iter_mut().zip(xs) {
                            for j in 0..OC_LANES {
                                lanes[j] = select(gs[j] != 0.0, lanes[j] + gs[j] * xv, lanes[j]);
                            }
                        }
                    }
                }
                for (b, lanes) in acc.iter().enumerate() {
                    dwt[at(b)..][..OC_LANES].copy_from_slice(lanes);
                }
            }
        }
    }
}
