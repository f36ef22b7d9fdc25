//! The tensor kernels: who actually runs the matmul/bmm/conv and fused
//! map-reduce inner loops.
//!
//! [`Tensor`](crate::Tensor) methods validate shapes and allocate
//! outputs, then hand the inner loops to the [`Kernels`] returned by
//! [`kernels`]. There is one production implementation, [`Blocked`]:
//! register-tiled and cache-blocked GEMM kernels, fused transposed-GEMM
//! variants (so backward passes skip materializing `Aᵀ`/`Bᵀ` copies),
//! buffer-reusing convolution, and a multithreaded outer loop on the
//! shared persistent worker pool (`mlperf-pool`, the same pool the
//! submission ingest uses).
//!
//! # Numerical contract
//!
//! The kernels preserve the *per-output-element summation order* of
//! the original scalar loops, which survive as the test-only reference
//! oracle (`crate::oracle`, compiled for this crate's tests and behind
//! the `oracle` feature that only dev-dependencies enable). Each output
//! element accumulates its `k` products in ascending-`k` order into an
//! accumulator that starts at `+0.0`, exactly like the reference `ikj`
//! loop. Tiling changes which elements are computed near each other in
//! time, never the order of additions within one element, and the conv
//! backward pass folds its per-sample weight and bias partials in
//! ascending sample order, so for finite inputs the kernels are
//! **bit-identical** to the oracle. The only divergence is non-finite
//! propagation: the reference GEMM skips `a` values that equal zero (so
//! `0 × ∞` never happens), while the blocked kernels multiply through
//! (yielding `NaN`); this is unobservable for finite data.

use crate::conv::{col2im_into, im2col_into, nchw, Conv2dSpec};
use crate::tensor::Tensor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Kernel executor: the inner loops of matrix multiplication,
/// convolution, and the fused row-wise map-reduce ops.
///
/// All GEMM-family methods assume `out` is zero-filled (callers
/// allocate with `vec![0.0; ..]`) and may either accumulate into it or
/// overwrite it — the two are indistinguishable under that contract.
pub(crate) trait Kernels: Sync {
    /// `out += a[m,k] · b[k,n]`, `out` pre-zeroed.
    fn gemm(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// `out = a[m,k] · b[n,k]ᵀ` (`b` row-major `[n, k]`), `out`
    /// pre-zeroed. The backward-pass form `grad · Bᵀ` without the
    /// transpose copy.
    fn gemm_abt(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// `out = a[k,m]ᵀ · b[k,n]` (`a` row-major `[k, m]`), `out`
    /// pre-zeroed. The backward-pass form `Aᵀ · grad` without the
    /// transpose copy.
    fn gemm_atb(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize);

    /// Batched [`Kernels::gemm`] over `batch` independent problems.
    #[allow(clippy::too_many_arguments)]
    fn bmm(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    );

    /// Batched [`Kernels::gemm_abt`].
    #[allow(clippy::too_many_arguments)]
    fn bmm_abt(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    );

    /// Batched [`Kernels::gemm_atb`].
    #[allow(clippy::too_many_arguments)]
    fn bmm_atb(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    );

    /// Fused `out = a[m,k] · b[k,n] + bias[n]` (bias broadcast over
    /// rows), `out` pre-zeroed. One pass and zero intermediate
    /// allocations where `matmul` + broadcast-add needed two.
    #[allow(clippy::too_many_arguments)]
    fn gemm_bias(
        &self,
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    );

    /// Full conv2d forward (`input` NCHW, `weight` `[oc, c, k, k]`).
    fn conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor;

    /// Full conv2d backward: `(grad_input, grad_weight, grad_bias)`.
    fn conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: Conv2dSpec,
    ) -> (Tensor, Tensor, Tensor);

    /// Row-wise fused softmax: `rows` rows of `inner` elements.
    fn softmax_rows(&self, src: &[f32], out: &mut [f32], rows: usize, inner: usize);

    /// Row-wise fused log-softmax.
    fn log_softmax_rows(&self, src: &[f32], out: &mut [f32], rows: usize, inner: usize);

    /// Axis sum: `src` viewed as `[outer, extent, inner]`, reduced over
    /// `extent` into `out` of `outer * inner` zeros.
    fn sum_axis(&self, src: &[f32], out: &mut [f32], outer: usize, extent: usize, inner: usize);
}

/// The kernels this thread's tensor ops run on: always [`Blocked`],
/// except inside a test's `oracle::reference` scope.
pub(crate) fn kernels() -> &'static dyn Kernels {
    #[cfg(any(test, feature = "oracle"))]
    if crate::oracle::active() {
        return &crate::oracle::Reference;
    }
    &Blocked
}

/// The scalar i-k-j accumulating GEMM with a zero-skip on `a` — the
/// original kernel of this crate, which [`Blocked`] still dispatches
/// outputs narrower than one register tile to and the reference oracle
/// uses throughout.
pub(crate) fn reference_gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let brow = &b[kk * n..kk * n + n];
            let orow = &mut out[i * n..i * n + n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Serial axis sum in the reference order: for each output element,
/// ascending over `extent`.
pub(crate) fn sum_axis_serial(
    src: &[f32],
    out: &mut [f32],
    outer: usize,
    extent: usize,
    inner: usize,
) {
    for o in 0..outer {
        for e in 0..extent {
            let base = (o * extent + e) * inner;
            for i in 0..inner {
                out[o * inner + i] += src[base + i];
            }
        }
    }
}

// ---------------------------------------------------------------------
// Blocked: register-tiled, cache-blocked, pool-parallel.
// ---------------------------------------------------------------------

/// Register-tiled, cache-blocked kernels with a pooled outer loop.
pub struct Blocked;

/// Microkernel tile height (rows of `a` held in registers).
const MR: usize = 4;
/// Microkernel tile width (columns of `b` held in registers).
const NR: usize = 16;
/// Use the direct (unpacked) kernel while `b` fits in L1; above this,
/// pack `b` into `k × NR` panels first.
const PACK_B_ABOVE: usize = 8 * 1024;
/// Rows of `a` below which packing cannot amortize: each packed panel
/// is streamed only `m / MR` times before being rebuilt.
const PACK_MIN_M: usize = 32;
/// Minimum multiply-add count before a kernel fans out on the worker
/// pool; below this the pool overhead dwarfs the work.
const PARALLEL_MIN_FLOPS: usize = 1 << 18;

// ---------------------------------------------------------------------
// Optional kernel dispatch counters.
//
// Process-global and off by default: the GEMM hot path pays exactly one
// relaxed bool load until `enable_kernel_stats()` flips them on (the
// profiler and `round_pipeline --metrics` do). They answer the tuning
// questions the dispatch constants above raise — which path did real
// workloads actually take, how much packing did they pay for, how wide
// did the pool fan-out go.
// ---------------------------------------------------------------------

static KERNEL_STATS_ON: AtomicBool = AtomicBool::new(false);
static GEMM_REFERENCE: AtomicU64 = AtomicU64::new(0);
static GEMM_DIRECT: AtomicU64 = AtomicU64::new(0);
static GEMM_PACKED: AtomicU64 = AtomicU64::new(0);
static PACKED_BYTES: AtomicU64 = AtomicU64::new(0);
static GEMM_FANOUTS: AtomicU64 = AtomicU64::new(0);
static FANOUT_WIDTH_PEAK: AtomicU64 = AtomicU64::new(0);

/// A point-in-time reading of the kernel dispatch
/// counters (all zero until [`enable_kernel_stats`] is called).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Serial GEMM calls that took the reference row kernel
    /// (`n < NR`).
    pub gemm_reference: u64,
    /// Serial GEMM calls that took the direct register-tile kernel.
    pub gemm_direct: u64,
    /// Serial GEMM calls that took the packed-panel kernel.
    pub gemm_packed: u64,
    /// Bytes copied into packed `b` panels.
    pub packed_bytes: u64,
    /// GEMM calls that fanned out on the worker pool.
    pub gemm_fanouts: u64,
    /// Widest pool fan-out (bands) of any single GEMM.
    pub fanout_width_peak: u64,
}

/// Turns the kernel dispatch counters on (they stay on for the life of
/// the process).
pub fn enable_kernel_stats() {
    KERNEL_STATS_ON.store(true, Ordering::Relaxed);
}

/// Reads the kernel dispatch counters.
pub fn kernel_stats() -> KernelStats {
    KernelStats {
        gemm_reference: GEMM_REFERENCE.load(Ordering::Relaxed),
        gemm_direct: GEMM_DIRECT.load(Ordering::Relaxed),
        gemm_packed: GEMM_PACKED.load(Ordering::Relaxed),
        packed_bytes: PACKED_BYTES.load(Ordering::Relaxed),
        gemm_fanouts: GEMM_FANOUTS.load(Ordering::Relaxed),
        fanout_width_peak: FANOUT_WIDTH_PEAK.load(Ordering::Relaxed),
    }
}

#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    if KERNEL_STATS_ON.load(Ordering::Relaxed) {
        cell.fetch_add(n, Ordering::Relaxed);
    }
}

/// Serial blocked GEMM: register-tiled microkernel, packing `b` into
/// L1-resident panels when it is large. Per output element the `k`
/// products accumulate in ascending order from `+0.0`, matching the
/// reference kernel bit-for-bit on finite inputs.
///
/// Outputs narrower than one `NR` tile never fill a register tile, so
/// they dispatch to the reference row kernel instead — bit-identical
/// (the reference zero-skip can never flip an accumulator bit on
/// finite inputs, because an accumulator seeded at `+0.0` can never
/// become `-0.0`), and faster than the tile remainder path.
fn blocked_gemm_serial(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    if n < NR {
        bump(&GEMM_REFERENCE, 1);
        reference_gemm(a, b, out, m, k, n);
    } else if k * n <= PACK_B_ABOVE || m < PACK_MIN_M {
        bump(&GEMM_DIRECT, 1);
        blocked_gemm_direct(a, b, out, m, k, n);
    } else {
        bump(&GEMM_PACKED, 1);
        blocked_gemm_packed(a, b, out, m, k, n);
    }
}

/// Direct microkernel: `MR × NR` register tiles over the full `k`
/// extent, reading `b` rows in place.
fn blocked_gemm_direct(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let mut i = 0;
    while i + MR <= m {
        let mut j = 0;
        while j + NR <= n {
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..k {
                let brow = &b[kk * n + j..kk * n + j + NR];
                for r in 0..MR {
                    let av = a[(i + r) * k + kk];
                    let accr = &mut acc[r];
                    for c in 0..NR {
                        accr[c] += av * brow[c];
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + NR].copy_from_slice(accr);
            }
            j += NR;
        }
        if j < n {
            let w = n - j;
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..k {
                let brow = &b[kk * n + j..kk * n + j + w];
                for r in 0..MR {
                    let av = a[(i + r) * k + kk];
                    for (c, &bv) in brow.iter().enumerate() {
                        acc[r][c] += av * bv;
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + n].copy_from_slice(&accr[..w]);
            }
        }
        i += MR;
    }
    for r in i..m {
        blocked_row_times_matrix(&a[r * k..(r + 1) * k], b, &mut out[r * n..(r + 1) * n], n);
    }
}

/// One output row: `orow = arow · b`, `NR`-tiled.
fn blocked_row_times_matrix(arow: &[f32], b: &[f32], orow: &mut [f32], n: usize) {
    let mut j = 0;
    while j < n {
        let w = NR.min(n - j);
        let mut acc = [0.0f32; NR];
        for (kk, &av) in arow.iter().enumerate() {
            let brow = &b[kk * n + j..kk * n + j + w];
            for (c, &bv) in brow.iter().enumerate() {
                acc[c] += av * bv;
            }
        }
        orow[j..j + w].copy_from_slice(&acc[..w]);
        j += NR;
    }
}

/// Packed-panel GEMM for large `b`: each `k × NR` column panel of `b`
/// is copied contiguous once, then streamed through the register
/// microkernel for every row block — turning the strided `b` accesses
/// of the direct kernel into sequential L1 reads.
fn blocked_gemm_packed(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let mut panel = vec![0.0f32; k * NR];
    // All of `b` is copied into panels exactly once.
    bump(&PACKED_BYTES, (k * n * std::mem::size_of::<f32>()) as u64);
    let mut j = 0;
    while j < n {
        let w = NR.min(n - j);
        for kk in 0..k {
            panel[kk * NR..kk * NR + w].copy_from_slice(&b[kk * n + j..kk * n + j + w]);
            panel[kk * NR + w..(kk + 1) * NR].fill(0.0);
        }
        let mut i = 0;
        while i + MR <= m {
            let mut acc = [[0.0f32; NR]; MR];
            for kk in 0..k {
                let bv = &panel[kk * NR..(kk + 1) * NR];
                for r in 0..MR {
                    let av = a[(i + r) * k + kk];
                    let accr = &mut acc[r];
                    for c in 0..NR {
                        accr[c] += av * bv[c];
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                out[(i + r) * n + j..(i + r) * n + j + w].copy_from_slice(&accr[..w]);
            }
            i += MR;
        }
        for r in i..m {
            let mut acc = [0.0f32; NR];
            for kk in 0..k {
                let av = a[r * k + kk];
                let bv = &panel[kk * NR..(kk + 1) * NR];
                for c in 0..NR {
                    acc[c] += av * bv[c];
                }
            }
            out[r * n + j..r * n + j + w].copy_from_slice(&acc[..w]);
        }
        j += NR;
    }
}

/// `out = a[m,k] · b[n,k]ᵀ`: packs `bᵀ` into a scratch buffer, then
/// runs the dispatching GEMM core. A strided no-copy tile kernel was
/// tried first and lost on every training shape — reading `b` with
/// stride `k` defeats vectorization, while the transpose costs one
/// linear pass. Accumulation stays ascending-`kk`, so the result is
/// bit-identical to the reference transpose-then-GEMM.
fn blocked_gemm_abt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let mut bt = vec![0.0f32; k * n];
    for j in 0..n {
        for (kk, &v) in b[j * k..(j + 1) * k].iter().enumerate() {
            bt[kk * n + j] = v;
        }
    }
    blocked_gemm_serial(a, &bt, out, m, k, n);
}

/// `out = a[k,m]ᵀ · b[k,n]`: packs `aᵀ` into a scratch buffer, then
/// runs the dispatching GEMM core (same rationale and bit-identity
/// argument as [`blocked_gemm_abt`]).
fn blocked_gemm_atb(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let mut at = vec![0.0f32; m * k];
    for kk in 0..k {
        for (i, &v) in a[kk * m..(kk + 1) * m].iter().enumerate() {
            at[i * k + kk] = v;
        }
    }
    blocked_gemm_serial(&at, b, out, m, k, n);
}

impl Kernels for Blocked {
    fn gemm(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        let row_blocks = m.div_ceil(MR);
        if 2 * m * k * n >= PARALLEL_MIN_FLOPS && mlperf_pool::workers_for(row_blocks) > 1 {
            // Fan row blocks out on the pool: each worker computes a
            // disjoint band of output rows, so results are identical
            // to the serial kernel.
            let workers = mlperf_pool::workers_for(row_blocks);
            let rows_per = m.div_ceil(workers).next_multiple_of(MR);
            bump(&GEMM_FANOUTS, 1);
            if KERNEL_STATS_ON.load(Ordering::Relaxed) {
                let bands = (m * n).div_ceil(rows_per * n) as u64;
                FANOUT_WIDTH_PEAK.fetch_max(bands, Ordering::Relaxed);
            }
            mlperf_pool::parallel_chunks_mut(out, rows_per * n, |blk, chunk| {
                let i0 = blk * rows_per;
                let rows = chunk.len() / n;
                blocked_gemm_serial(&a[i0 * k..(i0 + rows) * k], b, chunk, rows, k, n);
            });
        } else {
            blocked_gemm_serial(a, b, out, m, k, n);
        }
    }

    fn gemm_abt(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        blocked_gemm_abt(a, b, out, m, k, n);
    }

    fn gemm_atb(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        blocked_gemm_atb(a, b, out, m, k, n);
    }

    fn bmm(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        if 2 * batch * m * k * n >= PARALLEL_MIN_FLOPS && mlperf_pool::workers_for(batch) > 1 {
            mlperf_pool::parallel_chunks_mut(out, m * n, |bi, chunk| {
                blocked_gemm_serial(
                    &a[bi * m * k..(bi + 1) * m * k],
                    &b[bi * k * n..(bi + 1) * k * n],
                    chunk,
                    m,
                    k,
                    n,
                );
            });
        } else {
            for bi in 0..batch {
                blocked_gemm_serial(
                    &a[bi * m * k..(bi + 1) * m * k],
                    &b[bi * k * n..(bi + 1) * k * n],
                    &mut out[bi * m * n..(bi + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
        }
    }

    fn bmm_abt(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        if 2 * batch * m * k * n >= PARALLEL_MIN_FLOPS && mlperf_pool::workers_for(batch) > 1 {
            mlperf_pool::parallel_chunks_mut(out, m * n, |bi, chunk| {
                blocked_gemm_abt(
                    &a[bi * m * k..(bi + 1) * m * k],
                    &b[bi * n * k..(bi + 1) * n * k],
                    chunk,
                    m,
                    k,
                    n,
                );
            });
        } else {
            for bi in 0..batch {
                blocked_gemm_abt(
                    &a[bi * m * k..(bi + 1) * m * k],
                    &b[bi * n * k..(bi + 1) * n * k],
                    &mut out[bi * m * n..(bi + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
        }
    }

    fn bmm_atb(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        batch: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        if 2 * batch * m * k * n >= PARALLEL_MIN_FLOPS && mlperf_pool::workers_for(batch) > 1 {
            mlperf_pool::parallel_chunks_mut(out, m * n, |bi, chunk| {
                blocked_gemm_atb(
                    &a[bi * k * m..(bi + 1) * k * m],
                    &b[bi * k * n..(bi + 1) * k * n],
                    chunk,
                    m,
                    k,
                    n,
                );
            });
        } else {
            for bi in 0..batch {
                blocked_gemm_atb(
                    &a[bi * k * m..(bi + 1) * k * m],
                    &b[bi * k * n..(bi + 1) * k * n],
                    &mut out[bi * m * n..(bi + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
        }
    }

    fn gemm_bias(
        &self,
        a: &[f32],
        b: &[f32],
        bias: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        self.gemm(a, b, out, m, k, n);
        for i in 0..m {
            for (o, &bv) in out[i * n..i * n + n].iter_mut().zip(bias.iter()) {
                *o += bv;
            }
        }
    }

    fn conv2d(
        &self,
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: Conv2dSpec,
    ) -> Tensor {
        let (n, c, h, w) = nchw(input);
        let ws = weight.shape();
        assert_eq!(ws.len(), 4, "conv2d weight must be 4-D, got {:?}", ws);
        let (oc, wc, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
        assert_eq!(wc, c, "conv2d channel mismatch: input {c}, weight {wc}");
        assert_eq!(kh, spec.kernel, "weight kernel height disagrees with spec");
        assert_eq!(kw, spec.kernel, "weight kernel width disagrees with spec");
        if let Some(b) = bias {
            assert_eq!(b.shape(), &[oc], "conv2d bias must be [{oc}]");
        }
        let oh = spec.out_extent(h);
        let ow = spec.out_extent(w);
        let (ckk, ohow) = (c * kh * kw, oh * ow);
        let wmat = weight.reshape(&[oc, ckk]);
        let mut out = vec![0.0f32; n * oc * ohow];
        // One sample per chunk; each worker reuses one im2col scratch
        // buffer across all the samples it claims.
        mlperf_pool::parallel_chunks_mut_with(
            &mut out,
            oc * ohow,
            || vec![0.0f32; ckk * ohow],
            |cols, ni, chunk| {
                im2col_into(input, ni, spec, oh, ow, cols);
                blocked_gemm_serial(wmat.data(), cols, chunk, oc, ckk, ohow);
                if let Some(b) = bias {
                    for o in 0..oc {
                        let bv = b.data()[o];
                        for v in &mut chunk[o * ohow..(o + 1) * ohow] {
                            *v += bv;
                        }
                    }
                }
            },
        );
        Tensor::from_vec(out, &[n, oc, oh, ow])
    }

    fn conv2d_backward(
        &self,
        input: &Tensor,
        weight: &Tensor,
        grad_out: &Tensor,
        spec: Conv2dSpec,
    ) -> (Tensor, Tensor, Tensor) {
        let (n, c, h, w) = nchw(input);
        let ws = weight.shape();
        let (oc, _, kh, kw) = (ws[0], ws[1], ws[2], ws[3]);
        let oh = spec.out_extent(h);
        let ow = spec.out_extent(w);
        assert_eq!(
            grad_out.shape(),
            &[n, oc, oh, ow],
            "grad_out shape mismatch in conv2d_backward"
        );
        let (ckk, ohow, chw) = (c * kh * kw, oh * ow, c * h * w);
        let wmat = weight.reshape(&[oc, ckk]);
        // Samples run in parallel, each into its own part:
        // `[grad_in of the sample | grad_w partial | grad_b partial]`.
        // The sample's `grad_in` slice is disjoint from every other's;
        // the weight and bias partials are folded below in ascending
        // sample order, which is the accumulation order the numerical
        // contract fixes. Each worker reuses its two column buffers.
        let part = chw + oc * ckk + oc;
        let mut parts = vec![0.0f32; n * part];
        mlperf_pool::parallel_chunks_mut_with(
            &mut parts,
            part,
            || (vec![0.0f32; ckk * ohow], vec![0.0f32; ckk * ohow]),
            |(cols, dcols), ni, chunk| {
                let go = &grad_out.data()[ni * oc * ohow..(ni + 1) * oc * ohow];
                let (gin, partials) = chunk.split_at_mut(chw);
                let (gw, gb) = partials.split_at_mut(oc * ckk);
                im2col_into(input, ni, spec, oh, ow, cols);
                blocked_gemm_abt(go, cols, gw, oc, ohow, ckk);
                dcols.fill(0.0);
                blocked_gemm_atb(wmat.data(), go, dcols, ckk, oc, ohow);
                col2im_into(dcols, gin, c, h, w, spec, oh, ow);
                for (o, slot) in gb.iter_mut().enumerate() {
                    *slot = go[o * ohow..(o + 1) * ohow].iter().sum();
                }
            },
        );
        let mut grad_in = Vec::with_capacity(n * chw);
        let mut grad_w = vec![0.0f32; oc * ckk];
        let mut grad_b = vec![0.0f32; oc];
        for sample in parts.chunks_exact(part) {
            let (gin, partials) = sample.split_at(chw);
            let (gw, gb) = partials.split_at(oc * ckk);
            grad_in.extend_from_slice(gin);
            for (acc, &g) in grad_w.iter_mut().zip(gw) {
                *acc += g;
            }
            for (acc, &g) in grad_b.iter_mut().zip(gb) {
                *acc += g;
            }
        }
        (
            Tensor::from_vec(grad_in, &[n, c, h, w]),
            Tensor::from_vec(grad_w, &[oc, c, kh, kw]),
            Tensor::from_vec(grad_b, &[oc]),
        )
    }

    fn softmax_rows(&self, src: &[f32], out: &mut [f32], rows: usize, inner: usize) {
        if rows * inner >= PARALLEL_MIN_FLOPS && mlperf_pool::workers_for(rows) > 1 {
            mlperf_pool::parallel_chunks_mut(out, inner, |r, orow| {
                softmax_one_row(&src[r * inner..(r + 1) * inner], orow);
            });
        } else {
            for r in 0..rows {
                softmax_one_row(
                    &src[r * inner..(r + 1) * inner],
                    &mut out[r * inner..(r + 1) * inner],
                );
            }
        }
    }

    fn log_softmax_rows(&self, src: &[f32], out: &mut [f32], rows: usize, inner: usize) {
        if rows * inner >= PARALLEL_MIN_FLOPS && mlperf_pool::workers_for(rows) > 1 {
            mlperf_pool::parallel_chunks_mut(out, inner, |r, orow| {
                log_softmax_one_row(&src[r * inner..(r + 1) * inner], orow);
            });
        } else {
            for r in 0..rows {
                log_softmax_one_row(
                    &src[r * inner..(r + 1) * inner],
                    &mut out[r * inner..(r + 1) * inner],
                );
            }
        }
    }

    fn sum_axis(&self, src: &[f32], out: &mut [f32], outer: usize, extent: usize, inner: usize) {
        if outer * extent * inner >= PARALLEL_MIN_FLOPS && mlperf_pool::workers_for(outer) > 1 {
            mlperf_pool::parallel_chunks_mut(out, inner, |o, chunk| {
                for e in 0..extent {
                    let base = (o * extent + e) * inner;
                    for (slot, &v) in chunk.iter_mut().zip(src[base..base + inner].iter()) {
                        *slot += v;
                    }
                }
            });
        } else {
            sum_axis_serial(src, out, outer, extent, inner);
        }
    }
}

/// Fused stable softmax of one row (same op order as the reference
/// row loop: max, exp/accumulate, divide).
fn softmax_one_row(row: &[f32], out: &mut [f32]) {
    let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut z = 0.0;
    for (slot, &v) in out.iter_mut().zip(row.iter()) {
        let e = (v - m).exp();
        *slot = e;
        z += e;
    }
    for slot in out.iter_mut() {
        *slot /= z;
    }
}

/// Fused stable log-softmax of one row.
fn log_softmax_one_row(row: &[f32], out: &mut [f32]) {
    let m = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let lse = m + row.iter().map(|&v| (v - m).exp()).sum::<f32>().ln();
    for (slot, &v) in out.iter_mut().zip(row.iter()) {
        *slot = v - lse;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::TensorRng;
    use crate::oracle::Reference;

    /// Deterministic pseudo-random buffer without burning TensorRng
    /// state (exercises negatives, zeros and magnitude spread).
    fn buf(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = TensorRng::new(seed);
        let mut v: Vec<f32> = rng.uniform(&[len.max(1)], -1.5, 1.5).into_vec();
        // Sprinkle exact zeros so the reference zero-skip path runs.
        for i in (0..len).step_by(7) {
            v[i] = 0.0;
        }
        v.truncate(len);
        v
    }

    fn assert_bits_equal(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} differs: {x} vs {y}");
        }
    }

    #[test]
    fn kernel_stats_count_dispatch_paths() {
        // The counters are process-global and sticky-on, and other
        // tests exercise GEMMs concurrently, so assert deltas with >=.
        enable_kernel_stats();
        let before = kernel_stats();

        // n < NR: reference row kernel.
        let (a, b) = (buf(4 * 8, 3), buf(8 * 4, 5));
        let mut out = vec![0.0f32; 4 * 4];
        blocked_gemm_serial(&a, &b, &mut out, 4, 8, 4);

        // Small k*n, n >= NR: direct kernel.
        let (a, b) = (buf(8 * 8, 7), buf(8 * 16, 11));
        let mut out = vec![0.0f32; 8 * 16];
        blocked_gemm_serial(&a, &b, &mut out, 8, 8, 16);

        // k*n > PACK_B_ABOVE and m >= PACK_MIN_M: packed kernel.
        let (m, k, n) = (33, 200, 65);
        let (a, b) = (buf(m * k, 13), buf(k * n, 17));
        let mut out = vec![0.0f32; m * n];
        blocked_gemm_serial(&a, &b, &mut out, m, k, n);

        let after = kernel_stats();
        assert!(after.gemm_reference >= before.gemm_reference + 1);
        assert!(after.gemm_direct >= before.gemm_direct + 1);
        assert!(after.gemm_packed >= before.gemm_packed + 1);
        let pack = (k * n * std::mem::size_of::<f32>()) as u64;
        assert!(after.packed_bytes >= before.packed_bytes + pack, "all of b is packed once");
    }

    #[test]
    fn blocked_gemm_bit_identical_across_shapes() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 16, 16),
            (5, 3, 17),
            (13, 1, 33),
            (192, 16, 16),
            (64, 48, 96),
            (33, 200, 65), // k*n > PACK_B_ABOVE: packed path
        ] {
            let a = buf(m * k, 11);
            let b = buf(k * n, 23);
            let mut r = vec![0.0f32; m * n];
            let mut bl = vec![0.0f32; m * n];
            Reference.gemm(&a, &b, &mut r, m, k, n);
            Blocked.gemm(&a, &b, &mut bl, m, k, n);
            assert_bits_equal(&r, &bl, &format!("gemm {m}x{k}x{n}"));
        }
    }

    #[test]
    fn blocked_transposed_gemms_bit_identical() {
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 7), (16, 12, 20), (37, 9, 5)] {
            let a = buf(m * k, 31);
            let b = buf(n * k, 41);
            let mut r = vec![0.0f32; m * n];
            let mut bl = vec![0.0f32; m * n];
            Reference.gemm_abt(&a, &b, &mut r, m, k, n);
            Blocked.gemm_abt(&a, &b, &mut bl, m, k, n);
            assert_bits_equal(&r, &bl, &format!("gemm_abt {m}x{k}x{n}"));

            let a = buf(k * m, 51);
            let b = buf(k * n, 61);
            let mut r = vec![0.0f32; m * n];
            let mut bl = vec![0.0f32; m * n];
            Reference.gemm_atb(&a, &b, &mut r, m, k, n);
            Blocked.gemm_atb(&a, &b, &mut bl, m, k, n);
            assert_bits_equal(&r, &bl, &format!("gemm_atb {m}x{k}x{n}"));
        }
    }
}
