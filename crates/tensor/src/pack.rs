//! Panel packing and the register-tiled GEMM microkernel.
//!
//! Every matrix product in the workspace ([`matmul`], [`matmul_t`],
//! [`t_matmul`] and the fused [`pairwise_sq_dists`] epilogue) routes
//! through one packed kernel:
//!
//! [`matmul`]: crate::Tensor::matmul
//! [`matmul_t`]: crate::Tensor::matmul_t
//! [`t_matmul`]: crate::Tensor::t_matmul
//! [`pairwise_sq_dists`]: crate::Tensor::pairwise_sq_dists
//!
//! 1. **Pack B** once per call into `⌈n/NR⌉` column panels of `k × NR`
//!    contiguous floats (`bp[panel][kk·NR + j]`), zero-padded on the last
//!    panel. A transposed right-hand side is just a different gather order
//!    here — there is no separate loop nest per transpose variant.
//! 2. **Pack A** per `MR`-row block into an `MR × k` panel laid out
//!    `ap[kk·MR + i]`, again zero-padded, so the microkernel reads both
//!    operands with unit stride.
//! 3. The **microkernel** accumulates an `MR × NR` tile in registers over
//!    the *entire* `k` extent in one fixed ascending-`k` chain of
//!    `acc += a·b` updates, then an optional epilogue maps the tile before
//!    it is stored.
//! 4. A row block shorter than `MR` (a batch below `MR`, or a band's last
//!    rows) takes the **small-m** kernel instead: its `m` rows share each
//!    streamed B panel, several panels per sweep, rather than padding the
//!    A panel with `MR − m` rows of wasted zero work.
//!
//! A right-hand operand that is reused across calls (a frozen weight
//! matrix) can be packed once into a [`PackedRhs`] and multiplied with
//! [`crate::Tensor::matmul_prepacked`], skipping step 1 on every call.
//!
//! # Determinism
//!
//! Each output element's value is produced by exactly one ascending-`k`
//! sequence of `mul` + `add` operations (never a fused multiply-add, never
//! a split accumulator), so the result is bitwise identical
//!
//! * at every thread count — bands only choose *which* tile a row lands
//!   in, never the per-element operation sequence (`docs/THREADING.md`);
//! * at every tile shape — zero padding contributes `acc + (±0·b)`
//!   operations only to *padding* lanes, which are never stored, and the
//!   small-m kernel runs the same per-element chain as the full tile;
//! * at every SIMD tier — the vectorised kernels perform the same scalar
//!   chain per lane, so AVX-512, AVX2 and the portable fallback agree bit
//!   for bit (verified by `simd_tiers_agree_bitwise`).
//!
//! The full layout/contract documentation lives in `docs/KERNELS.md`.
//!
//! # SIMD dispatch
//!
//! The kernel instantiation is chosen once per process: AVX-512F (8×32
//! tile), AVX2 (6×16), or the portable autovectorised fallback (4×16).
//! `PILOTE_SIMD` (`avx512` | `avx2` | `baseline` | `auto`) caps the tier,
//! e.g. for cross-tier byte-comparison; an unrecognised value warns once on
//! stderr and falls back to auto-detection. [`active_simd`] reports the
//! selected tier.

use crate::error::TensorError;
use crate::parallel;
use crate::tensor::Tensor;
use std::sync::OnceLock;

/// SIMD tier the packed kernel dispatches to, selected once per process.
///
/// Results are bitwise identical across tiers (the vector kernels use the
/// same per-element `mul`/`add` chain as the scalar fallback — no FMA
/// contraction), so the tier is purely a throughput knob, like
/// `PILOTE_THREADS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Simd {
    /// AVX-512F 8×32 microkernel (x86-64 with `avx512f`).
    Avx512,
    /// AVX2 6×16 microkernel (x86-64 with `avx2`).
    Avx2,
    /// Portable autovectorised 4×16 microkernel (any target).
    Baseline,
}

impl Simd {
    /// Stable lower-case name (`avx512` / `avx2` / `baseline`), as accepted
    /// by `PILOTE_SIMD` and reported in `BENCH_kernels.json`.
    pub fn name(self) -> &'static str {
        match self {
            Simd::Avx512 => "avx512",
            Simd::Avx2 => "avx2",
            Simd::Baseline => "baseline",
        }
    }
}

/// Highest tier the host supports.
fn detect_simd() -> Simd {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return Simd::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return Simd::Avx2;
        }
    }
    Simd::Baseline
}

/// Parses a `PILOTE_SIMD` value into a tier cap; `None` means auto.
/// Pure so the accepted grammar is unit-testable.
fn parse_simd(raw: &str) -> Result<Option<Simd>, ()> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => Ok(None),
        "avx512" | "avx512f" => Ok(Some(Simd::Avx512)),
        "avx2" => Ok(Some(Simd::Avx2)),
        "baseline" | "scalar" => Ok(Some(Simd::Baseline)),
        _ => Err(()),
    }
}

/// The SIMD tier every packed kernel in this process dispatches to:
/// the highest tier the host supports, optionally capped by `PILOTE_SIMD`
/// (read once, at the first kernel invocation).
pub fn active_simd() -> Simd {
    static ACTIVE: OnceLock<Simd> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let detected = detect_simd();
        let requested = match std::env::var("PILOTE_SIMD") {
            Ok(raw) => match parse_simd(&raw) {
                Ok(cap) => cap,
                Err(()) => {
                    eprintln!(
                        "[pilote-tensor] warning: ignoring unrecognised PILOTE_SIMD={raw:?} \
                         (expected avx512 | avx2 | baseline | auto); auto-detecting"
                    );
                    None
                }
            },
            Err(_) => None,
        };
        match requested {
            // A cap can only lower the tier: requesting AVX-512 on a host
            // without it still runs (identical bits), just slower.
            Some(cap) if tier_rank(cap) <= tier_rank(detected) => cap,
            Some(_) | None => detected,
        }
    })
}

/// The tier a request for `simd` actually runs on this host: the request
/// itself when the host supports it, the portable fallback otherwise.
/// Panel layouts follow the resolved tier, so a [`PackedRhs`] and the
/// kernel that reads it always agree.
fn resolve(simd: Simd) -> Simd {
    match simd {
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 if is_x86_feature_detected!("avx512f") => Simd::Avx512,
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 if is_x86_feature_detected!("avx2") => Simd::Avx2,
        _ => Simd::Baseline,
    }
}

fn tier_rank(s: Simd) -> u8 {
    match s {
        Simd::Baseline => 0,
        Simd::Avx2 => 1,
        Simd::Avx512 => 2,
    }
}

/// A GEMM operand: a row-major `[rows, cols]` buffer read either directly
/// or through its transpose, so `A·Bᵀ` and `Aᵀ·B` are packing choices of
/// the one kernel rather than separate loop nests.
#[derive(Clone, Copy)]
pub(crate) struct Operand<'a> {
    data: &'a [f32],
    /// Leading dimension (row stride) of the underlying buffer.
    ld: usize,
    /// When set, logical element `(r, c)` reads `data[c·ld + r]`.
    transposed: bool,
}

impl<'a> Operand<'a> {
    /// A row-major `[rows, ld]` matrix read directly.
    pub(crate) fn plain(data: &'a [f32], ld: usize) -> Self {
        Operand { data, ld, transposed: false }
    }

    /// The transpose of a row-major `[cols, ld]` matrix.
    pub(crate) fn transposed(data: &'a [f32], ld: usize) -> Self {
        Operand { data, ld, transposed: true }
    }
}

/// Per-tile epilogue applied to the accumulator before it is stored.
#[derive(Clone, Copy)]
pub(crate) enum Epilogue<'a> {
    /// Store the raw product `A·B`.
    None,
    /// Squared-distance combine for [`crate::Tensor::pairwise_sq_dists`]: with the
    /// tile's dot products `d[i][j] = xᵢ·yⱼ`, store
    /// `max(x_sq[i] + y_sq[j] − 2·d[i][j], 0)` — bit-for-bit the expression
    /// the unfused two-pass form applies, just while the tile is still hot.
    SqDist {
        /// Per-row squared norms of the left operand (`len == m`).
        x_sq: &'a [f32],
        /// Per-row squared norms of the right operand (`len == n`).
        y_sq: &'a [f32],
    },
}

/// Packs the `⌈n/NR⌉` column panels of `b` (`k × n` logical), zero-padding
/// the final panel: `out[p·k·NR + kk·NR + j] = b(kk, p·NR + j)`.
fn pack_b<const NR: usize>(b: Operand<'_>, k: usize, n: usize) -> Vec<f32> {
    let panels = n.div_ceil(NR);
    let mut bp = vec![0.0f32; panels * k * NR];
    if k == 0 {
        return bp; // nothing to pack; the k-loop of the microkernel is empty
    }
    for (p, panel) in bp.chunks_mut(k * NR).enumerate() {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        if b.transposed {
            // b(kk, j) = data[j·ld + kk]: copy each source row (one logical
            // column) contiguously into the panel's strided lane.
            for j in 0..w {
                let src = &b.data[(j0 + j) * b.ld..(j0 + j) * b.ld + k];
                for (kk, &v) in src.iter().enumerate() {
                    panel[kk * NR + j] = v;
                }
            }
        } else {
            for (kk, dst) in panel.chunks_mut(NR).enumerate() {
                dst[..w].copy_from_slice(&b.data[kk * b.ld + j0..kk * b.ld + j0 + w]);
            }
        }
    }
    bp
}

/// Packs rows `[i0, i0 + rows)` of `a` (`m × k` logical) into an `MR × k`
/// panel, zero-padding rows past `rows`: `ap[kk·MR + i] = a(i0 + i, kk)`.
fn pack_a<const MR: usize>(a: Operand<'_>, k: usize, i0: usize, rows: usize, ap: &mut [f32]) {
    ap.fill(0.0);
    if a.transposed {
        // a(i, kk) = data[kk·ld + i]: both source and destination runs are
        // contiguous per kk.
        for kk in 0..k {
            let src = &a.data[kk * a.ld + i0..kk * a.ld + i0 + rows];
            ap[kk * MR..kk * MR + rows].copy_from_slice(src);
        }
    } else {
        for i in 0..rows {
            let src = &a.data[(i0 + i) * a.ld..(i0 + i) * a.ld + k];
            for (kk, &v) in src.iter().enumerate() {
                ap[kk * MR + i] = v;
            }
        }
    }
}

/// The portable microkernel body: one fixed ascending-`k` chain of
/// `acc[i][j] += a·b` updates per tile element. The `#[target_feature]`
/// wrappers below re-instantiate this exact loop so the autovectoriser may
/// use wider registers — the per-element operation sequence is identical in
/// every instantiation.
#[inline(always)]
fn microkernel_impl<const MR: usize, const NR: usize>(
    ap: &[f32],
    bp: &[f32],
    k: usize,
    acc: &mut [[f32; NR]; MR],
) {
    for kk in 0..k {
        let bv: &[f32] = &bp[kk * NR..kk * NR + NR];
        let av: &[f32] = &ap[kk * MR..kk * MR + MR];
        for i in 0..MR {
            let a = av[i];
            for j in 0..NR {
                acc[i][j] += a * bv[j];
            }
        }
    }
}

/// Portable 4×16 instantiation (autovectorises on any target).
///
/// `unsafe fn` only to share the signature of the feature-gated kernels;
/// it has no safety requirements of its own.
unsafe fn mk_baseline(ap: &[f32], bp: &[f32], k: usize, acc: &mut [[f32; 16]; 4]) {
    microkernel_impl::<4, 16>(ap, bp, k, acc)
}

/// AVX2 6×16 microkernel: 12 accumulator `ymm` registers, explicit
/// broadcast/`mul`/`add` intrinsics (no FMA — rounding must match the
/// scalar chain).
///
/// # Safety
/// The caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mk_avx2(ap: &[f32], bp: &[f32], k: usize, acc: &mut [[f32; 16]; 6]) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= k * 6 && bp.len() >= k * 16);
    unsafe {
        let mut c: [[__m256; 2]; 6] = [[_mm256_setzero_ps(); 2]; 6];
        for (i, row) in acc.iter().enumerate() {
            c[i][0] = _mm256_loadu_ps(row.as_ptr());
            c[i][1] = _mm256_loadu_ps(row.as_ptr().add(8));
        }
        for kk in 0..k {
            let b0 = _mm256_loadu_ps(bp.as_ptr().add(kk * 16));
            let b1 = _mm256_loadu_ps(bp.as_ptr().add(kk * 16 + 8));
            let a_col = ap.as_ptr().add(kk * 6);
            for (i, ci) in c.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*a_col.add(i));
                ci[0] = _mm256_add_ps(ci[0], _mm256_mul_ps(a, b0));
                ci[1] = _mm256_add_ps(ci[1], _mm256_mul_ps(a, b1));
            }
        }
        for (i, row) in acc.iter_mut().enumerate() {
            _mm256_storeu_ps(row.as_mut_ptr(), c[i][0]);
            _mm256_storeu_ps(row.as_mut_ptr().add(8), c[i][1]);
        }
    }
}

/// AVX-512F 8×32 microkernel: 16 accumulator `zmm` registers, explicit
/// broadcast/`mul`/`add` intrinsics (no FMA — rounding must match the
/// scalar chain).
///
/// # Safety
/// The caller must ensure the host supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mk_avx512(ap: &[f32], bp: &[f32], k: usize, acc: &mut [[f32; 32]; 8]) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= k * 8 && bp.len() >= k * 32);
    unsafe {
        let mut c: [[__m512; 2]; 8] = [[_mm512_setzero_ps(); 2]; 8];
        for (i, row) in acc.iter().enumerate() {
            c[i][0] = _mm512_loadu_ps(row.as_ptr());
            c[i][1] = _mm512_loadu_ps(row.as_ptr().add(16));
        }
        for kk in 0..k {
            let b0 = _mm512_loadu_ps(bp.as_ptr().add(kk * 32));
            let b1 = _mm512_loadu_ps(bp.as_ptr().add(kk * 32 + 16));
            let a_col = ap.as_ptr().add(kk * 8);
            for (i, ci) in c.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*a_col.add(i));
                ci[0] = _mm512_add_ps(ci[0], _mm512_mul_ps(a, b0));
                ci[1] = _mm512_add_ps(ci[1], _mm512_mul_ps(a, b1));
            }
        }
        for (i, row) in acc.iter_mut().enumerate() {
            _mm512_storeu_ps(row.as_mut_ptr(), c[i][0]);
            _mm512_storeu_ps(row.as_mut_ptr().add(16), c[i][1]);
        }
    }
}

/// An `MR × NR` register-tile microkernel: `(a_panel, b_panel, k, acc)`.
/// Unsafe because the SIMD variants require their target feature to have
/// been verified (by [`resolve`]) before the call.
type Microkernel<const MR: usize, const NR: usize> =
    unsafe fn(&[f32], &[f32], usize, &mut [[f32; NR]; MR]);

/// A small-m microkernel: the first `M < MR` rows of an `MR`-strided A
/// panel against `PB` B panels at once, `(a_panel, b_panels, k, acc)`.
/// Every accumulator runs the same ascending-`k` `mul` + `add` chain as
/// the full tile; only the number of rows sharing each streamed B panel
/// changes. Unsafe for the same reason as [`Microkernel`].
type SmallKernel<const M: usize, const PB: usize, const NR: usize> =
    unsafe fn(&[f32], &[&[f32]; PB], usize, &mut [[[f32; NR]; M]; PB]);

/// One tier's small-m dispatcher: computes the `m < MR` rows of an A
/// panel against every B panel and stores them into a band.
type SmallRows = fn(usize, &[f32], &[f32], BlockOut<'_, '_>);

/// Where a row block's results go: the output band, the block's first row
/// within it, the band's first global row (for epilogue operands), and
/// the GEMM's `k` and `n`.
struct BlockOut<'b, 'e> {
    band: &'b mut [f32],
    bi: usize,
    row0: usize,
    k: usize,
    n: usize,
    epilogue: Epilogue<'e>,
}

/// Stores the first `rows.len()` rows of a finished tile at column panel
/// `j0`, applying the epilogue.
#[inline(always)]
fn store_tile<const NR: usize>(rows: &[[f32; NR]], j0: usize, out: &mut BlockOut<'_, '_>) {
    let n = out.n;
    let w = NR.min(n - j0);
    for (i, acc) in rows.iter().enumerate() {
        let r = out.bi + i;
        let out_row = &mut out.band[r * n + j0..r * n + j0 + w];
        match out.epilogue {
            Epilogue::None => out_row.copy_from_slice(&acc[..w]),
            Epilogue::SqDist { x_sq, y_sq } => {
                let xs = x_sq[out.row0 + r];
                for (j, o) in out_row.iter_mut().enumerate() {
                    *o = (xs + y_sq[j0 + j] - 2.0 * acc[j]).max(0.0);
                }
            }
        }
    }
}

/// Portable small-m kernel body; the tier wrappers below re-instantiate it
/// or spell the same chain out in intrinsics.
#[inline(always)]
fn small_impl<const MR: usize, const NR: usize, const M: usize, const PB: usize>(
    ap: &[f32],
    bps: &[&[f32]; PB],
    k: usize,
    acc: &mut [[[f32; NR]; M]; PB],
) {
    for kk in 0..k {
        let av = &ap[kk * MR..kk * MR + M];
        for (bp, accp) in bps.iter().zip(acc.iter_mut()) {
            let bv = &bp[kk * NR..kk * NR + NR];
            for (&a, row) in av.iter().zip(accp.iter_mut()) {
                for (o, &b) in row.iter_mut().zip(bv) {
                    *o += a * b;
                }
            }
        }
    }
}

/// Portable small-m instantiation (`unsafe` only to share the signature).
unsafe fn sk_baseline<const M: usize, const PB: usize>(
    ap: &[f32],
    bps: &[&[f32]; PB],
    k: usize,
    acc: &mut [[[f32; 16]; M]; PB],
) {
    small_impl::<4, 16, M, PB>(ap, bps, k, acc)
}

/// AVX2 small-m kernel: `M` rows × `PB` 16-wide panels of `ymm`
/// accumulators, explicit `mul` then `add` (no FMA).
///
/// # Safety
/// The caller must ensure the host supports AVX2. The panel lengths
/// the raw loads rely on (`ap` ≥ `k·6`, each B panel ≥ `k·16`) are
/// asserted.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sk_avx2<const M: usize, const PB: usize>(
    ap: &[f32],
    bps: &[&[f32]; PB],
    k: usize,
    acc: &mut [[[f32; 16]; M]; PB],
) {
    use std::arch::x86_64::*;
    assert!(ap.len() >= k * 6 && bps.iter().all(|b| b.len() >= k * 16));
    // SAFETY: every load below stays inside the lengths asserted above,
    // and the caller guarantees the target feature.
    unsafe {
        let mut c: [[[__m256; 2]; M]; PB] = [[[_mm256_setzero_ps(); 2]; M]; PB];
        for kk in 0..k {
            let a_col = ap.as_ptr().add(kk * 6);
            for (bp, cp) in bps.iter().zip(c.iter_mut()) {
                let b0 = _mm256_loadu_ps(bp.as_ptr().add(kk * 16));
                let b1 = _mm256_loadu_ps(bp.as_ptr().add(kk * 16 + 8));
                for (i, ci) in cp.iter_mut().enumerate() {
                    let a = _mm256_set1_ps(*a_col.add(i));
                    ci[0] = _mm256_add_ps(ci[0], _mm256_mul_ps(a, b0));
                    ci[1] = _mm256_add_ps(ci[1], _mm256_mul_ps(a, b1));
                }
            }
        }
        for (cp, accp) in c.iter().zip(acc.iter_mut()) {
            for (ci, row) in cp.iter().zip(accp.iter_mut()) {
                _mm256_storeu_ps(row.as_mut_ptr(), ci[0]);
                _mm256_storeu_ps(row.as_mut_ptr().add(8), ci[1]);
            }
        }
    }
}

/// AVX-512F small-m kernel: `M` rows × `PB` 32-wide panels of `zmm`
/// accumulators, explicit `mul` then `add` (no FMA).
///
/// # Safety
/// The caller must ensure the host supports AVX-512F. The panel lengths
/// the raw loads rely on (`ap` ≥ `k·8`, each B panel ≥ `k·32`) are
/// asserted.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sk_avx512<const M: usize, const PB: usize>(
    ap: &[f32],
    bps: &[&[f32]; PB],
    k: usize,
    acc: &mut [[[f32; 32]; M]; PB],
) {
    use std::arch::x86_64::*;
    assert!(ap.len() >= k * 8 && bps.iter().all(|b| b.len() >= k * 32));
    // SAFETY: every load below stays inside the lengths asserted above,
    // and the caller guarantees the target feature.
    unsafe {
        let mut c: [[[__m512; 2]; M]; PB] = [[[_mm512_setzero_ps(); 2]; M]; PB];
        for kk in 0..k {
            let a_col = ap.as_ptr().add(kk * 8);
            for (bp, cp) in bps.iter().zip(c.iter_mut()) {
                let b0 = _mm512_loadu_ps(bp.as_ptr().add(kk * 32));
                let b1 = _mm512_loadu_ps(bp.as_ptr().add(kk * 32 + 16));
                for (i, ci) in cp.iter_mut().enumerate() {
                    let a = _mm512_set1_ps(*a_col.add(i));
                    ci[0] = _mm512_add_ps(ci[0], _mm512_mul_ps(a, b0));
                    ci[1] = _mm512_add_ps(ci[1], _mm512_mul_ps(a, b1));
                }
            }
        }
        for (cp, accp) in c.iter().zip(acc.iter_mut()) {
            for (ci, row) in cp.iter().zip(accp.iter_mut()) {
                _mm512_storeu_ps(row.as_mut_ptr(), ci[0]);
                _mm512_storeu_ps(row.as_mut_ptr().add(16), ci[1]);
            }
        }
    }
}

/// Runs `M` rows of an A panel against every B panel of `bp`: `PB`
/// panels per sweep through `wide`, the remainder one at a time through
/// `narrow`, storing each finished panel into `out`.
#[inline(always)]
fn small_block<const NR: usize, const M: usize, const PB: usize>(
    ap: &[f32],
    bp: &[f32],
    mut out: BlockOut<'_, '_>,
    wide: SmallKernel<M, PB, NR>,
    narrow: SmallKernel<M, 1, NR>,
) {
    let (k, panels) = (out.k, out.n.div_ceil(NR));
    let panel = |p: usize| &bp[p * k * NR..(p + 1) * k * NR];
    let mut p = 0;
    while p + PB <= panels {
        let group: [&[f32]; PB] = std::array::from_fn(|q| panel(p + q));
        let mut acc = [[[0.0f32; NR]; M]; PB];
        // SAFETY: `wide` is only ever a kernel whose target features were
        // verified by `resolve()` at dispatch.
        unsafe { wide(ap, &group, k, &mut acc) };
        for (q, tile) in acc.iter().enumerate() {
            store_tile::<NR>(tile, (p + q) * NR, &mut out);
        }
        p += PB;
    }
    while p < panels {
        let mut acc = [[[0.0f32; NR]; M]; 1];
        // SAFETY: as above.
        unsafe { narrow(ap, &[panel(p)], k, &mut acc) };
        store_tile::<NR>(&acc[0], p * NR, &mut out);
        p += 1;
    }
}

/// Small-m dispatch for the portable tier (`m < 4`).
fn small_rows_baseline(m: usize, ap: &[f32], bp: &[f32], out: BlockOut<'_, '_>) {
    match m {
        1 => small_block::<16, 1, 2>(ap, bp, out, sk_baseline::<1, 2>, sk_baseline::<1, 1>),
        2 => small_block::<16, 2, 1>(ap, bp, out, sk_baseline::<2, 1>, sk_baseline::<2, 1>),
        _ => small_block::<16, 3, 1>(ap, bp, out, sk_baseline::<3, 1>, sk_baseline::<3, 1>),
    }
}

/// Small-m dispatch for the AVX2 tier (`m < 6`).
#[cfg(target_arch = "x86_64")]
fn small_rows_avx2(m: usize, ap: &[f32], bp: &[f32], out: BlockOut<'_, '_>) {
    match m {
        1 => small_block::<16, 1, 4>(ap, bp, out, sk_avx2::<1, 4>, sk_avx2::<1, 1>),
        2 => small_block::<16, 2, 2>(ap, bp, out, sk_avx2::<2, 2>, sk_avx2::<2, 1>),
        3 => small_block::<16, 3, 1>(ap, bp, out, sk_avx2::<3, 1>, sk_avx2::<3, 1>),
        4 => small_block::<16, 4, 1>(ap, bp, out, sk_avx2::<4, 1>, sk_avx2::<4, 1>),
        _ => small_block::<16, 5, 1>(ap, bp, out, sk_avx2::<5, 1>, sk_avx2::<5, 1>),
    }
}

/// Small-m dispatch for the AVX-512 tier (`m < 8`).
#[cfg(target_arch = "x86_64")]
fn small_rows_avx512(m: usize, ap: &[f32], bp: &[f32], out: BlockOut<'_, '_>) {
    match m {
        1 => small_block::<32, 1, 4>(ap, bp, out, sk_avx512::<1, 4>, sk_avx512::<1, 1>),
        2 => small_block::<32, 2, 4>(ap, bp, out, sk_avx512::<2, 4>, sk_avx512::<2, 1>),
        3 => small_block::<32, 3, 2>(ap, bp, out, sk_avx512::<3, 2>, sk_avx512::<3, 1>),
        4 => small_block::<32, 4, 2>(ap, bp, out, sk_avx512::<4, 2>, sk_avx512::<4, 1>),
        5 => small_block::<32, 5, 1>(ap, bp, out, sk_avx512::<5, 1>, sk_avx512::<5, 1>),
        6 => small_block::<32, 6, 1>(ap, bp, out, sk_avx512::<6, 1>, sk_avx512::<6, 1>),
        _ => small_block::<32, 7, 1>(ap, bp, out, sk_avx512::<7, 1>, sk_avx512::<7, 1>),
    }
}

/// Runs the packed kernel over one contiguous band of output rows
/// `[row0, row0 + band.len()/n)`, tiling the band into `MR × NR` register
/// tiles; a final block of fewer than `MR` rows goes to `small`. `bp` is
/// the shared pre-packed B; A panels are packed into the band-local `ap`
/// scratch.
#[allow(clippy::too_many_arguments)] // internal driver; the arguments are the GEMM
fn band_gemm<const MR: usize, const NR: usize>(
    a: Operand<'_>,
    bp: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    band: &mut [f32],
    epilogue: Epilogue<'_>,
    (mk, small): (Microkernel<MR, NR>, SmallRows),
) {
    let rows = band.len() / n;
    let mut ap = vec![0.0f32; k * MR];
    let panels = n.div_ceil(NR);
    let mut bi = 0usize;
    while bi < rows {
        let mrows = MR.min(rows - bi);
        pack_a::<MR>(a, k, row0 + bi, mrows, &mut ap);
        let mut out = BlockOut { band: &mut *band, bi, row0, k, n, epilogue };
        if mrows < MR {
            small(mrows, &ap, bp, out);
        } else {
            for p in 0..panels {
                let panel = &bp[p * k * NR..(p + 1) * k * NR];
                let mut acc = [[0.0f32; NR]; MR];
                // SAFETY: `mk` is only ever a kernel whose required target
                // features were verified by `resolve()` at dispatch.
                unsafe { mk(&ap, panel, k, &mut acc) };
                store_tile::<NR>(&acc, p * NR, &mut out);
            }
        }
        bi += mrows;
    }
}

/// Band-parallel driver over an already packed B (`bp`, in the layout of
/// [`pack_b::<NR>`](pack_b)).
fn drive<const MR: usize, const NR: usize>(
    a: Operand<'_>,
    bp: &[f32],
    (_m, k, n): (usize, usize, usize),
    threads: usize,
    epilogue: Epilogue<'_>,
    out: &mut [f32],
    kernels: (Microkernel<MR, NR>, SmallRows),
) {
    parallel::for_each_band(out, n, threads, |row0, band| {
        band_gemm::<MR, NR>(a, bp, k, n, row0, band, epilogue, kernels);
    });
}

/// The packed GEMM entry point: `out[m, n] = epilogue(A[m, k] · B[k, n])`,
/// band-parallel over output rows with `threads` workers.
///
/// `out` must be `m·n` long; it is fully overwritten. Transposed operand
/// views make `A·Bᵀ` and `Aᵀ·B` the same kernel. `k == 0` stores the
/// epilogue of an all-zero product.
pub(crate) fn gemm(
    a: Operand<'_>,
    b: Operand<'_>,
    dims: (usize, usize, usize),
    threads: usize,
    epilogue: Epilogue<'_>,
    out: &mut [f32],
) {
    gemm_with(active_simd(), a, b, dims, threads, epilogue, out);
}

/// [`gemm`] with an explicit SIMD tier — the tier-comparison seam used by
/// the `simd_tiers_agree_bitwise` test; production code always goes through
/// [`gemm`]/[`active_simd`].
pub(crate) fn gemm_with(
    simd: Simd,
    a: Operand<'_>,
    b: Operand<'_>,
    dims: (usize, usize, usize),
    threads: usize,
    epilogue: Epilogue<'_>,
    out: &mut [f32],
) {
    let (m, k, n) = dims;
    debug_assert_eq!(out.len(), m * n, "output buffer must be m·n");
    if m == 0 || n == 0 {
        return;
    }
    let simd = resolve(simd);
    let bp = pack_for(simd, b, k, n);
    run_packed(simd, a, &bp, dims, threads, epilogue, out);
}

/// Packs B in the panel layout of a resolved tier.
fn pack_for(simd: Simd, b: Operand<'_>, k: usize, n: usize) -> Vec<f32> {
    match simd {
        Simd::Avx512 => pack_b::<32>(b, k, n),
        Simd::Avx2 | Simd::Baseline => pack_b::<16>(b, k, n),
    }
}

/// Runs the kernels of a resolved tier over B panels packed by
/// [`pack_for`] for that same tier.
fn run_packed(
    simd: Simd,
    a: Operand<'_>,
    bp: &[f32],
    dims: (usize, usize, usize),
    threads: usize,
    epilogue: Epilogue<'_>,
    out: &mut [f32],
) {
    match simd {
        #[cfg(target_arch = "x86_64")]
        Simd::Avx512 => {
            drive::<8, 32>(a, bp, dims, threads, epilogue, out, (mk_avx512, small_rows_avx512))
        }
        #[cfg(target_arch = "x86_64")]
        Simd::Avx2 => drive::<6, 16>(a, bp, dims, threads, epilogue, out, (mk_avx2, small_rows_avx2)),
        _ => drive::<4, 16>(a, bp, dims, threads, epilogue, out, (mk_baseline, small_rows_baseline)),
    }
}

/// A GEMM right-hand side `B[k, n]` packed once, in the panel layout of
/// the tier it was packed for, so repeated products against the same
/// matrix (a frozen weight) skip the per-call B packing.
///
/// Multiply with [`Tensor::matmul_prepacked`]; the result is bitwise
/// identical to [`Tensor::matmul`] against the unpacked matrix.
#[derive(Debug, Clone)]
pub struct PackedRhs {
    /// Resolved tier; `panels` is laid out for its `NR`.
    simd: Simd,
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedRhs {
    /// Packs a rank-2 `[k, n]` matrix for the process's active tier.
    pub fn new(b: &Tensor) -> crate::Result<PackedRhs> {
        PackedRhs::with_simd(active_simd(), b)
    }

    /// [`PackedRhs::new`] for an explicit tier — the tier-comparison seam
    /// (a tier the host lacks packs for the portable fallback, as
    /// dispatch would run it).
    pub fn with_simd(simd: Simd, b: &Tensor) -> crate::Result<PackedRhs> {
        if b.rank() != 2 {
            return Err(TensorError::RankMismatch { got: b.rank(), expected: 2, op: "PackedRhs" });
        }
        let simd = resolve(simd);
        let (k, n) = (b.rows(), b.cols());
        let panels = pack_for(simd, Operand::plain(b.as_slice(), n), k, n);
        Ok(PackedRhs { simd, k, n, panels })
    }

    /// Rows of the packed matrix (the GEMM's `k`).
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Columns of the packed matrix (the GEMM's `n`).
    pub fn cols(&self) -> usize {
        self.n
    }
}

/// `out[m, n] = A[m, k] · B` over a [`PackedRhs`], band-parallel over
/// output rows like [`gemm`].
pub(crate) fn gemm_prepacked(
    a: Operand<'_>,
    b: &PackedRhs,
    m: usize,
    threads: usize,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), m * b.n, "output buffer must be m·n");
    if m == 0 || b.n == 0 {
        return;
    }
    run_packed(b.simd, a, &b.panels, (m, b.k, b.n), threads, Epilogue::None, out);
}

/// The SIMD tiers this host supports, highest first — the set a
/// cross-tier bitwise comparison iterates over.
pub fn supported_tiers() -> Vec<Simd> {
    let mut tiers = vec![Simd::Baseline];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            tiers.push(Simd::Avx2);
        }
        if is_x86_feature_detected!("avx512f") {
            tiers.push(Simd::Avx512);
        }
    }
    tiers.reverse();
    tiers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use crate::Tensor;

    fn gemm_plain(simd: Simd, a: &Tensor, b: &Tensor, threads: usize) -> Vec<f32> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = vec![0.0f32; m * n];
        gemm_with(
            simd,
            Operand::plain(a.as_slice(), k),
            Operand::plain(b.as_slice(), n),
            (m, k, n),
            threads,
            Epilogue::None,
            &mut out,
        );
        out
    }

    #[test]
    fn simd_tiers_agree_bitwise() {
        let mut rng = Rng64::new(11);
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (7, 63, 9), (33, 65, 37), (64, 64, 64)] {
            let a = Tensor::randn([m, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
            let tiers = supported_tiers();
            let reference = gemm_plain(tiers[0], &a, &b, 1);
            for &tier in &tiers[1..] {
                let got = gemm_plain(tier, &a, &b, 1);
                let same = got.iter().zip(&reference).all(|(x, y)| x.to_bits() == y.to_bits());
                assert!(same, "tier {:?} diverged from {:?} on ({m},{k},{n})", tier, tiers[0]);
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every row count from empty through two full tiles on every tier —
    /// so each small-m width (`m < MR`) and each band tail is exercised —
    /// against the legacy serial loop, through both the per-call packing
    /// and a [`PackedRhs`], at several band counts.
    #[test]
    fn small_m_and_prepacked_match_legacy_loop_on_every_tier() {
        let mut rng = Rng64::new(13);
        for &(k, n) in &[(1usize, 1usize), (63, 9), (80, 130), (129, 64)] {
            let a = Tensor::randn([17, k], 0.0, 1.0, &mut rng);
            let b = Tensor::randn([k, n], 0.0, 1.0, &mut rng);
            for m in 0..=17 {
                let a = a.slice_rows(0, m).unwrap();
                let reference = crate::matmul::matmul_unpacked_reference(&a, &b).unwrap();
                for tier in supported_tiers() {
                    let packed = PackedRhs::with_simd(tier, &b).unwrap();
                    for threads in [1usize, 2, 4] {
                        let per_call = gemm_plain(tier, &a, &b, threads);
                        let mut pre = vec![0.0f32; m * n];
                        gemm_prepacked(Operand::plain(a.as_slice(), k), &packed, m, threads, &mut pre);
                        let want = bits(reference.as_slice());
                        assert_eq!(bits(&per_call), want, "{tier:?} per-call ({m},{k},{n}) t{threads}");
                        assert_eq!(bits(&pre), want, "{tier:?} prepacked ({m},{k},{n}) t{threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn prepacked_propagates_nan_on_every_tier() {
        // A is all zeros; a NaN in B row 3, column 2 must reach column 2 of
        // every output row (`0 · NaN = NaN`), small-m rows included.
        let (k, n) = (7usize, 40usize);
        let mut b = Tensor::zeros([k, n]);
        b.set(&[3, 2], f32::NAN).unwrap();
        for tier in supported_tiers() {
            let packed = PackedRhs::with_simd(tier, &b).unwrap();
            for m in [1usize, 3, 9] {
                let a = Tensor::zeros([m, k]);
                let mut out = vec![0.0f32; m * n];
                gemm_prepacked(Operand::plain(a.as_slice(), k), &packed, m, 1, &mut out);
                for i in 0..m {
                    assert!(out[i * n + 2].is_nan(), "{tier:?} m={m} row {i}");
                    assert_eq!(out[i * n], 0.0);
                }
            }
        }
    }

    #[test]
    fn transposed_packing_matches_materialised_transpose() {
        let mut rng = Rng64::new(12);
        let x = Tensor::randn([13, 21], 0.0, 1.0, &mut rng); // [m, k]
        let y = Tensor::randn([17, 21], 0.0, 1.0, &mut rng); // [n, k] (to be read as Bᵀ)
        let y_t = y.transpose().unwrap(); // [k, n]
        let (m, k, n) = (13, 21, 17);
        let mut via_view = vec![0.0f32; m * n];
        gemm(
            Operand::plain(x.as_slice(), k),
            Operand::transposed(y.as_slice(), k),
            (m, k, n),
            1,
            Epilogue::None,
            &mut via_view,
        );
        let mut via_copy = vec![0.0f32; m * n];
        gemm(
            Operand::plain(x.as_slice(), k),
            Operand::plain(y_t.as_slice(), n),
            (m, k, n),
            1,
            Epilogue::None,
            &mut via_copy,
        );
        assert_eq!(via_view, via_copy);
    }

    #[test]
    fn zero_k_stores_epilogue_of_zero_product() {
        let mut out = vec![42.0f32; 6];
        gemm(
            Operand::plain(&[], 0),
            Operand::plain(&[], 2),
            (3, 0, 2),
            1,
            Epilogue::None,
            &mut out,
        );
        assert_eq!(out, vec![0.0; 6]);

        let x_sq = [1.0f32, 2.0, 3.0];
        let y_sq = [0.5f32, 4.0];
        let mut out = vec![0.0f32; 6];
        gemm(
            Operand::plain(&[], 0),
            Operand::plain(&[], 2),
            (3, 0, 2),
            1,
            Epilogue::SqDist { x_sq: &x_sq, y_sq: &y_sq },
            &mut out,
        );
        assert_eq!(out, vec![1.5, 5.0, 2.5, 6.0, 3.5, 7.0]);
    }

    #[test]
    fn parse_simd_grammar() {
        assert_eq!(parse_simd("auto"), Ok(None));
        assert_eq!(parse_simd(""), Ok(None));
        assert_eq!(parse_simd(" AVX2 "), Ok(Some(Simd::Avx2)));
        assert_eq!(parse_simd("avx512"), Ok(Some(Simd::Avx512)));
        assert_eq!(parse_simd("avx512f"), Ok(Some(Simd::Avx512)));
        assert_eq!(parse_simd("baseline"), Ok(Some(Simd::Baseline)));
        assert_eq!(parse_simd("scalar"), Ok(Some(Simd::Baseline)));
        assert_eq!(parse_simd("turbo"), Err(()));
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in [Simd::Avx512, Simd::Avx2, Simd::Baseline] {
            assert_eq!(parse_simd(tier.name()), Ok(Some(tier)));
        }
    }
}
