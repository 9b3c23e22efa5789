//! The 80 statistical features of §6.1.1.
//!
//! The paper: "We extract 80 statistical features such as the average, the
//! variance for each feature, the average jerk, and the variance of the
//! jerk for each three-dimensional feature sensor." The concrete layout
//! implemented here (and documented in DESIGN.md §5):
//!
//! | slot      | content                                                     |
//! |-----------|-------------------------------------------------------------|
//! | 0..44     | per-channel mean and variance (22 channels × 2)             |
//! | 44..74    | per-triad (5 triads × 6): magnitude mean, magnitude        |
//! |           | variance, jerk mean, jerk variance, energy, zero-crossing  |
//! |           | rate of the mean-removed magnitude                          |
//! | 74..80    | window-global: total energy, mean |derivative|, min, max,   |
//! |           | range, std of per-channel energies                          |
//!
//! Extraction is two passes over the window's contiguous rows — linear
//! time, matching the paper's edge-latency argument.

use crate::sensors::{Triad, CHANNELS, TRIADS};
use crate::simulate::RawDataset;
use pilote_tensor::{parallel, Tensor, TensorError};

/// Dimensionality of the feature vector (the embedding network's input).
pub const FEATURE_DIM: usize = 80;

/// Offset of the per-channel block.
const CHANNEL_BLOCK: usize = 0;
/// Offset of the per-triad block.
const TRIAD_BLOCK: usize = 44;
/// Offset of the global block.
const GLOBAL_BLOCK: usize = 74;

/// Extracts the 80-dimensional feature vector from a `[time, 22]` window.
///
/// Two passes over the window's contiguous rows: the first accumulates
/// every sum the means need, the second every squared deviation and the
/// zero crossings. Each f64 accumulator adds its terms in ascending time
/// order (channel order within a row for the window-global sums), so a
/// feature's value depends only on the window, never on how the passes
/// are grouped.
pub fn extract(window: &Tensor) -> Result<Tensor, TensorError> {
    if window.rank() != 2 || window.cols() != CHANNELS {
        return Err(TensorError::ShapeMismatch {
            left: window.shape().dims().to_vec(),
            right: vec![CHANNELS],
            op: "features::extract",
        });
    }
    let n = window.rows();
    if n < 2 {
        return Err(TensorError::Empty { op: "features::extract (need ≥ 2 samples)" });
    }
    let nf = n as f64;
    let jn = (n - 1) as f64;
    let triads = Triad::ALL.map(Triad::channels);
    let mut out = vec![0.0f32; FEATURE_DIM];

    // ---- pass 1: sums ------------------------------------------------------
    let mut ch_mean = [0.0f64; CHANNELS];
    let mut mag_mean = [0.0f64; TRIADS];
    let mut energy = [0.0f64; TRIADS];
    let mut jerk_mean = [0.0f64; TRIADS];
    let mut total_energy = 0.0f64;
    let mut mean_abs_deriv = 0.0f64;
    let mut gmin = f64::INFINITY;
    let mut gmax = f64::NEG_INFINITY;
    let mut ch_energy = [0.0f64; CHANNELS];
    let mut prev: Option<&Row> = None;
    for row in rows(window) {
        for (ch, &x) in row.iter().enumerate() {
            let v = x as f64;
            ch_mean[ch] += v;
            total_energy += v * v;
            ch_energy[ch] += v * v;
            // Strict comparisons: a NaN never replaces the running
            // extreme, and of equal values (+0.0, -0.0) the first in time
            // order stays — the order `f64::min`/`max` leave unspecified.
            if v < gmin {
                gmin = v;
            }
            if v > gmax {
                gmax = v;
            }
            if let Some(p) = prev {
                mean_abs_deriv += (v - p[ch] as f64).abs();
            }
        }
        for ((sum, e), &mag) in mag_mean.iter_mut().zip(&mut energy).zip(&magnitudes(row, &triads)) {
            let mag = mag as f64;
            *sum += mag;
            *e += mag.powi(2);
        }
        if let Some(p) = prev {
            for (sum, &jerk) in jerk_mean.iter_mut().zip(&jerks(p, row, &triads)) {
                *sum += jerk as f64;
            }
        }
        prev = Some(row);
    }
    ch_mean.iter_mut().for_each(|m| *m /= nf);
    mag_mean.iter_mut().for_each(|m| *m /= nf);
    jerk_mean.iter_mut().for_each(|m| *m /= jn);

    // ---- pass 2: squared deviations and zero crossings ---------------------
    let mut ch_var = [0.0f64; CHANNELS];
    let mut mag_var = [0.0f64; TRIADS];
    let mut jerk_var = [0.0f64; TRIADS];
    // Zero crossings of the mean-removed magnitude — a cheap
    // dominant-frequency proxy (≈ 2·f/rate for a sinusoid).
    let mut crossings = [0usize; TRIADS];
    let mut prev_dev = [0.0f64; TRIADS];
    let mut prev: Option<&Row> = None;
    for row in rows(window) {
        for ((v, &x), &m) in ch_var.iter_mut().zip(row).zip(&ch_mean) {
            let d = x as f64 - m;
            *v += d * d;
        }
        let mags = magnitudes(row, &triads);
        let jerks = prev.map(|p| jerks(p, row, &triads));
        for ti in 0..TRIADS {
            let dev = mags[ti] as f64 - mag_mean[ti];
            mag_var[ti] += dev.powi(2);
            if let Some(jerks) = jerks {
                jerk_var[ti] += (jerks[ti] as f64 - jerk_mean[ti]).powi(2);
                if prev_dev[ti].signum() != dev.signum() && dev != 0.0 {
                    crossings[ti] += 1;
                }
            }
            prev_dev[ti] = dev;
        }
        prev = Some(row);
    }

    for ch in 0..CHANNELS {
        out[CHANNEL_BLOCK + 2 * ch] = ch_mean[ch] as f32;
        out[CHANNEL_BLOCK + 2 * ch + 1] = (ch_var[ch] / nf) as f32;
    }
    for ti in 0..TRIADS {
        let base = TRIAD_BLOCK + 6 * ti;
        out[base] = mag_mean[ti] as f32;
        out[base + 1] = (mag_var[ti] / nf) as f32;
        out[base + 2] = jerk_mean[ti] as f32;
        out[base + 3] = (jerk_var[ti] / jn) as f32;
        out[base + 4] = (energy[ti] / nf) as f32;
        out[base + 5] = (crossings[ti] as f64 / jn) as f32;
    }

    // ---- window-global statistics ----------------------------------------
    total_energy /= nf * CHANNELS as f64;
    mean_abs_deriv /= jn * CHANNELS as f64;
    for e in &mut ch_energy {
        *e /= nf;
    }
    let e_mean = ch_energy.iter().sum::<f64>() / CHANNELS as f64;
    let e_std = (ch_energy.iter().map(|&e| (e - e_mean).powi(2)).sum::<f64>()
        / CHANNELS as f64)
        .sqrt();

    out[GLOBAL_BLOCK] = total_energy as f32;
    out[GLOBAL_BLOCK + 1] = mean_abs_deriv as f32;
    out[GLOBAL_BLOCK + 2] = gmin as f32;
    out[GLOBAL_BLOCK + 3] = gmax as f32;
    out[GLOBAL_BLOCK + 4] = (gmax - gmin) as f32;
    out[GLOBAL_BLOCK + 5] = e_std as f32;

    Tensor::from_vec(out, [FEATURE_DIM])
}

/// One time step of a window: a sample of every channel.
type Row = [f32; CHANNELS];

/// The window's rows, in time order.
fn rows(window: &Tensor) -> impl Iterator<Item = &Row> {
    window
        .as_slice()
        .chunks_exact(CHANNELS)
        .map(|r| r.try_into().expect("chunks_exact yields CHANNELS-wide rows"))
}

/// Lanes of the per-row triad norm arrays: `TRIADS` rounded up so the
/// square roots run as whole vector operations (spare lanes hold 0).
const NORM_LANES: usize = 8;

/// The Euclidean norm of each triad's sample in `row` — lane `ti` is
/// `(x·x + y·y + z·z).sqrt()` of triad `ti`.
#[inline(always)]
fn magnitudes(row: &Row, triads: &[[usize; 3]; TRIADS]) -> [f32; NORM_LANES] {
    let mut sq = [0.0f32; NORM_LANES];
    for (s, &[cx, cy, cz]) in sq.iter_mut().zip(triads) {
        let (x, y, z) = (row[cx], row[cy], row[cz]);
        *s = x * x + y * y + z * z;
    }
    sq.map(f32::sqrt)
}

/// The norm of each triad's sample-to-sample difference from `prev` to
/// `row` (the per-sample jerk magnitude), lane per triad.
#[inline(always)]
fn jerks(prev: &Row, row: &Row, triads: &[[usize; 3]; TRIADS]) -> [f32; NORM_LANES] {
    let mut sq = [0.0f32; NORM_LANES];
    for (s, &[cx, cy, cz]) in sq.iter_mut().zip(triads) {
        let dx = row[cx] - prev[cx];
        let dy = row[cy] - prev[cy];
        let dz = row[cz] - prev[cz];
        *s = dx * dx + dy * dy + dz * dz;
    }
    sq.map(f32::sqrt)
}

/// Extracts features from a slice of `[time, 22]` windows in parallel,
/// producing an `[n, 80]` feature matrix.
///
/// This is the batched feature front-end of the serving path: both offline
/// dataset preparation ([`extract_batch`]) and the streaming assembler's
/// block path (`WindowAssembler::push_block`) funnel their windows through
/// it, so feature extraction is batch-shaped end to end before the
/// GEMM-shaped embedding/classification stages take over.
///
/// Windows are processed in contiguous bands via the `pilote-tensor`
/// parallel layer (`docs/THREADING.md`); each window's feature vector is
/// computed by exactly one thread with the serial [`extract`] kernel, so
/// the matrix is bitwise-identical at any thread count. The first error
/// encountered (in window order) is returned.
pub fn extract_windows(windows: &[Tensor]) -> Result<Tensor, TensorError> {
    let n = windows.len();
    let work: usize = windows.iter().map(Tensor::len).sum();
    let threads = parallel::effective_threads(work);
    let bands = parallel::map_bands(n, threads, |range| {
        let mut data = Vec::with_capacity(range.len() * FEATURE_DIM);
        for w in &windows[range] {
            data.extend_from_slice(extract(w)?.as_slice());
        }
        Ok::<Vec<f32>, TensorError>(data)
    });
    let mut data = Vec::with_capacity(n * FEATURE_DIM);
    for band in bands {
        data.extend_from_slice(&band?);
    }
    Tensor::from_vec(data, [n, FEATURE_DIM])
}

/// Extracts features from every window of a raw dataset in parallel,
/// producing an `[n, 80]` feature matrix. See [`extract_windows`].
pub fn extract_batch(raw: &RawDataset) -> Result<Tensor, TensorError> {
    extract_windows(&raw.windows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::Activity;
    use crate::simulate::Simulator;
    use pilote_tensor::Rng64;

    #[test]
    fn feature_vector_has_contract_dimension() {
        let mut sim = Simulator::with_seed(1);
        let f = extract(&sim.window(Activity::Walk)).unwrap();
        assert_eq!(f.len(), FEATURE_DIM);
        assert!(f.all_finite());
    }

    #[test]
    fn rejects_wrong_channel_count() {
        assert!(extract(&Tensor::zeros([120, 10])).is_err());
        assert!(extract(&Tensor::zeros([1, CHANNELS])).is_err());
    }

    #[test]
    fn constant_window_features() {
        let w = Tensor::full([120, CHANNELS], 2.0);
        let f = extract(&w).unwrap();
        // channel 0 mean = 2, var = 0
        assert!((f.as_slice()[0] - 2.0).abs() < 1e-5);
        assert!(f.as_slice()[1].abs() < 1e-7);
        // jerk of a constant signal is zero
        assert!(f.as_slice()[TRIAD_BLOCK + 2].abs() < 1e-7);
        // min = max = 2 → range 0
        assert!((f.as_slice()[GLOBAL_BLOCK + 2] - 2.0).abs() < 1e-6);
        assert!(f.as_slice()[GLOBAL_BLOCK + 4].abs() < 1e-6);
    }

    #[test]
    fn zcr_tracks_frequency() {
        // Build a window whose accelerometer x is a pure sinusoid.
        let mut data = vec![0.0f32; 120 * CHANNELS];
        for t in 0..120 {
            data[t * CHANNELS] = (std::f32::consts::TAU * 5.0 * t as f32 / 120.0).sin();
        }
        let w = Tensor::from_vec(data, [120, CHANNELS]).unwrap();
        let f = extract(&w).unwrap();
        // Magnitude of the accelerometer triad = |sin|; mean-removed |sin|
        // crosses zero at 4× the base frequency: ≈ 20 crossings / 119.
        let zcr = f.as_slice()[TRIAD_BLOCK + 5];
        assert!(zcr > 0.1 && zcr < 0.25, "zcr {zcr}");
    }

    #[test]
    fn run_has_higher_jerk_than_still() {
        let mut sim = Simulator::with_seed(2);
        let acc_jerk = TRIAD_BLOCK + 2; // accelerometer jerk mean
        let mean_of = |sim: &mut Simulator, a: Activity| {
            (0..10)
                .map(|_| extract(&sim.window(a)).unwrap().as_slice()[acc_jerk])
                .sum::<f32>()
                / 10.0
        };
        let run = mean_of(&mut sim, Activity::Run);
        let still = mean_of(&mut sim, Activity::Still);
        assert!(run > 3.0 * still, "run {run} vs still {still}");
    }

    #[test]
    fn batch_extraction_matches_single() {
        let mut sim = Simulator::with_seed(3);
        let raw = sim.raw_dataset(&[(Activity::Walk, 4), (Activity::Drive, 3)]);
        let batch = extract_batch(&raw).unwrap();
        assert_eq!(batch.shape().dims(), &[7, FEATURE_DIM]);
        for (i, w) in raw.windows.iter().enumerate() {
            let single = extract(w).unwrap();
            let row = Tensor::vector(batch.row(i));
            assert!(row.max_abs_diff(&single).unwrap() < 1e-7, "row {i}");
        }
    }

    #[test]
    fn features_finite_for_extreme_inputs() {
        let mut rng = Rng64::new(4);
        let w = Tensor::randn([120, CHANNELS], 0.0, 1e4, &mut rng);
        let f = extract(&w).unwrap();
        assert!(f.all_finite());
    }
}
