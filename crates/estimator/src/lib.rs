//! Single-pass Poissonized multi-bootstrap error estimation.
//!
//! Closed-form variance formulas (Table 2 of the paper) exist only for
//! the standard aggregates. The paper's answer for everything else —
//! nested and derived aggregates, UDAFs, complex predicates — is the
//! statistical bootstrap: re-run the estimator over resamples of the
//! sample and read the error off the spread of the replicate estimates.
//! A naive bootstrap re-scans the data `B` times; this crate computes
//! all `B` resamples in **one scan**, the way VerdictDB's variational
//! subsampling makes resampling affordable:
//!
//! * Every scanned row carries `B` resampling multiplicities derived
//!   *deterministically* from `(row_id, replicate, epoch-seed)` via the
//!   counter-hashed, byte-quantized
//!   [`blinkdb_common::rng::POISSON1_PM1`] sampler — no RNG state, no
//!   allocation, no second pass.
//! * Raw `Poisson(1)` draws are rescaled per Rao–Wu so that, for a row
//!   with Horvitz–Thompson weight `w`, the multiplier
//!   `m = 1 + (p − 1)·√(1 − 1/w)` reproduces the *design* variance of
//!   the sampling scheme: linear statistics get `Var(Σ m·w·x) =
//!   Σ w(w−1)x²` — exactly the closed form — and fully-observed rows
//!   (`w = 1`) are deterministic, so exact answers stay exact.
//! * Replicate states are plain vectors of weighted moments, **linear
//!   in the observations**: merging two partitions' replicate states is
//!   elementwise addition, so bootstrap composes with partitioned
//!   fan-out and early termination exactly like
//!   `PartialAggregates::merge`.
//!
//! The [`BootstrapAgg`] trait generalizes which aggregates can ride the
//! engine: an aggregate declares the per-replicate moment entries it
//! needs ([`BootstrapAgg::entries`]), how a row folds into them
//! ([`BootstrapAgg::coefficients`] — linear coefficients, so the SoA
//! replicate update vectorizes), and how a replicate state finalizes
//! into a point estimate ([`BootstrapAgg::finalize`] — arbitrarily
//! non-linear). Built-ins cover COUNT/SUM/AVG (for calibration against
//! the closed forms) plus the closed-form-less `RATIO(a,b)` and
//! `STDDEV(x)`; [`FnAgg`] composes UDAF-style aggregates from plain
//! function pointers.

#![warn(missing_docs)]

use blinkdb_common::rng::{mix2, POISSON1_PM1};
use std::fmt;
use std::sync::Arc;

/// Default replicate count `B` when a policy asks for bootstrap without
/// specifying one. 100 replicates put ~±15% noise on the estimated σ —
/// the paper's operating point for per-query error bars.
pub const DEFAULT_REPLICATES: u32 = 100;

/// Rows with HT weight below this are treated as deterministic (fully
/// observed): their Rao–Wu rescale factor `√(1 − 1/w)` is 0 anyway, so
/// they skip the replicate loop entirely.
const W_EXACT: f64 = 1.0 + 1e-12;

/// Maximum moment entries per replicate state. Finalization works on a
/// stack scratch buffer of this width (no allocation in the per-partition
/// bound checks); [`Replicates::new`] rejects wider aggregates up front.
pub const MAX_ENTRIES: usize = 8;

/// How a query's bootstrap pass is parameterized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapSpec {
    /// Replicate count `B`.
    pub replicates: u32,
    /// Stream seed; the pipeline derives it from `(config seed, data
    /// epoch)` so the same query at the same epoch draws the same
    /// multiplicities — bit-reproducible error bars.
    pub seed: u64,
    /// When `true` ([`core`'s `BootstrapAlways`][self]), even aggregates
    /// with a closed form are error-bounded by bootstrap — the
    /// calibration harness uses this to compare the two on one scan.
    pub force: bool,
}

impl BootstrapSpec {
    /// A spec with the default replicate count.
    pub fn new(seed: u64) -> Self {
        BootstrapSpec {
            replicates: DEFAULT_REPLICATES,
            seed,
            force: false,
        }
    }
}

/// An aggregate that can be error-estimated by the bootstrap engine.
///
/// The contract splits the aggregate into a **linear** accumulation and
/// a **free-form** finalization:
///
/// * [`BootstrapAgg::coefficients`] maps one matching row `(x, y, w)`
///   to per-entry coefficients `c_j`; replicate `b`'s state is
///   `state_j = Σ_rows m_b(row) · c_j(row)`. Linearity is what makes
///   replicate states mergeable across partitions by addition.
/// * [`BootstrapAgg::finalize`] turns a replicate's moment vector into
///   a scalar estimate and may be arbitrarily non-linear (ratios,
///   square roots, composed expressions) — that is where bootstrap
///   beats the delta method.
pub trait BootstrapAgg: fmt::Debug + Send + Sync {
    /// Number of moment entries per replicate state (at most
    /// [`MAX_ENTRIES`]; [`Replicates::new`] panics on wider aggregates).
    fn entries(&self) -> usize;
    /// Writes the row's linear coefficients into `out`
    /// (`out.len() == self.entries()`). `x`/`y` are the aggregate's
    /// first/second argument (0.0 when absent), `w` the row's HT weight.
    fn coefficients(&self, x: f64, y: f64, w: f64, out: &mut [f64]);
    /// Point estimate from one replicate's accumulated moments.
    fn finalize(&self, state: &[f64]) -> f64;
}

/// `COUNT(*)` / `COUNT(col)`: state `[Σ mw]`.
#[derive(Debug, Clone, Copy)]
pub struct CountAgg;

impl BootstrapAgg for CountAgg {
    fn entries(&self) -> usize {
        1
    }
    fn coefficients(&self, _x: f64, _y: f64, w: f64, out: &mut [f64]) {
        out[0] = w;
    }
    fn finalize(&self, state: &[f64]) -> f64 {
        state[0]
    }
}

/// `SUM(col)`: state `[Σ mwx]`.
#[derive(Debug, Clone, Copy)]
pub struct SumAgg;

impl BootstrapAgg for SumAgg {
    fn entries(&self) -> usize {
        1
    }
    fn coefficients(&self, x: f64, _y: f64, w: f64, out: &mut [f64]) {
        out[0] = w * x;
    }
    fn finalize(&self, state: &[f64]) -> f64 {
        state[0]
    }
}

/// `AVG(col)`: state `[Σ mw, Σ mwx]`, finalized as their ratio.
#[derive(Debug, Clone, Copy)]
pub struct AvgAgg;

impl BootstrapAgg for AvgAgg {
    fn entries(&self) -> usize {
        2
    }
    fn coefficients(&self, x: f64, _y: f64, w: f64, out: &mut [f64]) {
        out[0] = w;
        out[1] = w * x;
    }
    fn finalize(&self, state: &[f64]) -> f64 {
        if state[0] == 0.0 {
            0.0
        } else {
            state[1] / state[0]
        }
    }
}

/// `RATIO(a, b) = Σwa / Σwb` — a derived aggregate with no Table 2
/// closed form. State `[Σ mwx, Σ mwy]`.
#[derive(Debug, Clone, Copy)]
pub struct RatioAgg;

impl BootstrapAgg for RatioAgg {
    fn entries(&self) -> usize {
        2
    }
    fn coefficients(&self, x: f64, y: f64, w: f64, out: &mut [f64]) {
        out[0] = w * x;
        out[1] = w * y;
    }
    fn finalize(&self, state: &[f64]) -> f64 {
        if state[1] == 0.0 {
            0.0
        } else {
            state[0] / state[1]
        }
    }
}

/// `STDDEV(col)` — the weighted population standard deviation, another
/// closed-form-less aggregate. State `[Σ mw, Σ mwx, Σ mwx²]`.
#[derive(Debug, Clone, Copy)]
pub struct StddevAgg;

impl BootstrapAgg for StddevAgg {
    fn entries(&self) -> usize {
        3
    }
    fn coefficients(&self, x: f64, _y: f64, w: f64, out: &mut [f64]) {
        out[0] = w;
        out[1] = w * x;
        out[2] = w * x * x;
    }
    fn finalize(&self, state: &[f64]) -> f64 {
        if state[0] == 0.0 {
            return 0.0;
        }
        let mu = state[1] / state[0];
        (state[2] / state[0] - mu * mu).max(0.0).sqrt()
    }
}

/// A UDAF-style composed aggregate built from plain function pointers:
/// any statistic expressible as `finalize(moment vector)` rides the
/// bootstrap engine with zero engine changes — the generality the paper
/// claims for bootstrap-based error estimation.
///
/// # Examples
///
/// The coefficient of variation `σ/μ` (stddev over mean), which has no
/// closed-form variance:
///
/// ```
/// use blinkdb_estimator::{BootstrapAgg, FnAgg};
/// let cv = FnAgg {
///     name: "cv",
///     len: 3,
///     coefficients: |x, _y, w, out| {
///         out[0] = w;
///         out[1] = w * x;
///         out[2] = w * x * x;
///     },
///     finalize: |s| {
///         let mu = s[1] / s[0];
///         ((s[2] / s[0] - mu * mu).max(0.0)).sqrt() / mu
///     },
/// };
/// assert_eq!(cv.entries(), 3);
/// ```
#[derive(Clone, Copy)]
pub struct FnAgg {
    /// Display name (diagnostics only).
    pub name: &'static str,
    /// Moment entries per replicate (at most [`MAX_ENTRIES`]).
    pub len: usize,
    /// Linear per-row coefficients (same contract as
    /// [`BootstrapAgg::coefficients`]).
    pub coefficients: fn(f64, f64, f64, &mut [f64]),
    /// Non-linear finalization of a replicate's moments.
    pub finalize: fn(&[f64]) -> f64,
}

impl fmt::Debug for FnAgg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnAgg")
            .field("name", &self.name)
            .field("len", &self.len)
            .finish()
    }
}

impl BootstrapAgg for FnAgg {
    fn entries(&self) -> usize {
        self.len
    }
    fn coefficients(&self, x: f64, y: f64, w: f64, out: &mut [f64]) {
        (self.coefficients)(x, y, w, out)
    }
    fn finalize(&self, state: &[f64]) -> f64 {
        (self.finalize)(state)
    }
}

/// Fills `out` (length `B`) with the row's replicate multipliers
/// `m_b = 1 + (p_b − 1)·rescale`, where `p_b ~ Poisson(1)` is drawn
/// deterministically from `(seed, row_key, b)`.
///
/// Shared across every aggregate of the row — all accumulators see the
/// *same* resampled row, which is what makes the B replicates coherent
/// resamples of the input rather than independent noise per aggregate.
/// Each counter-hash ([`mix2`], no serial dependency between chunks)
/// feeds *eight* byte-quantized draws through the branchless
/// [`POISSON1_PM1`] table, so a sampled row costs `⌈B/8⌉` hashes plus
/// `B` fused multiply-adds — the whole multi-bootstrap stays a single
/// pass with O(B) extra work per sampled row.
#[inline]
pub fn fill_multipliers(seed: u64, row_key: u64, rescale: f64, out: &mut [f64]) {
    let base = mix2(seed, row_key);
    let mut ctr = 0u64;
    let mut chunks = out.chunks_exact_mut(8);
    for chunk in &mut chunks {
        let mut h = mix2(base, ctr);
        ctr += 1;
        for o in chunk.iter_mut() {
            *o = 1.0 + POISSON1_PM1[(h & 0xFF) as usize] * rescale;
            h >>= 8;
        }
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let mut h = mix2(base, ctr);
        for o in rem.iter_mut() {
            *o = 1.0 + POISSON1_PM1[(h & 0xFF) as usize] * rescale;
            h >>= 8;
        }
    }
}

/// Fills multipliers for a *run* of `out.len() / b` consecutive row keys
/// starting at `first_key`, one `b`-wide stripe per row: row `r` of the
/// run occupies `out[r·b .. (r+1)·b]` and holds exactly what
/// [`fill_multipliers`]`(seed, first_key + r, rescale, …)` would produce
/// — the draws key on the row id alone, so run-filling never changes a
/// multiplier, only when it is computed.
///
/// This is the vectorized scan kernel's batch shape: when a selection
/// run has a constant HT weight (uniform samples, or one stratum of a
/// stratified resolution), the whole run shares one `rescale` and one
/// call fills every row's replicate stripe before the accumulation loop.
///
/// # Panics
///
/// Panics unless `out.len()` is a multiple of `b` (`b > 0`).
#[inline]
pub fn fill_multipliers_run(seed: u64, first_key: u64, rescale: f64, b: usize, out: &mut [f64]) {
    assert!(
        b > 0 && out.len().is_multiple_of(b),
        "out must hold whole rows"
    );
    for (r, stripe) in out.chunks_exact_mut(b).enumerate() {
        fill_multipliers(seed, first_key + r as u64, rescale, stripe);
    }
}

/// The Rao–Wu rescale factor `√(1 − 1/w)` for a row of HT weight `w`;
/// 0 for fully-observed rows (no resampling noise — the design drew
/// them with certainty).
#[inline]
pub fn rescale_for_weight(w: f64) -> f64 {
    if w <= W_EXACT {
        0.0
    } else {
        (1.0 - 1.0 / w).sqrt()
    }
}

/// The per-(group, aggregate) replicate accumulator: `B` moment vectors
/// plus a shared deterministic base for `w = 1` rows.
///
/// States are stored structure-of-arrays (entry-major: entry `j`
/// occupies `states[j·B .. (j+1)·B]`) so the per-row update is `entries`
/// contiguous axpy loops over the multiplier buffer — vectorizable, no
/// branching, no dispatch.
#[derive(Debug, Clone)]
pub struct Replicates {
    agg: Arc<dyn BootstrapAgg>,
    spec: BootstrapSpec,
    /// SoA replicate perturbations: entry-major, `entries × B`.
    states: Vec<f64>,
    /// Deterministic contribution of fully-observed rows, shared by all
    /// replicates (their multiplier is exactly 1).
    base: Vec<f64>,
    /// Scratch for one row's coefficients (stack-sized; only the first
    /// `entries` slots are used).
    coeff: [f64; MAX_ENTRIES],
}

impl Replicates {
    /// Creates an empty accumulator for `agg` under `spec`.
    /// # Panics
    ///
    /// Panics when `agg.entries() > MAX_ENTRIES` — misuse fails at
    /// construction, not in the middle of a query's finalization.
    pub fn new(agg: Arc<dyn BootstrapAgg>, spec: BootstrapSpec) -> Self {
        let entries = agg.entries();
        assert!(
            entries <= MAX_ENTRIES,
            "BootstrapAgg with {entries} entries exceeds MAX_ENTRIES ({MAX_ENTRIES})"
        );
        let b = spec.replicates.max(2) as usize;
        Replicates {
            states: vec![0.0; entries * b],
            base: vec![0.0; entries],
            coeff: [0.0; MAX_ENTRIES],
            agg,
            spec,
        }
    }

    /// The replicate count `B`.
    pub fn replicates(&self) -> u32 {
        (self.states.len() / self.base.len().max(1)) as u32
    }

    /// The spec this accumulator was built with.
    pub fn spec(&self) -> BootstrapSpec {
        self.spec
    }

    /// Folds one matching row into every replicate, reusing the
    /// caller-provided multiplier buffer (`mults.len() == B`, filled by
    /// [`fill_multipliers`] once per row and shared across aggregates).
    /// Rows with `w ≤ 1` go to the shared base — pass an empty `mults`
    /// for them if the caller skipped generation.
    #[inline]
    pub fn observe(&mut self, x: f64, y: f64, w: f64, mults: &[f64]) {
        let entries = self.base.len();
        self.agg.coefficients(x, y, w, &mut self.coeff[..entries]);
        if w <= W_EXACT || mults.is_empty() {
            for j in 0..entries {
                self.base[j] += self.coeff[j];
            }
            return;
        }
        let b = mults.len();
        debug_assert_eq!(entries * b, self.states.len());
        for j in 0..entries {
            let c = self.coeff[j];
            let lane = &mut self.states[j * b..(j + 1) * b];
            for (s, &m) in lane.iter_mut().zip(mults) {
                *s += m * c;
            }
        }
    }

    /// Merges another partition's replicate states (elementwise — the
    /// states are linear in the rows, so this is exactly the
    /// `PartialAggregates` merge contract).
    ///
    /// # Panics
    ///
    /// Panics if the two accumulators were built under different specs —
    /// partitioned plans always share one spec, so a mismatch is a
    /// programming error.
    pub fn merge(&mut self, other: &Replicates) {
        assert_eq!(self.spec, other.spec, "cannot merge different bootstraps");
        assert_eq!(self.states.len(), other.states.len());
        for (a, b) in self.states.iter_mut().zip(&other.states) {
            *a += b;
        }
        for (a, b) in self.base.iter_mut().zip(&other.base) {
            *a += b;
        }
    }

    /// Rescales every accumulated weight by `alpha` — the partial-scan
    /// Horvitz–Thompson extrapolation. States are linear in `w`, so the
    /// rescale is a uniform multiply.
    pub fn scale(&mut self, alpha: f64) {
        for s in &mut self.states {
            *s *= alpha;
        }
        for s in &mut self.base {
            *s *= alpha;
        }
    }

    /// The finalized estimate of replicate `b` (base + perturbation),
    /// with every weight rescaled by `alpha`.
    fn estimate_of(&self, b: usize, alpha: f64, scratch: &mut [f64]) -> f64 {
        let total_b = self.replicates() as usize;
        for (j, s) in scratch.iter_mut().enumerate() {
            *s = (self.base[j] + self.states[j * total_b + b]) * alpha;
        }
        self.agg.finalize(scratch)
    }

    /// Variance of the estimator, read off the spread of the `B`
    /// replicate estimates (population variance across replicates).
    pub fn variance(&self) -> f64 {
        self.variance_scaled(1.0)
    }

    /// [`Replicates::variance`] as if every weight were rescaled by
    /// `alpha` — the per-partition bound check of incremental execution
    /// reads this without mutating the accumulator.
    pub fn variance_scaled(&self, alpha: f64) -> f64 {
        let b = self.replicates() as usize;
        let mut scratch = [0.0f64; MAX_ENTRIES];
        let entries = self.base.len(); // ≤ MAX_ENTRIES, checked at new()
        let scratch = &mut scratch[..entries];
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for i in 0..b {
            let e = self.estimate_of(i, alpha, scratch);
            sum += e;
            sum2 += e * e;
        }
        let mean = sum / b as f64;
        (sum2 / b as f64 - mean * mean).max(0.0)
    }

    /// The `B` finalized replicate estimates (diagnostics/calibration).
    pub fn estimates(&self) -> Vec<f64> {
        let b = self.replicates() as usize;
        let mut scratch = vec![0.0; self.base.len()];
        (0..b)
            .map(|i| self.estimate_of(i, 1.0, &mut scratch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reps(agg: Arc<dyn BootstrapAgg>, seed: u64) -> Replicates {
        Replicates::new(
            agg,
            BootstrapSpec {
                replicates: 200,
                seed,
                force: true,
            },
        )
    }

    /// Feeds `rows` through a Replicates with a fresh multiplier buffer
    /// per row, like the scan does.
    fn feed(r: &mut Replicates, rows: &[(u64, f64, f64, f64)]) {
        let b = r.replicates() as usize;
        let mut mults = vec![0.0; b];
        for &(key, x, y, w) in rows {
            let s = rescale_for_weight(w);
            if s > 0.0 {
                fill_multipliers(r.spec().seed, key, s, &mut mults);
                r.observe(x, y, w, &mults);
            } else {
                r.observe(x, y, w, &[]);
            }
        }
    }

    #[test]
    fn sum_spread_matches_closed_form_variance() {
        // 500 rows, weight 10 each: closed-form SUM variance is
        // Σ w(w−1)x² = 90·Σx². The replicate spread must land near it.
        let rows: Vec<(u64, f64, f64, f64)> =
            (0..500).map(|i| (i, (i % 7) as f64, 0.0, 10.0)).collect();
        let closed: f64 = rows.iter().map(|&(_, x, _, w)| w * (w - 1.0) * x * x).sum();
        let mut r = reps(Arc::new(SumAgg), 42);
        feed(&mut r, &rows);
        let boot = r.variance();
        assert!(
            (boot / closed - 1.0).abs() < 0.3,
            "bootstrap {boot} vs closed {closed}"
        );
    }

    #[test]
    fn exact_rows_have_zero_spread() {
        let rows: Vec<(u64, f64, f64, f64)> = (0..100).map(|i| (i, i as f64, 0.0, 1.0)).collect();
        let mut r = reps(Arc::new(SumAgg), 1);
        feed(&mut r, &rows);
        assert_eq!(r.variance(), 0.0, "fully-observed rows are deterministic");
        let est = r.estimates();
        assert!(est.iter().all(|&e| e == est[0]));
    }

    #[test]
    fn deterministic_per_seed_and_order_free_merge() {
        let rows: Vec<(u64, f64, f64, f64)> = (0..300)
            .map(|i| (i, (i % 11) as f64, 1.0 + (i % 3) as f64, 4.0))
            .collect();
        let mut a = reps(Arc::new(RatioAgg), 9);
        let mut b = reps(Arc::new(RatioAgg), 9);
        feed(&mut a, &rows);
        feed(&mut b, &rows);
        assert_eq!(a.variance().to_bits(), b.variance().to_bits());

        // Partitioned: odd/even split, merged — estimates agree with the
        // serial pass to float-merge tolerance.
        let mut left = reps(Arc::new(RatioAgg), 9);
        let mut right = reps(Arc::new(RatioAgg), 9);
        let (l, r_rows): (Vec<_>, Vec<_>) = rows.iter().cloned().partition(|&(k, ..)| k % 2 == 0);
        feed(&mut left, &l);
        feed(&mut right, &r_rows);
        left.merge(&right);
        let serial = a.variance();
        let merged = left.variance();
        assert!(
            (serial - merged).abs() <= 1e-9 * serial.max(1e-300),
            "serial {serial} vs merged {merged}"
        );
    }

    #[test]
    fn different_seeds_draw_different_multiplicities() {
        let rows: Vec<(u64, f64, f64, f64)> = (0..200).map(|i| (i, i as f64, 0.0, 5.0)).collect();
        let mut a = reps(Arc::new(SumAgg), 1);
        let mut b = reps(Arc::new(SumAgg), 2);
        feed(&mut a, &rows);
        feed(&mut b, &rows);
        assert_ne!(a.variance().to_bits(), b.variance().to_bits());
    }

    #[test]
    fn scale_extrapolates_linear_aggregates_quadratically() {
        let rows: Vec<(u64, f64, f64, f64)> = (0..400).map(|i| (i, 1.0, 0.0, 8.0)).collect();
        let mut r = reps(Arc::new(CountAgg), 3);
        feed(&mut r, &rows);
        let v1 = r.variance();
        let v2 = r.variance_scaled(2.0);
        assert!((v2 / v1 - 4.0).abs() < 1e-9, "α=2 ⇒ 4x variance");
        r.scale(2.0);
        assert!((r.variance() - v2).abs() < 1e-9 * v2);
    }

    #[test]
    fn stddev_and_udaf_replicates_track_sampling_noise() {
        // STDDEV over a sampled population: replicate spread must be
        // positive and shrink with more rows (1/√n behaviour).
        let spread = |n: u64| {
            let rows: Vec<(u64, f64, f64, f64)> =
                (0..n).map(|i| (i, (i % 13) as f64, 0.0, 6.0)).collect();
            let mut r = reps(Arc::new(StddevAgg), 5);
            feed(&mut r, &rows);
            r.variance()
        };
        let (small, large) = (spread(200), spread(5_000));
        assert!(small > 0.0 && large > 0.0);
        assert!(
            large < small / 5.0,
            "σ̂ variance must shrink: {small} -> {large}"
        );

        // UDAF: coefficient of variation composed from moments.
        let cv = FnAgg {
            name: "cv",
            len: 3,
            coefficients: |x, _y, w, out| {
                out[0] = w;
                out[1] = w * x;
                out[2] = w * x * x;
            },
            finalize: |s| {
                if s[0] == 0.0 {
                    return 0.0;
                }
                let mu = s[1] / s[0];
                (s[2] / s[0] - mu * mu).max(0.0).sqrt() / mu.max(1e-300)
            },
        };
        let rows: Vec<(u64, f64, f64, f64)> = (0..1000)
            .map(|i| (i, 5.0 + (i % 9) as f64, 0.0, 6.0))
            .collect();
        let mut r = reps(Arc::new(cv), 11);
        feed(&mut r, &rows);
        assert!(r.variance() > 0.0);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_ENTRIES")]
    fn too_wide_aggregates_fail_at_construction() {
        let wide = FnAgg {
            name: "ninth-moment",
            len: MAX_ENTRIES + 1,
            coefficients: |_, _, _, _| {},
            finalize: |_| 0.0,
        };
        let _ = Replicates::new(Arc::new(wide), BootstrapSpec::new(1));
    }

    #[test]
    fn run_fill_matches_per_row_fill_bit_for_bit() {
        let (seed, first, b, rows) = (42u64, 1000u64, 37usize, 11usize);
        let rescale = rescale_for_weight(5.0);
        let mut run = vec![0.0; rows * b];
        fill_multipliers_run(seed, first, rescale, b, &mut run);
        let mut single = vec![0.0; b];
        for r in 0..rows {
            fill_multipliers(seed, first + r as u64, rescale, &mut single);
            let stripe = &run[r * b..(r + 1) * b];
            assert!(
                stripe
                    .iter()
                    .zip(&single)
                    .all(|(a, c)| a.to_bits() == c.to_bits()),
                "row {r} stripe diverges from per-row fill"
            );
        }
    }

    #[test]
    fn multiplier_mean_is_one() {
        let mut m = vec![0.0; 1000];
        fill_multipliers(7, 123, rescale_for_weight(10.0), &mut m);
        let mean = m.iter().sum::<f64>() / m.len() as f64;
        assert!((mean - 1.0).abs() < 0.1, "E[m] = 1, got {mean}");
        // Var(m) = (1 − 1/w) · Var(Poisson(1)) = 0.9.
        let var = m.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>() / m.len() as f64;
        assert!((var - 0.9).abs() < 0.1, "Var(m) = 0.9, got {var}");
    }
}
