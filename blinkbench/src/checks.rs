//! Correctness checks that run inside the measured command: bound
//! contracts, accuracy audits against exact execution, and answer
//! fingerprints for bit-identity comparisons.

use crate::inputs::{Contract, Q};
use blinkdb_core::{ApproxAnswer, BlinkDb};
use blinkdb_exec::QueryAnswer;

/// Whether `answer` kept the query's own bound; `None` for unbounded
/// queries. `degraded` is the service's admission-time ε substitution,
/// which the contract allows.
pub fn contract_met(contract: Contract, answer: &ApproxAnswer, degraded: bool) -> Option<bool> {
    match contract {
        Contract::None => None,
        Contract::Seconds(t) => Some(answer.elapsed_s <= t),
        Contract::RelError(eps) => Some(degraded || answer.answer.max_relative_error() <= eps),
    }
}

/// FNV-1a over the bits of every estimate and variance, in row order.
/// Two answers with equal fingerprints are bit-identical in what a user
/// reads off them.
pub fn fingerprint(answer: &QueryAnswer) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for row in &answer.rows {
        for agg in &row.aggs {
            eat(agg.estimate.to_bits());
            eat(agg.variance.to_bits());
        }
    }
    eat(answer.rows.len() as u64);
    h
}

/// Outcome of auditing a fixed slice of the query list.
#[derive(Debug, Clone, Default)]
pub struct Audit {
    /// Inexact aggregate cells compared with the truth.
    pub cells: u64,
    /// Of those, cells whose reported interval contains the truth.
    pub covered: u64,
    /// Realised relative error of each cell with a non-zero truth.
    pub rel_errors: Vec<f64>,
    /// Queries audited, and audits that broke an invariant (a query
    /// failed, a group the exact answer lacks, a non-finite estimate).
    pub queries: u64,
    pub violations: u64,
}

impl Audit {
    pub fn coverage(&self) -> f64 {
        self.covered as f64 / self.cells.max(1) as f64
    }

    /// Mean realised relative error, each cell's error capped at 1.
    ///
    /// Most audited cells of the ad-hoc mix rest on a handful of sampled
    /// rows, so the error distribution has cliffs (whole blocks of cells
    /// at exactly 100 %) and any one percentile of it jumps between
    /// seeds; the capped mean moves smoothly.
    pub fn rel_err_capped_mean(&self) -> f64 {
        let capped: f64 = self.rel_errors.iter().map(|e| e.min(1.0)).sum();
        capped / self.rel_errors.len().max(1) as f64
    }
}

/// Audits `audited` queries of `list` — every 10th, or a smaller stride
/// when the list is too short for that: the approximate answer against
/// [`BlinkDb::query_exact_audit`] on the same instance. Untimed.
pub fn audit(db: &BlinkDb, list: &[Q], audited: usize) -> Audit {
    let mut out = Audit::default();
    let stride = (list.len() / audited.max(1)).clamp(1, 10);
    for q in list.iter().step_by(stride).take(audited) {
        out.queries += 1;
        let (Ok(approx), Ok(exact)) = (db.query(&q.sql), db.query_exact_audit(&q.sql)) else {
            out.violations += 1;
            continue;
        };
        let confidence = approx.answer.confidence;
        let mut broken = false;
        for row in &approx.answer.rows {
            let Some(truth_row) = exact.row_for(&row.group) else {
                broken = true;
                continue;
            };
            for (agg, truth) in row.aggs.iter().zip(&truth_row.aggs) {
                if !agg.estimate.is_finite() {
                    broken = true;
                    continue;
                }
                if agg.exact {
                    continue;
                }
                let err = (agg.estimate - truth.estimate).abs();
                out.cells += 1;
                out.covered += u64::from(err <= agg.ci_half_width(confidence));
                if truth.estimate != 0.0 {
                    out.rel_errors.push(err / truth.estimate.abs());
                }
            }
        }
        out.violations += u64::from(broken);
    }
    out
}
