//! Sets of runs: `run --all` (fresh process per run, so `peak_rss_mb`
//! belongs to one workload) and `compare`, which holds one set against
//! another with the bounds `BENCHMARK.json` fixes.

use crate::inputs::Workload;
use crate::json::{self, obj, Json};
use crate::stats::Samples;
use std::path::Path;
use std::process::Command;

/// Untraced fresh-process runs of each workload in a set.
pub const REPEATS: usize = 3;

/// What `run --all` was asked for.
#[derive(Debug, Clone)]
pub struct SetArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Run the workloads last-to-first (a repeatability pair takes one
    /// set each way).
    pub reverse: bool,
    pub out: std::path::PathBuf,
}

/// Runs one child and returns its result object (the last stdout line).
fn run_child(workload: Workload, args: &SetArgs, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    json::parse(last).map_err(|e| {
        format!(
            "{} exited {} without a result line ({e}): {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })
}

fn metric_values(runs: &[Json], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// Median, min and max of every metric over a workload's repeats.
fn summarize(runs: &[Json]) -> Json {
    let Some(first) = runs.first().and_then(|r| r.get("metrics")) else {
        return obj::<String>([]);
    };
    obj(first.members().iter().map(|(name, m)| {
        let s = Samples::new(metric_values(runs, name));
        (
            name.clone(),
            obj([
                ("median", Json::Num(s.median())),
                ("min", Json::Num(s.percentile(0.0))),
                ("max", Json::Num(s.max())),
                ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
            ]),
        )
    }))
}

/// Runs every workload [`REPEATS`] times untraced plus once traced, each
/// in its own process, and writes `<out>/<workload>.json`. Returns
/// whether every run was correct.
pub fn run_set(args: &SetArgs, meta: &[(&str, Json)]) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let mut order = Workload::ALL.to_vec();
    if args.reverse {
        order.reverse();
    }
    let mut all_correct = true;
    for workload in order {
        let runs: Vec<Json> = (0..REPEATS)
            .map(|_| run_child(workload, args, false))
            .collect::<Result<_, _>>()?;
        let traced = run_child(workload, args, true)?;
        let correct = runs
            .iter()
            .chain([&traced])
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        all_correct &= correct;
        let summary = summarize(&runs);
        println!(
            "== {} ({} repeats){}",
            workload.name(),
            runs.len(),
            if correct { "" } else { "  CHECK FAILED" }
        );
        for (name, m) in summary.members() {
            let v = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "{name:<28} {:>14.4} {:<7} [{:.4} .. {:.4}]",
                v("median"),
                m.get("unit").and_then(Json::as_str).unwrap_or(""),
                v("min"),
                v("max"),
            );
        }
        let doc = obj(meta.iter().map(|(k, v)| (k.to_string(), v.clone())).chain([
            ("workload".to_string(), Json::Str(workload.name().into())),
            ("summary".to_string(), summary),
            ("runs".to_string(), Json::Arr(runs)),
            ("traced".to_string(), traced),
        ]));
        let path = args.out.join(format!("{}.json", workload.name()));
        std::fs::write(&path, doc.render()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(all_correct)
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges set B against set A for a metric where `lower_is_better`,
/// allowed to worsen by `bound` (a share of A's median).
///
/// Where either set's min–max spread exceeds the bound, the medians
/// cannot settle it: the verdict is `Ok` only if every B run reads
/// better than every A run, `Regressed` only if every B run reads worse,
/// and `Unresolved` while the runs interleave.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    // Signed so that larger always reads worse.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let signed = |v: &[f64]| Samples::new(v.iter().map(|x| sign * x).collect());
    let (sa, sb) = (signed(a), signed(b));
    if sa.n() == 0 || sb.n() == 0 {
        return Verdict::Unresolved;
    }
    let base = sa.median().abs().max(f64::MIN_POSITIVE);
    let worse_by = (sb.median() - sa.median()) / base;
    let spread =
        |s: &Samples| (s.max() - s.percentile(0.0)) / s.median().abs().max(f64::MIN_POSITIVE);
    if spread(&sa).max(spread(&sb)) <= bound {
        if worse_by > bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        }
    } else if sb.max() <= sa.percentile(0.0) {
        Verdict::Ok
    } else if sb.percentile(0.0) > sa.max() && worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints one row per workload × end-to-end metric — both medians, the
/// ratio with its base, the bound, the verdict — and returns how many
/// rows regressed.
pub fn compare(benchmark: &Path, set_a: &Path, set_b: &Path) -> Result<usize, String> {
    let contract = load(benchmark)?;
    let mut regressed = 0;
    println!(
        "{:<18} {:<26} {:>13} {:>13} {:>9} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "bound"
    );
    for workload in Workload::ALL {
        let file = format!("{}.json", workload.name());
        let (a, b) = (load(&set_a.join(&file))?, load(&set_b.join(&file))?);
        let runs = |set: &Json| set.get("runs").map_or(Vec::new(), |r| r.as_arr().to_vec());
        let (runs_a, runs_b) = (runs(&a), runs(&b));
        for metric in contract.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let name = metric.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = metric.get("better").and_then(Json::as_str) == Some("lower");
            let (va, vb) = (metric_values(&runs_a, name), metric_values(&runs_b, name));
            let verdict = judge(&va, &vb, lower, bound);
            regressed += usize::from(verdict == Verdict::Regressed);
            let (ma, mb) = (Samples::new(va).median(), Samples::new(vb).median());
            println!(
                "{:<18} {:<26} {:>13.5} {:>13.5} {:>8.4}x {:>6.3}  {}",
                workload.name(),
                name,
                ma,
                mb,
                mb / ma,
                bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("ratios are B/A: base is set A ({})", set_a.display());
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_spread_and_interleaving() {
        // Tight sets: the medians decide.
        assert_eq!(
            judge(&[10.0, 10.1, 10.2], &[10.5, 10.6, 10.7], true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&[10.0, 10.1, 10.2], &[12.0, 12.1, 12.2], true, 0.10),
            Verdict::Regressed
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(&[100.0, 101.0, 102.0], &[80.0, 81.0, 82.0], false, 0.10),
            Verdict::Regressed
        );
        // Wide, interleaving sets cannot be resolved either way.
        assert_eq!(
            judge(&[10.0, 14.0, 18.0], &[11.0, 16.0, 19.0], true, 0.10),
            Verdict::Unresolved
        );
        // Wide, but every B run beats every A run.
        assert_eq!(
            judge(&[10.0, 14.0, 18.0], &[5.0, 7.0, 9.0], true, 0.10),
            Verdict::Ok
        );
        // Wide, and every B run is worse than every A run.
        assert_eq!(
            judge(&[10.0, 14.0, 18.0], &[20.0, 25.0, 30.0], true, 0.10),
            Verdict::Regressed
        );
    }
}
