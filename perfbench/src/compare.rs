//! `e2e compare <a> <b>`: applies each end-to-end metric's bound, per
//! workload, to two sets of runs. A set is a file of run documents, one
//! per line, as `e2e run --out` appends them.

use std::path::Path;

use crate::json::{self, Json};
use crate::metrics::{iqr, median, Better, Bound, EndToEnd, END_TO_END};
use crate::shapes::SHAPES;

/// One metric's readings across the untraced runs of one workload.
struct Readings {
    values: Vec<f64>,
    /// Spread of the reps inside the run, used when the set has one run.
    within_run_iqr: f64,
}

impl Readings {
    fn median(&self) -> Option<f64> {
        median(&self.values)
    }

    fn spread(&self) -> f64 {
        if self.values.len() > 1 {
            iqr(&self.values)
        } else {
            self.within_run_iqr
        }
    }
}

fn load(path: &Path) -> Result<Vec<Json>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| json::parse(l).map_err(|e| format!("{} line {}: {e}", path.display(), i + 1)))
        .collect()
}

fn readings(docs: &[Json], workload: &str, metric: &str) -> Readings {
    let mut out = Readings {
        values: Vec::new(),
        within_run_iqr: 0.0,
    };
    for doc in docs {
        if doc.get("workload").and_then(Json::as_str) != Some(workload)
            || doc.get("traced") != Some(&Json::Bool(false))
        {
            continue;
        }
        let row = doc.get("metrics").and_then(Json::as_array).and_then(|ms| {
            ms.iter()
                .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
        });
        if let Some(v) = row.and_then(|r| r.get("value")).and_then(Json::as_f64) {
            out.values.push(v);
            out.within_run_iqr = row
                .and_then(|r| r.get("iqr"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
        }
    }
    out
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread of either set is wider than the bound: the runs can
    /// show neither a regression nor its absence.
    Unresolved,
}

/// `a` is the base. Worse-by-more-than-the-bound wins over unresolved:
/// a median that moved past the bound is reported even when noisy.
pub fn verdict(m: &EndToEnd, a: f64, a_spread: f64, b: f64, b_spread: f64) -> Verdict {
    let allowed = match m.bound {
        Bound::Relative(share) => share * a.abs(),
        Bound::Absolute(units) => units,
    };
    let worse_by = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worse_by > allowed {
        Verdict::Regressed
    } else if a_spread.max(b_spread) > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Prints one row per (workload, metric). Returns the process exit
/// code: 0 all ok, 1 something regressed, 2 nothing regressed but
/// something is unresolved.
pub fn run(a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let (a_docs, b_docs) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<18} {:<18} {:<10} {:>14} {:>3} {:>14} {:>3} {:>9} {:>12} {:>10}",
        "workload",
        "metric",
        "verdict",
        "a.median",
        "n",
        "b.median",
        "n",
        "b/a",
        "base(a)",
        "bound"
    );
    let (mut regressed, mut unresolved, mut rows) = (0, 0, 0);
    for shape in &SHAPES {
        for m in &END_TO_END {
            let a = readings(&a_docs, shape.name, m.name);
            let b = readings(&b_docs, shape.name, m.name);
            let (Some(am), Some(bm)) = (a.median(), b.median()) else {
                continue;
            };
            rows += 1;
            let v = verdict(m, am, a.spread(), bm, b.spread());
            match v {
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            let bound = match m.bound {
                Bound::Relative(s) => format!("{:.0}%", s * 100.0),
                Bound::Absolute(u) => format!("{u} {}", m.unit),
            };
            let ratio = if am != 0.0 {
                format!("{:.4}", bm / am)
            } else {
                "-".to_string()
            };
            println!(
                "{:<18} {:<18} {:<10} {:>14.3} {:>3} {:>14.3} {:>3} {:>9} {:>12.3} {:>10}",
                shape.name,
                m.name,
                format!("{v:?}").to_lowercase(),
                am,
                a.values.len(),
                bm,
                b.values.len(),
                ratio,
                am,
                bound
            );
        }
    }
    if rows == 0 {
        return Err("the two sets share no untraced run of any workload".to_string());
    }
    println!("{rows} rows: {regressed} regressed, {unresolved} unresolved");
    Ok(match (regressed, unresolved) {
        (0, 0) => 0,
        (0, _) => 2,
        _ => 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn relative_bound_follows_the_metric_direction() {
        let ops = metric("ops_per_s"); // higher is better, 25 %
        assert_eq!(verdict(ops, 1000.0, 10.0, 800.0, 10.0), Verdict::Ok);
        assert_eq!(verdict(ops, 1000.0, 10.0, 2000.0, 10.0), Verdict::Ok);
        assert_eq!(verdict(ops, 1000.0, 10.0, 740.0, 10.0), Verdict::Regressed);
        let wire = metric("wire_bytes_per_op"); // lower is better, 10 %
        assert_eq!(verdict(wire, 100.0, 1.0, 111.0, 1.0), Verdict::Regressed);
        assert_eq!(verdict(wire, 100.0, 1.0, 50.0, 1.0), Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_not_ok() {
        let ops = metric("ops_per_s");
        assert_eq!(
            verdict(ops, 1000.0, 300.0, 990.0, 10.0),
            Verdict::Unresolved
        );
        assert_eq!(verdict(ops, 1000.0, 300.0, 700.0, 10.0), Verdict::Regressed);
    }

    #[test]
    fn failed_ops_bound_is_absolute_percentage_points() {
        let failed = metric("failed_ops_pct");
        assert_eq!(verdict(failed, 0.0, 0.0, 0.05, 0.0), Verdict::Ok);
        assert_eq!(verdict(failed, 0.0, 0.0, 0.2, 0.0), Verdict::Regressed);
    }
}
