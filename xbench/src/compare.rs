//! `xbench compare a.json b.json`: every workload × end-to-end metric of two
//! report files side by side, judged against the metric's bound.

use crate::json::Json;
use crate::report::Better;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    Better,
    WithinBound,
    Worse,
    /// The spread between runs is wider than the bound, so "unchanged"
    /// cannot be told from "changed".
    Unresolved,
}

impl Judgement {
    fn label(self) -> &'static str {
        match self {
            Judgement::Better => "better",
            Judgement::WithinBound => "within bound",
            Judgement::Worse => "worse",
            Judgement::Unresolved => "unresolved (spread wider than bound)",
        }
    }
}

/// Judges the runs `b` of a metric against the runs `a` of its baseline.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Judgement {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    // Positive = `b` is worse, as a share of the baseline's median.
    let worsening = match better {
        Better::Lower => (sb.median - sa.median) / sa.median.abs(),
        Better::Higher => (sa.median - sb.median) / sa.median.abs(),
    };
    let every_run_better = match better {
        Better::Lower => sb.max < sa.min,
        Better::Higher => sb.min > sa.max,
    };
    if worsening > bound {
        Judgement::Worse
    } else if sa.spread().max(sb.spread()) > bound {
        if every_run_better {
            Judgement::Better
        } else {
            Judgement::Unresolved
        }
    } else if worsening < 0.0 && (sb.median - sa.median).abs() > sa.q3 - sa.q1 {
        Judgement::Better
    } else {
        Judgement::WithinBound
    }
}

fn field<'a>(doc: &'a Json, key: &str, file: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("{file}: no `{key}`"))
}

fn values(metric: &Json, file: &str) -> Result<Vec<f64>, String> {
    let values: Vec<f64> = field(metric, "values", file)?
        .as_arr()
        .unwrap_or_default()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    if values.is_empty() {
        return Err(format!("{file}: a metric without values"));
    }
    Ok(values)
}

/// Renders the comparison table; `Err` names what is wrong with the files.
/// The second element is true when some pairing is worse.
pub fn compare(a: &Json, b: &Json, names: (&str, &str)) -> Result<(String, bool), String> {
    let mut out = format!("a = {}\nb = {}\n\n", names.0, names.1);
    out.push_str(&format!(
        "{:<15} {:<32} {:>14} {:>14} {:>7} {:>6}  {}\n",
        "workload",
        "metric",
        "a median",
        "b median",
        "b/a",
        "bound",
        "judgement  [q1 .. q3 of a | of b]"
    ));
    let mut any_worse = false;
    let workloads_a = field(a, "workloads", names.0)?.as_arr().unwrap_or_default();
    let workloads_b = field(b, "workloads", names.1)?.as_arr().unwrap_or_default();
    for wa in workloads_a {
        let name = field(wa, "name", names.0)?.as_str().unwrap_or_default();
        let Some(wb) = workloads_b
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            return Err(format!("{}: no workload `{name}`", names.1));
        };
        let metrics_b = field(wb, "end_to_end", names.1)?;
        for (metric, ma) in field(wa, "end_to_end", names.0)?
            .as_obj()
            .unwrap_or_default()
        {
            let mb = field(metrics_b, metric, names.1)?;
            let better = match field(ma, "better", names.0)?.as_str() {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            let bound = field(ma, "bound", names.0)?.as_f64().unwrap_or(0.0);
            let (va, vb) = (values(ma, names.0)?, values(mb, names.1)?);
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let judgement = judge(&va, &vb, better, bound);
            any_worse |= judgement == Judgement::Worse;
            out.push_str(&format!(
                "{:<15} {:<32} {:>14.6} {:>14.6} {:>7.3} {:>5.0}%  {}  [{:.6} .. {:.6} | {:.6} .. {:.6}]\n",
                name,
                format!("{metric} ({})", better.name()),
                sa.median,
                sb.median,
                sb.median / sa.median,
                bound * 100.0,
                judgement.label(),
                sa.q1,
                sa.q3,
                sb.q1,
                sb.q3,
            ));
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judgements_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let lower = Better::Lower;
        assert_eq!(judge(&base, &base, lower, 0.1), Judgement::WithinBound);
        assert_eq!(
            judge(&base, &[105.0, 106.0, 104.0], lower, 0.1),
            Judgement::WithinBound
        );
        assert_eq!(
            judge(&base, &[115.0, 116.0, 114.0], lower, 0.1),
            Judgement::Worse
        );
        assert_eq!(
            judge(&base, &[90.0, 91.0, 89.0], lower, 0.1),
            Judgement::Better
        );
        // The same numbers read the other way round for a rate.
        assert_eq!(
            judge(&base, &[90.0, 91.0, 89.0], Better::Higher, 0.05),
            Judgement::Worse
        );
        assert_eq!(
            judge(&base, &[115.0, 116.0, 114.0], Better::Higher, 0.1),
            Judgement::Better
        );
        // A spread wider than the bound cannot show "unchanged"...
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(judge(&noisy, &noisy, lower, 0.1), Judgement::Unresolved);
        // ...unless every run of the change beats every run of the baseline.
        assert_eq!(
            judge(&noisy, &[70.0, 60.0, 75.0], lower, 0.1),
            Judgement::Better
        );
        assert_eq!(
            judge(&noisy, &[150.0, 160.0, 170.0], lower, 0.1),
            Judgement::Worse
        );
    }

    #[test]
    fn compare_prints_one_row_per_workload_and_metric() {
        let report = |v: f64| {
            let metric = Json::obj([
                ("unit", Json::str("1/s")),
                ("better", Json::str("higher")),
                ("bound", Json::Num(0.1)),
                ("values", Json::nums(&[v, v * 1.01, v * 0.99])),
            ]);
            let workload = |name: &str| {
                Json::obj([
                    ("name", Json::str(name)),
                    (
                        "end_to_end",
                        Json::obj([("requests_per_s", metric.clone())]),
                    ),
                ])
            };
            Json::obj([(
                "workloads",
                Json::Arr(vec![workload("proto_steady"), workload("verify_online")]),
            )])
        };
        let (table, worse) =
            compare(&report(1000.0), &report(1005.0), ("a.json", "b.json")).unwrap();
        assert!(!worse);
        assert_eq!(
            table
                .lines()
                .filter(|l| l.contains("requests_per_s"))
                .count(),
            2
        );
        assert!(table.contains("within bound"), "{table}");
        let (table, worse) =
            compare(&report(1000.0), &report(800.0), ("a.json", "b.json")).unwrap();
        assert!(worse && table.contains("worse"), "{table}");
        assert!(compare(&report(1.0), &Json::obj([("x", Json::Null)]), ("a", "b")).is_err());
    }
}
