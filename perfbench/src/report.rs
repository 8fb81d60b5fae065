//! Summary statistics, the result lines, and the layer diff.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, interpolating between
/// closest ranks; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Least-squares slope of ln(y) against ln(x): the exponent of a power
/// law y ∝ x^k. 0 without two distinct x.
pub fn power_law_exponent(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return 0.0;
    }
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads `(name, value, unit)` triples from the last result line of a
/// saved run.
fn read_metrics(path: &str) -> Result<Vec<(String, f64, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let line = text
        .lines()
        .rev()
        .find(|l| l.contains("\"metrics\""))
        .ok_or_else(|| format!("{path}: no result line"))?;
    let bad = || format!("{path}: malformed result line");
    let mut rest = &line[line.find("\"metrics\"").ok_or_else(bad)? + 9..];
    let mut out = Vec::new();
    while let Some(at) = rest.find("\"value\"") {
        let head = &rest[..at];
        let head = &head[..head.rfind('{').ok_or_else(bad)?];
        let name_end = head.rfind('"').ok_or_else(bad)?;
        let name_start = head[..name_end].rfind('"').ok_or_else(bad)? + 1;
        let tail = &rest[at + 7..];
        let value_end = tail.find(',').ok_or_else(bad)?;
        let value: f64 = tail[..value_end]
            .trim_start_matches([':', ' '])
            .trim()
            .parse()
            .map_err(|_| bad())?;
        let unit_at = tail.find("\"unit\"").ok_or_else(bad)? + 6;
        let unit_tail = &tail[unit_at..];
        let q0 = unit_tail.find('"').ok_or_else(bad)? + 1;
        let q1 = q0 + unit_tail[q0..].find('"').ok_or_else(bad)?;
        out.push((
            head[name_start..name_end].to_string(),
            value,
            unit_tail[q0..q1].to_string(),
        ));
        rest = &unit_tail[q1..];
    }
    Ok(out)
}

/// Prints two saved results side by side, one row per metric, with the
/// ratio B/A, so a regression names its layer.
pub fn diff(paths: &[String]) -> Result<(), String> {
    let [a, b] = paths else {
        return Err("usage: perfbench diff A.json B.json".into());
    };
    let (ma, mb) = (read_metrics(a)?, read_metrics(b)?);
    let mut names: Vec<&str> = ma.iter().map(|m| m.0.as_str()).collect();
    for m in &mb {
        if !names.contains(&m.0.as_str()) {
            names.push(&m.0);
        }
    }
    let find = |ms: &[(String, f64, String)], name: &str| {
        ms.iter().find(|m| m.0 == name).map(|m| (m.1, m.2.clone()))
    };
    println!(
        "{:<32} {:>14} {:>14} {:>9}  unit",
        "metric", "A", "B", "B/A"
    );
    for name in names {
        let (va, vb) = (find(&ma, name), find(&mb, name));
        let unit = va
            .as_ref()
            .or(vb.as_ref())
            .map_or(String::new(), |m| m.1.clone());
        let show = |v: &Option<(f64, String)>| {
            v.as_ref()
                .map_or("-".to_string(), |m| format!("{:.6}", m.0))
        };
        let ratio = match (&va, &vb) {
            (Some(x), Some(y)) if x.0 != 0.0 => format!("{:.3}", y.0 / x.0),
            _ => "-".to_string(),
        };
        println!(
            "{name:<32} {:>14} {:>14} {ratio:>9}  {unit}",
            show(&va),
            show(&vb)
        );
    }
    Ok(())
}
