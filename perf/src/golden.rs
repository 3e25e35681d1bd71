//! Parsers for the committed expectations the benchmark checks against:
//! the figure goldens under `tests/golden/` and `perf/expected/*.tsv`.
//!
//! All of them return errors instead of panicking, so a damaged file
//! fails the run with a message rather than a backtrace.

use sam::system::RunResult;
use sam_util::json::Json;

/// The integer fields of one run that the figure goldens pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pinned {
    pub cycles: u64,
    pub refreshes: u64,
    pub read_latency_p99: u64,
    pub write_latency_p99: u64,
}

impl Pinned {
    pub fn of(r: &RunResult) -> Self {
        Self {
            cycles: r.cycles,
            refreshes: r.ctrl.refreshes,
            read_latency_p99: r.read_latency_p99,
            write_latency_p99: r.write_latency_p99,
        }
    }

    fn from_run(run: &Json) -> Result<Self, String> {
        let uint = |key: &str| match run.get(key) {
            Some(&Json::UInt(v)) => Ok(v),
            other => Err(format!("run key '{key}' must be a uint, got {other:?}")),
        };
        Ok(Self {
            cycles: uint("cycles")?,
            refreshes: uint("refreshes")?,
            read_latency_p99: uint("read_latency_p99")?,
            write_latency_p99: uint("write_latency_p99")?,
        })
    }
}

fn str_of<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("key '{key}' must be a string"))
}

fn array_of<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("key '{key}' must be an array"))
}

/// `tests/golden/fig12.json` as `("<query>/<design>/<store>", pinned)`
/// pairs in file order, which is the figure's grid order.
pub fn parse_fig12(text: &str) -> Result<Vec<(String, Pinned)>, String> {
    let doc = Json::parse(text).map_err(|e| format!("fig12 golden: {e}"))?;
    array_of(&doc, "runs")?
        .iter()
        .map(|run| {
            let label = format!(
                "{}/{}/{}",
                str_of(run, "query")?,
                str_of(run, "design")?,
                str_of(run, "store")?
            );
            Ok((label, Pinned::from_run(run)?))
        })
        .collect::<Result<_, String>>()
        .map_err(|e| format!("fig12 golden: {e}"))
}

/// `tests/golden/fig16.json` as `(label, pinned)` pairs in sweep order:
/// per query, its flat baseline (`"<query>/flat"`) and then its hybrid
/// points (their own labels) in file order.
pub fn parse_fig16(text: &str) -> Result<Vec<(String, Pinned)>, String> {
    let parse = || -> Result<Vec<(String, Pinned)>, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let points = array_of(&doc, "points")?;
        let mut out = Vec::new();
        for base in array_of(&doc, "baselines")? {
            let query = str_of(base, "query")?;
            let run = base.get("run").ok_or("baseline without 'run'")?;
            out.push((format!("{query}/flat"), Pinned::from_run(run)?));
            for point in points {
                if str_of(point, "query")? == query {
                    let run = point.get("run").ok_or("point without 'run'")?;
                    out.push((str_of(point, "label")?.to_string(), Pinned::from_run(run)?));
                }
            }
        }
        Ok(out)
    };
    parse().map_err(|e| format!("fig16 golden: {e}"))
}

/// A tab-separated expectation: a header row `label <columns...>`, then
/// one row of unsigned counters per run.
pub fn parse_tsv(text: &str, columns: &[&str]) -> Result<Vec<(String, Vec<u64>)>, String> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<&str> = lines
        .next()
        .ok_or("empty expectation file")?
        .split('\t')
        .collect();
    if header.first() != Some(&"label") || header[1..] != *columns {
        return Err(format!(
            "header {header:?} does not name label + {columns:?}"
        ));
    }
    lines
        .enumerate()
        .map(|(i, line)| {
            let mut cells = line.split('\t');
            let label = cells.next().unwrap_or_default().to_string();
            let values = cells
                .map(|c| c.parse::<u64>().map_err(|e| format!("row {i}: '{c}': {e}")))
                .collect::<Result<Vec<_>, _>>()?;
            if values.len() != columns.len() {
                return Err(format!(
                    "row {i} has {} values, want {}",
                    values.len(),
                    columns.len()
                ));
            }
            Ok((label, values))
        })
        .collect()
}

/// Renders rows in the format [`parse_tsv`] reads.
#[cfg(test)]
pub fn format_tsv(columns: &[&str], rows: &[(String, Vec<u64>)]) -> String {
    let mut out = format!("label\t{}\n", columns.join("\t"));
    for (label, values) in rows {
        let cells: Vec<String> = values.iter().map(u64::to_string).collect();
        out.push_str(&format!("{label}\t{}\n", cells.join("\t")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_goldens_parse_in_grid_order() {
        let fig12 = parse_fig12(include_str!("../../tests/golden/fig12.json")).unwrap();
        assert_eq!(fig12.len(), 162);
        assert_eq!(fig12[0].0, "Q1/commodity/Row");
        let fig16 = parse_fig16(include_str!("../../tests/golden/fig16.json")).unwrap();
        assert_eq!(fig16.len(), 14);
        assert_eq!(fig16[0].0, "Q3/flat");
        assert_eq!(fig16[1].0, "Q3/bs128/writeback");
        assert_eq!(fig16[7].0, "Q12/flat");
    }

    #[test]
    fn malformed_goldens_are_errors_not_panics() {
        let bad = [
            "",
            "{",
            "[]",
            "{\"runs\": 3}",
            "{\"runs\": [{\"query\": \"Q1\"}]}",
            "{\"runs\": [{\"query\": \"Q1\", \"design\": \"x\", \"store\": \"Row\", \
             \"cycles\": -1, \"refreshes\": 0, \"read_latency_p99\": 0, \"write_latency_p99\": 0}]}",
            "{\"baselines\": [{\"query\": \"Q3\"}], \"points\": []}",
            "{\"baselines\": [], \"points\": {}}",
        ];
        for text in bad {
            assert!(parse_fig12(text).is_err(), "fig12 accepted {text:?}");
            assert!(parse_fig16(text).is_err(), "fig16 accepted {text:?}");
        }
    }

    #[test]
    fn tsv_round_trips_and_rejects_damage() {
        let cols = ["a", "b"];
        let rows = vec![
            ("x/y".to_string(), vec![1, 2]),
            ("z".to_string(), vec![3, 4]),
        ];
        let text = format_tsv(&cols, &rows);
        assert_eq!(parse_tsv(&text, &cols).unwrap(), rows);
        assert!(parse_tsv("", &cols).is_err());
        assert!(parse_tsv("label\ta\n", &["a", "b"]).is_err());
        assert!(parse_tsv("label\ta\tb\nx\t1\n", &cols).is_err());
        assert!(parse_tsv("label\ta\tb\nx\t1\t-2\n", &cols).is_err());
    }
}
