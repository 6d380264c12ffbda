//! `golden.json`: the exact outputs every pass must reproduce.
//!
//! The file is compiled in, so a binary always checks against the golden
//! of its own source tree. Only `--write-golden` regenerates it.

use std::collections::BTreeMap;

use crate::api::json::{self, Value};
use crate::workloads::{Size, Workload};

/// The committed golden file.
pub const GOLDEN: &str = include_str!("../golden.json");

/// Where `--write-golden` writes.
pub const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.json");

/// The pinned outputs of one workload at one size.
///
/// # Errors
///
/// Unparseable golden text, or no entry for the workload. A value that
/// is not a number is kept as NaN, so it fails its comparison.
pub fn load(text: &str, size: Size, workload: Workload) -> Result<BTreeMap<String, f64>, String> {
    let doc = json::parse(text).map_err(|e| format!("golden.json: {e}"))?;
    match doc.get(size.name()).and_then(|s| s.get(workload.name())) {
        Some(Value::Object(m)) => Ok(m
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect()),
        _ => Err(format!(
            "golden.json has no {}/{} entry",
            size.name(),
            workload.name()
        )),
    }
}

/// Compares a pass's outputs with the pinned ones, one check per key of
/// either map: a missing, extra or different value fails. Returns the
/// checks made and the failures.
#[must_use]
pub fn check(got: &BTreeMap<String, f64>, want: &BTreeMap<String, f64>) -> (u64, Vec<String>) {
    let mut keys: Vec<&String> = got.keys().chain(want.keys()).collect();
    keys.sort_unstable();
    keys.dedup();
    let failures = keys
        .iter()
        .filter_map(|k| match (got.get(*k), want.get(*k)) {
            (Some(g), Some(w)) if g.to_bits() == w.to_bits() => None,
            (g, w) => Some(format!("golden {k}: got {g:?}, pinned {w:?}")),
        })
        .collect();
    (keys.len() as u64, failures)
}

/// One size's pinned outputs, by workload.
pub type Section = (Size, Vec<(Workload, BTreeMap<String, f64>)>);

/// The golden document for the given outputs, one value per line.
#[must_use]
pub fn render(sections: &[Section]) -> String {
    let obj = |entries: Vec<(String, Value)>| Value::Object(entries.into_iter().collect());
    let mut top = vec![("schema".to_string(), Value::Number(1.0))];
    for (size, runs) in sections {
        let section = runs
            .iter()
            .map(|(w, exact)| {
                let values = exact
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Number(*v)))
                    .collect();
                (w.name().to_string(), obj(values))
            })
            .collect();
        top.push((size.name().to_string(), obj(section)));
    }
    crate::metrics::pretty(&obj(top))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| ((*k).to_string(), *v)).collect()
    }

    #[test]
    fn mismatches_in_either_direction_fail() {
        let want = map(&[("a/st2/cycles", 10.0), ("b/st2/cycles", 20.0)]);
        assert_eq!(check(&want, &want), (2, vec![]));
        let (n, f) = check(
            &map(&[("a/st2/cycles", 10.0), ("b/st2/cycles", 21.0)]),
            &want,
        );
        assert_eq!((n, f.len()), (2, 1));
        let (n, f) = check(&map(&[("a/st2/cycles", 10.0)]), &want);
        assert_eq!((n, f.len()), (2, 1), "a missing output fails");
        let (n, f) = check(
            &map(&[("a/st2/cycles", 10.0), ("b/st2/cycles", 20.0), ("c", 1.0)]),
            &want,
        );
        assert_eq!((n, f.len()), (3, 1), "an unpinned output fails");
    }

    #[test]
    fn a_corrupted_golden_value_is_a_failure_not_a_panic() {
        let doc =
            r#"{"full": {"dse": {"sad_K1/functional/records": "12x", "st2_miss_pct": 12.5}}}"#;
        let want = load(doc, Size::Full, Workload::Dse).expect("the document parses");
        let got = map(&[("sad_K1/functional/records", 12.0), ("st2_miss_pct", 12.5)]);
        let (n, f) = check(&got, &want);
        assert_eq!((n, f.len()), (2, 1));
        assert!(load("{not json", Size::Full, Workload::Dse).is_err());
        assert!(load(doc, Size::Smoke, Workload::Dse).is_err());
    }

    #[test]
    fn rendered_golden_loads_back() {
        let exact = map(&[
            ("gather/baseline/cycles", 13096.0),
            ("st2_slowdown_pct", 0.4321),
        ]);
        let text = render(&[(Size::Full, vec![(Workload::Chip, exact.clone())])]);
        assert_eq!(load(&text, Size::Full, Workload::Chip), Ok(exact));
    }

    #[test]
    fn committed_golden_covers_every_workload_and_size() {
        for size in [Size::Full, Size::Smoke] {
            for w in Workload::ALL {
                let pinned = load(GOLDEN, size, w).expect("golden entry");
                assert!(!pinned.is_empty(), "{}/{}", size.name(), w.name());
            }
        }
    }
}
