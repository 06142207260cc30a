//! Reference initiation intervals, committed per workload under `ref/`.
//!
//! A table maps an operation key (a sweep point, or a served problem × class)
//! to the II this code reached when the table was written, or `-` where it
//! found no solution. A run fails when a solved II is worse than its
//! reference beyond the table's relative tolerance, or when a point solved in
//! the reference goes unsolved.

use std::collections::BTreeMap;

/// Relative II tolerance written into new tables.
pub const TOLERANCE: f64 = 1e-9;

/// A parsed reference table.
pub struct Refs {
    tolerance: f64,
    ii_ms: BTreeMap<String, Option<f64>>,
}

/// What comparing a run's outcomes against a table found.
#[derive(Default)]
pub struct RefCheck {
    /// Achieved ÷ reference II of every point solved in both.
    pub ratios: Vec<f64>,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl Refs {
    /// Parses a table: a `#tolerance` line, then `key<TAB>ii_ms` rows.
    pub fn parse(text: &str) -> Result<Refs, String> {
        let mut tolerance = None;
        let mut ii_ms = BTreeMap::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let (key, value) = line
                .split_once('\t')
                .ok_or_else(|| format!("reference row without a tab: {line}"))?;
            if key == "#tolerance" {
                tolerance = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad tolerance {value}"))?,
                );
                continue;
            }
            let ii = match value {
                "-" => None,
                v => Some(v.parse().map_err(|_| format!("bad II {v} for {key}"))?),
            };
            if ii_ms.insert(key.to_owned(), ii).is_some() {
                return Err(format!("duplicate reference key {key}"));
            }
        }
        Ok(Refs {
            tolerance: tolerance.ok_or("reference table has no #tolerance line")?,
            ii_ms,
        })
    }

    /// Renders a table in the format [`Refs::parse`] reads.
    pub fn render(rows: &[(String, Option<f64>)]) -> String {
        let mut out = format!("#tolerance\t{TOLERANCE:e}\n");
        for (key, ii) in rows {
            assert!(!key.contains('\t'), "reference keys hold no tabs: {key}");
            match ii {
                Some(ii) => out.push_str(&format!("{key}\t{ii}\n")),
                None => out.push_str(&format!("{key}\t-\n")),
            }
        }
        out
    }

    /// Checks one operation's outcome against its reference.
    pub fn check(&self, key: &str, achieved: Option<f64>, out: &mut RefCheck) {
        match (self.ii_ms.get(key), achieved) {
            (None, _) => out.failures.push(format!("no reference II for {key}")),
            (Some(Some(reference)), Some(ii)) => {
                if ii > reference * (1.0 + self.tolerance) {
                    out.failures.push(format!(
                        "{key}: II {ii} ms is worse than the reference {reference} ms"
                    ));
                }
                out.ratios.push(ii / reference);
            }
            (Some(Some(reference)), None) => out.failures.push(format!(
                "{key}: unsolved, but the reference solved it at {reference} ms"
            )),
            // Unsolved in the reference: solving it now is no regression.
            (Some(None), _) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_round_trip_and_judge_outcomes() {
        let text = Refs::render(&[("a".into(), Some(2.0)), ("b".into(), None)]);
        let refs = Refs::parse(&text).unwrap();
        let mut check = RefCheck::default();
        refs.check("a", Some(2.0), &mut check);
        refs.check("a", Some(1.5), &mut check);
        refs.check("b", Some(3.0), &mut check);
        refs.check("b", None, &mut check);
        assert!(check.failures.is_empty());
        assert_eq!(check.ratios, vec![1.0, 0.75]);
        refs.check("a", Some(2.1), &mut check);
        refs.check("a", None, &mut check);
        refs.check("c", Some(1.0), &mut check);
        assert_eq!(check.failures.len(), 3);
    }

    #[test]
    fn duplicate_keys_are_refused() {
        assert!(Refs::parse("#tolerance\t1e-9\na\t1\na\t2\n").is_err());
        assert!(Refs::parse("a\t1\n").is_err());
    }
}
