//! Deterministic response rendering and the row parsers.
//!
//! The store server renders query results with [`render_models`] /
//! [`render_apps`] / [`CorpusIndex::stats_text`]; the query clients
//! parse them back with [`parse_models`] / [`parse_apps`] /
//! [`parse_stats`]. Keeping both directions in this one module is what
//! makes the contract testable: `parse(render(x))` round-trips in unit
//! tests here, so a server/client drift cannot ship.
//!
//! Formats are line-oriented and space-separated with [`crate::esc`]
//! escaping, like the persist payload:
//!
//! ```text
//! models <n>
//! <checksum> <esc-name> <framework> <task|-> <quant> <size> <flops> <params> <apps>
//! ...
//! ```
//!
//! ```text
//! apps <n>
//! <esc-package> <esc-category> <models> <ml> <cloud>
//! ...
//! ```
//!
//! Rendering consumes already-ranked documents verbatim — ranking is the
//! index's job ([`CorpusIndex::query_models`]) — so two servers holding
//! the same index emit byte-identical bodies for the same query, at any
//! worker count.

use crate::doc::{AppDoc, ModelDoc};
use crate::{esc, unesc};

#[cfg(doc)]
use crate::CorpusIndex;

/// One parsed model result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRow {
    /// Model checksum (the corpus key).
    pub checksum: String,
    /// Model name.
    pub name: String,
    /// Framework wire name (e.g. `tflite`).
    pub framework: String,
    /// Task name, when classified.
    pub task: Option<String>,
    /// Quantised (int8 weights or activations)?
    pub quantised: bool,
    /// Serialized size in bytes.
    pub size_bytes: u64,
    /// Total FLOPs.
    pub flops: u64,
    /// Total parameters.
    pub params: u64,
    /// Apps carrying the model (scoped to the query's snapshot).
    pub apps: u64,
}

/// One parsed app result row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppRow {
    /// Package name.
    pub package: String,
    /// Store category (decoded).
    pub category: String,
    /// Model instances in the app (snapshot-scoped).
    pub models: u64,
    /// ML-powered?
    pub ml: bool,
    /// Invokes cloud ML APIs?
    pub cloud: bool,
}

/// Render ranked model documents as a response body. `snapshot` scopes
/// the per-row app count the same way the query was scoped.
pub fn render_models(docs: &[&ModelDoc], snapshot: Option<&str>) -> String {
    let mut out = format!("models {}\n", docs.len());
    for m in docs {
        out.push_str(&format!(
            "{} {} {} {} {} {} {} {} {}\n",
            m.checksum,
            esc(&m.name),
            m.framework.name(),
            m.task.map_or("-".to_string(), |t| esc(t.name())),
            m.quantised,
            m.size_bytes,
            m.flops,
            m.params,
            m.app_count(snapshot),
        ));
    }
    out
}

/// Parse a [`render_models`] body. `None` on any malformation (wrong
/// header, field count, bad number) — the client surfaces that as a
/// protocol error, it never guesses.
pub fn parse_models(text: &str) -> Option<Vec<ModelRow>> {
    let mut lines = text.lines();
    let n: usize = lines.next()?.strip_prefix("models ")?.parse().ok()?;
    // Not reserved from `n`: the count is the body's own claim.
    let mut rows = Vec::new();
    for _ in 0..n {
        let line = lines.next()?;
        let f: Vec<&str> = line.split(' ').collect();
        if f.len() != 9 {
            return None;
        }
        rows.push(ModelRow {
            checksum: f[0].to_string(),
            name: unesc(f[1]),
            framework: f[2].to_string(),
            task: match f[3] {
                "-" => None,
                t => Some(unesc(t)),
            },
            quantised: parse_bool(f[4])?,
            size_bytes: f[5].parse().ok()?,
            flops: f[6].parse().ok()?,
            params: f[7].parse().ok()?,
            apps: f[8].parse().ok()?,
        });
    }
    if lines.next().is_some() {
        return None; // body longer than its own header claims
    }
    Some(rows)
}

/// Render ranked app documents as a response body, snapshot-scoped like
/// [`render_models`].
pub fn render_apps(docs: &[&AppDoc], snapshot: Option<&str>) -> String {
    let mut out = format!("apps {}\n", docs.len());
    for a in docs {
        let s = a.snap(snapshot);
        out.push_str(&format!(
            "{} {} {} {} {}\n",
            esc(&a.package),
            esc(&a.category),
            s.models,
            s.ml,
            s.cloud,
        ));
    }
    out
}

/// Parse a [`render_apps`] body; `None` on any malformation.
pub fn parse_apps(text: &str) -> Option<Vec<AppRow>> {
    let mut lines = text.lines();
    let n: usize = lines.next()?.strip_prefix("apps ")?.parse().ok()?;
    let mut rows = Vec::new();
    for _ in 0..n {
        let line = lines.next()?;
        let f: Vec<&str> = line.split(' ').collect();
        if f.len() != 5 {
            return None;
        }
        rows.push(AppRow {
            package: unesc(f[0]),
            category: unesc(f[1]),
            models: f[2].parse().ok()?,
            ml: parse_bool(f[3])?,
            cloud: parse_bool(f[4])?,
        });
    }
    if lines.next().is_some() {
        return None;
    }
    Some(rows)
}

/// Parse a [`CorpusIndex::stats_text`] body into ordered `(key, value)`
/// pairs; `None` when any line lacks the `key = value` shape.
pub fn parse_stats(text: &str) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    for line in text.lines() {
        let (k, v) = line.split_once(" = ")?;
        out.push((k.to_string(), v.to_string()));
    }
    Some(out)
}

fn parse_bool(s: &str) -> Option<bool> {
    match s {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AppQuery, ModelQuery};
    use crate::tests::tiny_index;

    #[test]
    fn model_rows_roundtrip_with_escaped_fields() {
        let idx = tiny_index();
        let docs = idx.query_models(&ModelQuery::default());
        let body = render_models(&docs, Some("Apr 2021"));
        let rows = parse_models(&body).expect("clean body parses");
        assert_eq!(rows.len(), docs.len());
        for (row, doc) in rows.iter().zip(&docs) {
            assert_eq!(row.checksum, doc.checksum);
            assert_eq!(row.name, doc.name);
            assert_eq!(row.framework, doc.framework.name());
            assert_eq!(row.task.as_deref(), doc.task.map(|t| t.name()));
            assert_eq!(row.flops, doc.flops);
            assert_eq!(row.apps, doc.app_count(Some("Apr 2021")));
        }
    }

    #[test]
    fn app_rows_roundtrip_with_spaces_in_category() {
        let idx = tiny_index();
        let docs = idx.query_apps(&AppQuery::default());
        let body = render_apps(&docs, None);
        let rows = parse_apps(&body).expect("clean body parses");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].package, "com.a");
        assert_eq!(rows[0].category, "health & fitness");
        assert!(rows[0].ml && !rows[0].cloud);
        assert!(!rows[1].ml && rows[1].cloud);
    }

    #[test]
    fn empty_results_render_and_parse() {
        assert_eq!(parse_models("models 0\n").unwrap(), vec![]);
        assert_eq!(parse_apps("apps 0\n").unwrap(), vec![]);
    }

    #[test]
    fn malformed_bodies_are_rejected() {
        for bad in [
            "",
            "model 1\n",                      // wrong header keyword
            "models x\n",                     // bad count
            "models 2\naa b tflite - true 1 2 3 4\n", // short: count says 2
            "models 0\ntrailing\n",           // longer than declared
            "models 1\naa b tflite - maybe 1 2 3 4\n", // bad bool
            "models 1\naa b tflite - true 1 2 3\n",    // 8 fields
            // Counts no body of this size could hold.
            "models 18446744073709551615\n",
            "models 100000000000\n",
        ] {
            assert!(parse_models(bad).is_none(), "{bad:?}");
        }
        for bad in [
            "apps 1\ncom.a tools 1 true\n",
            "apps 18446744073709551615\n",
            "apps 100000000000\n",
        ] {
            assert!(parse_apps(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn stats_parse_splits_on_first_delimiter() {
        let idx = tiny_index();
        let stats = parse_stats(&idx.stats_text()).expect("stats parse");
        assert!(stats.iter().any(|(k, v)| k == "models" && v == "4"));
        assert!(stats
            .iter()
            .any(|(k, _)| k == "models[framework:tflite]"));
        assert!(parse_stats("no delimiter here").is_none());
    }
}
