//! CI validator for `portfolio --metrics-json` output.
//!
//! Three modes, all strict (any deviation exits 1; bad arguments exit 2):
//!
//! ```text
//! metrics_check check FILE
//! metrics_check diff-counters FILE_A FILE_B
//! metrics_check zero FILE COUNTER...
//! metrics_check same FILE_A FILE_B COUNTER...
//! ```
//!
//! `check` validates the `customSmallerIsBetter` schema (an array of
//! `{"name", "unit", "value"}` objects with string names, `"s"` or
//! `"count"` units and numeric values), asserts the campaign simulated
//! exactly what it planned (`campaign/traces_planned ==
//! campaign/traces_simulated`), that every simulated trace is counted on
//! exactly one path (`campaign/lockstep_traces + campaign/scalar_traces
//! == campaign/traces_simulated`), and that the span tree accounts for
//! the wall clock: the direct children of `span/portfolio` must sum to
//! at least 90% of it.
//!
//! `diff-counters` compares the *work counters* of two metrics files —
//! the name prefixes the determinism contract declares thread- and
//! lane-invariant — and fails on the first differing value. Span times,
//! batch counts and pool statistics are observability, not work, and
//! are ignored.
//!
//! `zero` asserts that each named counter is present and 0 — for the
//! counters that show a fast path falling back (`campaign/blocks_poisoned`,
//! `campaign/horizon_fallbacks`), which would otherwise show only as a
//! slowdown, and for `power/simulator_runs` in a re-analysis.
//!
//! `same` asserts that each named counter is present in both files with
//! the same value — for work two different runs must both do, such as
//! the `analysis/cells_absorbed` of a stored run and of its
//! re-analysis.

/// One parsed `{"name", "unit", "value"}` entry.
#[derive(Clone, Debug, PartialEq)]
struct Entry {
    name: String,
    unit: String,
    value: f64,
    /// The value's raw text, for byte-exact counter comparison.
    raw: String,
}

/// Counter-name prefixes that are work, not observability: byte-equal
/// across `--threads` and `--lanes` settings by the determinism
/// contract (see ARCHITECTURE.md, "Telemetry").
const WORK_PREFIXES: &[&str] = &[
    "campaign/traces_",
    "power/",
    "uarch/",
    "analysis/",
    "store/slots_written",
    "store/checkpoint_bytes",
];

fn fail(message: &str) -> ! {
    eprintln!("metrics_check: FAIL: {message}");
    std::process::exit(1);
}

/// Extracts the JSON string field `key` from an object's text.
fn string_field(object: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\"");
    let rest = &object[object.find(&tag)? + tag.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_owned())
}

/// Extracts the raw text of the numeric field `key`.
fn number_field(object: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\"");
    let rest = &object[object.find(&tag)? + tag.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    (end > 0).then(|| rest[..end].to_owned())
}

/// Parses a `customSmallerIsBetter` array, validating the schema as it
/// goes. The format is the fixed one `render_metrics_json` (and
/// `timings_json`) emit: one object per `{ ... }` pair.
fn parse(path: &str) -> Vec<Entry> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => fail(&format!("cannot read '{path}': {e}")),
    };
    let body = text.trim();
    let Some(body) = body.strip_prefix('[').and_then(|b| b.strip_suffix(']')) else {
        fail(&format!("'{path}' is not a JSON array"));
    };
    let mut entries = Vec::new();
    let mut rest = body;
    while let Some(open) = rest.find('{') {
        let Some(close) = rest[open..].find('}') else {
            fail(&format!("'{path}': unterminated object"));
        };
        let object = &rest[open + 1..open + close];
        rest = &rest[open + close + 1..];
        let Some(name) = string_field(object, "name") else {
            fail(&format!("'{path}': entry without a \"name\" string"));
        };
        let Some(unit) = string_field(object, "unit") else {
            fail(&format!(
                "'{path}': entry '{name}' without a \"unit\" string"
            ));
        };
        if unit != "s" && unit != "count" {
            fail(&format!(
                "'{path}': entry '{name}' has unknown unit '{unit}'"
            ));
        }
        let Some(raw) = number_field(object, "value") else {
            fail(&format!(
                "'{path}': entry '{name}' without a numeric \"value\""
            ));
        };
        let Ok(value) = raw.parse::<f64>() else {
            fail(&format!(
                "'{path}': entry '{name}' value '{raw}' is not a number"
            ));
        };
        entries.push(Entry {
            name,
            unit,
            value,
            raw,
        });
    }
    if entries.is_empty() {
        fail(&format!("'{path}' holds no entries"));
    }
    entries
}

fn lookup<'e>(entries: &'e [Entry], name: &str) -> Option<&'e Entry> {
    entries.iter().find(|e| e.name == name)
}

fn check(path: &str) {
    let entries = parse(path);

    // The campaign must have simulated exactly what it planned — a
    // shortfall means a worker died or a batch was dropped silently.
    let planned = lookup(&entries, "campaign/traces_planned")
        .unwrap_or_else(|| fail("no campaign/traces_planned entry"));
    let simulated = lookup(&entries, "campaign/traces_simulated")
        .unwrap_or_else(|| fail("no campaign/traces_simulated entry"));
    if planned.raw != simulated.raw {
        fail(&format!(
            "planned {} traces but simulated {}",
            planned.raw, simulated.raw
        ));
    }

    // Every simulated trace took exactly one path, lockstep or scalar;
    // both counters are published even at zero, so the split shows
    // whether lockstep engaged.
    let count = |name: &str| -> u64 {
        let entry = lookup(&entries, name).unwrap_or_else(|| fail(&format!("no {name} entry")));
        entry
            .raw
            .parse()
            .unwrap_or_else(|_| fail(&format!("{name} value '{}' is not a count", entry.raw)))
    };
    let lockstep = count("campaign/lockstep_traces");
    let scalar = count("campaign/scalar_traces");
    if lockstep + scalar != count("campaign/traces_simulated") {
        fail(&format!(
            "{lockstep} lockstep + {scalar} scalar traces != {} simulated",
            simulated.raw
        ));
    }

    // The span tree must account for the run: the direct children of
    // the root span cover at least 90% of its wall clock.
    let root = lookup(&entries, "span/portfolio")
        .unwrap_or_else(|| fail("no span/portfolio entry (was telemetry disabled?)"));
    let children: f64 = entries
        .iter()
        .filter(|e| {
            e.name
                .strip_prefix("span/portfolio/")
                .is_some_and(|rest| !rest.contains('/'))
        })
        .map(|e| e.value)
        .sum();
    if children < 0.9 * root.value {
        fail(&format!(
            "span coverage: children sum to {children:.3}s of {:.3}s root (<90%)",
            root.value
        ));
    }

    println!(
        "metrics_check: OK: {} entries, {} traces, span coverage {:.1}%",
        entries.len(),
        simulated.raw,
        100.0 * children / root.value.max(f64::MIN_POSITIVE),
    );
}

fn diff_counters(path_a: &str, path_b: &str) {
    let a = parse(path_a);
    let b = parse(path_b);
    let work = |entries: &[Entry]| -> Vec<Entry> {
        entries
            .iter()
            .filter(|e| e.unit == "count" && WORK_PREFIXES.iter().any(|p| e.name.starts_with(p)))
            .cloned()
            .collect()
    };
    let (wa, wb) = (work(&a), work(&b));
    if wa.is_empty() {
        fail(&format!("'{path_a}' holds no work counters"));
    }
    for ea in &wa {
        let Some(eb) = lookup(&wb, &ea.name) else {
            fail(&format!("'{}' missing from '{path_b}'", ea.name));
        };
        if ea.raw != eb.raw {
            fail(&format!(
                "work counter '{}' differs: {} vs {}",
                ea.name, ea.raw, eb.raw
            ));
        }
    }
    if wa.len() != wb.len() {
        fail(&format!(
            "work counter sets differ: {} in '{path_a}', {} in '{path_b}'",
            wa.len(),
            wb.len()
        ));
    }
    println!(
        "metrics_check: OK: {} work counters byte-identical across '{path_a}' and '{path_b}'",
        wa.len()
    );
}

/// The named counters of `entries` that are missing or not 0, each
/// with its value.
fn nonzero<'n>(entries: &[Entry], names: &'n [String]) -> Vec<(&'n str, Option<String>)> {
    names
        .iter()
        .filter_map(|name| match lookup(entries, name) {
            Some(entry) if entry.unit == "count" && entry.value == 0.0 => None,
            entry => Some((name.as_str(), entry.map(|e| e.raw.clone()))),
        })
        .collect()
}

fn zero(path: &str, names: &[String]) {
    let entries = parse(path);
    if let Some((name, value)) = nonzero(&entries, names).into_iter().next() {
        match value {
            Some(value) => fail(&format!("counter '{name}' is {value}, not 0")),
            None => fail(&format!("no {name} counter in '{path}'")),
        }
    }
    println!("metrics_check: OK: {} counters 0 in '{path}'", names.len());
}

/// The first named counter that is missing from `a` or `b`, or holds
/// different values in them, with both values.
fn first_mismatch<'n>(
    a: &[Entry],
    b: &[Entry],
    names: &'n [String],
) -> Option<(&'n str, Option<String>, Option<String>)> {
    let raw = |entries: &[Entry], name: &str| {
        lookup(entries, name)
            .filter(|e| e.unit == "count")
            .map(|e| e.raw.clone())
    };
    names.iter().find_map(|name| {
        let (va, vb) = (raw(a, name), raw(b, name));
        (va.is_none() || va != vb).then_some((name.as_str(), va, vb))
    })
}

fn same(path_a: &str, path_b: &str, names: &[String]) {
    let (a, b) = (parse(path_a), parse(path_b));
    if let Some((name, va, vb)) = first_mismatch(&a, &b, names) {
        let shown = |v: Option<String>| v.unwrap_or_else(|| "missing".to_owned());
        fail(&format!(
            "counter '{name}' is {} in '{path_a}' but {} in '{path_b}'",
            shown(va),
            shown(vb)
        ));
    }
    println!(
        "metrics_check: OK: {} counters equal in '{path_a}' and '{path_b}'",
        names.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [mode, file] if mode == "check" => check(file),
        [mode, a, b] if mode == "diff-counters" => diff_counters(a, b),
        [mode, file, names @ ..] if mode == "zero" && !names.is_empty() => zero(file, names),
        [mode, a, b, names @ ..] if mode == "same" && !names.is_empty() => same(a, b, names),
        _ => {
            eprintln!(
                "usage: metrics_check check FILE | metrics_check diff-counters FILE_A FILE_B \
                 | metrics_check zero FILE COUNTER... | metrics_check same FILE_A FILE_B COUNTER..."
            );
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_extraction_handles_the_emitted_shape() {
        let object = " \"name\": \"campaign/traces_planned\", \"unit\": \"count\", \"value\": 700 ";
        assert_eq!(
            string_field(object, "name").as_deref(),
            Some("campaign/traces_planned")
        );
        assert_eq!(string_field(object, "unit").as_deref(), Some("count"));
        assert_eq!(number_field(object, "value").as_deref(), Some("700"));
        let float = " \"name\": \"span/portfolio\", \"unit\": \"s\", \"value\": 12.345678 ";
        assert_eq!(number_field(float, "value").as_deref(), Some("12.345678"));
        assert!(string_field(object, "missing").is_none());
        assert!(number_field(object, "missing").is_none());
    }

    #[test]
    fn work_prefixes_select_counters_only() {
        let entry = |name: &str, unit: &str| Entry {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value: 1.0,
            raw: "1".to_owned(),
        };
        let is_work =
            |e: &Entry| e.unit == "count" && WORK_PREFIXES.iter().any(|p| e.name.starts_with(p));
        assert!(is_work(&entry("campaign/traces_simulated", "count")));
        assert!(is_work(&entry("uarch/l1d/accesses", "count")));
        assert!(is_work(&entry("store/slots_written", "count")));
        assert!(is_work(&entry("analysis/cells_absorbed", "count")));
        assert!(!is_work(&entry("campaign/batches", "count")));
        assert!(!is_work(&entry("store/page_hits", "count")));
        assert!(!is_work(&entry("span/portfolio", "s")));
    }

    #[test]
    fn zero_flags_missing_and_nonzero_counters() {
        let entry = |name: &str, raw: &str| Entry {
            name: name.to_owned(),
            unit: "count".to_owned(),
            value: raw.parse().expect("number"),
            raw: raw.to_owned(),
        };
        let entries = [
            entry("campaign/blocks_poisoned", "0"),
            entry("campaign/horizon_fallbacks", "3"),
        ];
        let names =
            |names: &[&str]| -> Vec<String> { names.iter().map(|n| (*n).to_owned()).collect() };
        assert!(nonzero(&entries, &names(&["campaign/blocks_poisoned"])).is_empty());
        assert_eq!(
            nonzero(
                &entries,
                &names(&["campaign/blocks_poisoned", "campaign/horizon_fallbacks"])
            ),
            [("campaign/horizon_fallbacks", Some("3".to_owned()))]
        );
        assert_eq!(
            nonzero(&entries, &names(&["campaign/missing"])),
            [("campaign/missing", None)]
        );
    }

    #[test]
    fn same_flags_missing_and_differing_counters() {
        let entry = |name: &str, raw: &str| Entry {
            name: name.to_owned(),
            unit: "count".to_owned(),
            value: raw.parse().expect("number"),
            raw: raw.to_owned(),
        };
        let stored = [
            entry("analysis/cells_absorbed", "1200"),
            entry("power/walks", "5"),
        ];
        let reanalyzed = [entry("analysis/cells_absorbed", "1200")];
        let cells = ["analysis/cells_absorbed".to_owned()];
        assert_eq!(first_mismatch(&stored, &reanalyzed, &cells), None);
        let short = [entry("analysis/cells_absorbed", "600")];
        assert_eq!(
            first_mismatch(&stored, &short, &cells),
            Some((
                "analysis/cells_absorbed",
                Some("1200".to_owned()),
                Some("600".to_owned())
            ))
        );
        let walks = ["power/walks".to_owned()];
        assert_eq!(
            first_mismatch(&stored, &reanalyzed, &walks),
            Some(("power/walks", Some("5".to_owned()), None))
        );
        assert_eq!(
            first_mismatch(&reanalyzed, &stored, &walks),
            Some(("power/walks", None, Some("5".to_owned())))
        );
    }
}
