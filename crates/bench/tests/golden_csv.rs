//! The committed CSV goldens are well formed: under RFC 4180 quoting,
//! every record of `tests/golden/csv/*.csv` has as many fields as its
//! header. CI diffs `repro --csv`'s output against these files, so this
//! also holds the experiments' CSV writers to the same shape.

use spothost_analysis::series::csv_escape;
use std::fs;
use std::path::Path;

/// Split CSV text into records of fields per RFC 4180: a field may be
/// wrapped in double quotes, inside which commas and newlines are literal
/// and `""` stands for one quote.
fn records(text: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    let mut record = vec![String::new()];
    let mut quoted = false;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                record.last_mut().unwrap().push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => record.push(String::new()),
            '\n' if !quoted => records.push(std::mem::replace(&mut record, vec![String::new()])),
            c => record.last_mut().unwrap().push(c),
        }
    }
    assert!(!quoted, "unterminated quoted field");
    if record != [""] {
        records.push(record);
    }
    records
}

#[test]
fn the_reader_undoes_the_writers_quoting() {
    for field in [
        "plain",
        "cross-region, storm",
        "say \"hi\"",
        "two\nlines",
        "",
    ] {
        let line = format!("{},{}\n", csv_escape(field), csv_escape("next"));
        assert_eq!(records(&line), [[field, "next"]], "{line:?}");
    }
}

#[test]
fn every_golden_csv_record_has_the_header_field_count() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/csv");
    let mut paths: Vec<_> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "csv"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no CSV goldens in {}", dir.display());
    for path in &paths {
        let text = fs::read_to_string(path).expect("read golden");
        let rows = records(&text);
        let width = rows
            .first()
            .unwrap_or_else(|| panic!("{}: no header", path.display()))
            .len();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                width,
                "{} record {}: {} fields under a {width}-column header: {row:?}",
                path.display(),
                i + 1,
                row.len(),
            );
        }
    }
}
