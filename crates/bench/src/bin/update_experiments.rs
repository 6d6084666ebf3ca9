//! Refresh the data tables in EXPERIMENTS.md from a `figures all` output
//! capture (default `figures_output.txt`), so the recorded document
//! always matches the canonical run.
//!
//! Usage: `update_experiments [figures_output.txt] [EXPERIMENTS.md]`
//!
//! Only the two fully tabular sections (Fig 6 and Fig 11) are rewritten;
//! prose comparisons are maintained by hand against the same capture.
//! A capture or document whose layout no longer matches (a missing
//! figure section or table) exits 1 naming what is missing, and leaves
//! EXPERIMENTS.md untouched.

use std::fmt::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fig_path = args
        .first()
        .map(String::as_str)
        .unwrap_or("figures_output.txt");
    let exp_path = args.get(1).map(String::as_str).unwrap_or("EXPERIMENTS.md");
    let figures = std::fs::read_to_string(fig_path).expect("figures output");
    let exp = std::fs::read_to_string(exp_path).expect("EXPERIMENTS.md");
    match refresh(&figures, &exp) {
        Ok(exp) => {
            std::fs::write(exp_path, exp).expect("write EXPERIMENTS.md");
            println!("EXPERIMENTS.md tables refreshed from {fig_path}");
        }
        Err(e) => {
            eprintln!("update_experiments: {e}");
            std::process::exit(1);
        }
    }
}

/// The document with both tables rebuilt from the capture.
fn refresh(figures: &str, exp: &str) -> Result<String, String> {
    // Fig 6 rows: `nodes affinity tpmc_scaled …`.
    let fig6 = pivot(section(figures, "# scenario: fig6 —")?, |f| {
        let n: u32 = f.first()?.parse().ok()?;
        let (a, tpmc) = (*f.get(1)?, *f.get(2)?);
        [1, 4, 8, 12, 16, 24]
            .contains(&n)
            .then(|| (n.to_string(), a, tpmc))
    });
    let exp = replace_table(
        exp,
        "| nodes | α=1.0 | α=0.8 | α=0.5 | α=0.0 |",
        &fig6,
        &["1.00", "0.80", "0.50", "0.00"],
    )?;
    // Fig 11 rows: `<case label words> affinity tpmc_scaled`.
    let fig11 = pivot(section(figures, "# scenario: fig11 —")?, |f| {
        let [label @ .., a, tpmc] = f else {
            return None;
        };
        (!label.is_empty()).then(|| (label.join(" "), *a, *tpmc))
    });
    replace_table(
        &exp,
        "| case | α=1.0 | α=0.8 | α=0.5 |",
        &fig11,
        &["1.00", "0.80", "0.50"],
    )
}

/// Table rows grouped by row key in first-seen order, each with its
/// `(affinity, tpm-C)` cells.
type Pivot = Vec<(String, Vec<(String, f64)>)>;

/// Pivot the rows of a section that `row` maps to `(row key, affinity,
/// tpm-C)`; rows whose tpm-C is not a number (the column header) are
/// skipped.
fn pivot<'a>(
    sec: &'a str,
    row: impl Fn(&[&'a str]) -> Option<(String, &'a str, &'a str)>,
) -> Pivot {
    let mut out: Pivot = Vec::new();
    for line in sec.lines().skip(1) {
        let f: Vec<&str> = line.split_whitespace().collect();
        let Some((key, a, tpmc)) = row(&f) else {
            continue;
        };
        let Ok(tpmc) = tpmc.parse::<f64>() else {
            continue;
        };
        match out.iter_mut().find(|(k, _)| *k == key) {
            Some((_, cells)) => cells.push((a.to_string(), tpmc)),
            None => out.push((key, vec![(a.to_string(), tpmc)])),
        }
    }
    out
}

/// Extract one `# ...` section of the figures output.
fn section<'a>(s: &'a str, header: &str) -> Result<&'a str, String> {
    let start = s
        .find(header)
        .ok_or_else(|| format!("no section '{header}' in the figures capture"))?;
    let rest = &s[start..];
    let end = rest[1..].find("\n# ").map(|i| i + 1).unwrap_or(rest.len());
    Ok(&rest[..end])
}

/// Replace the markdown table that starts with `head` (up to the first
/// non-table line) with `head`, a separator and one line per pivot row
/// holding its tpm-C at each of `affinities` (`—` where missing).
fn replace_table(
    doc: &str,
    head: &str,
    rows: &Pivot,
    affinities: &[&str],
) -> Result<String, String> {
    let start = doc
        .find(head)
        .ok_or_else(|| format!("no table '{head}' in EXPERIMENTS.md"))?;
    let mut table = format!("{head}\n|{}\n", "---|".repeat(affinities.len() + 1));
    for (key, cells) in rows {
        let _ = write!(table, "| {key} |");
        for a in affinities {
            let _ = match cells.iter().find(|(x, _)| x == a) {
                Some((_, v)) => write!(table, " {v:.0} |"),
                None => write!(table, " — |"),
            };
        }
        table.push('\n');
    }
    let end: usize = doc[start..]
        .lines()
        .take_while(|l| l.starts_with('|'))
        .map(|l| l.len() + 1)
        .sum();
    Ok(format!("{}{}{}", &doc[..start], table, &doc[start + end..]))
}
