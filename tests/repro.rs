//! The committed reproduction report stays what the code renders.
//!
//! `REPRO.md` is regenerated whole by `cargo run --release --example reproduce` (CI diffs
//! that run against the file). This suite recomputes the sections that take well under a
//! second — Fig. 5, Fig. 8, Table I and the ablation — and holds each, with its summary row,
//! byte-equal to the committed copy; it also checks that every figure appears exactly once.

use realm::core::report::FIGURES;

const REPRO: &str = include_str!("../REPRO.md");

#[test]
fn cheap_sections_match_the_committed_report() {
    let cheap = ["Fig. 5", "Fig. 8", "Table I", "Ablation"];
    for (label, run) in FIGURES
        .into_iter()
        .filter(|(label, _)| cheap.contains(label))
    {
        let section = run().expect("the experiments run");
        // The committed section runs from its heading up to the next one.
        let start = REPRO.find(&format!("\n## {label} — ")).expect("a section") + 1;
        let end = REPRO[start..]
            .find("\n## ")
            .map_or(REPRO.len(), |i| start + i);
        let (markdown, row) = (section.markdown(label), section.summary_row(label));
        assert_eq!(
            &REPRO[start..end],
            markdown,
            "{label} drifted; regenerate REPRO.md"
        );
        assert!(
            REPRO.lines().any(|line| line == row),
            "{label}'s row drifted:\n{row}"
        );
    }
}

#[test]
fn every_figure_appears_exactly_once() {
    for (label, _) in FIGURES {
        let count = |prefix: String| REPRO.lines().filter(|l| l.starts_with(&prefix)).count();
        let (sections, rows) = (
            count(format!("## {label} — ")),
            count(format!("| {label} | ")),
        );
        assert_eq!(
            (sections, rows),
            (1, 1),
            "{label}: (sections, summary rows)"
        );
    }
    assert_eq!(REPRO.matches("\n## ").count(), FIGURES.len() + 1);
}
