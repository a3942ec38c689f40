//! Findings and the report a lint run prints.

/// One rule violation at a specific location. Every finding fails the run.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired (e.g. `distance_arith`).
    pub rule: &'static str,
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong and what to do instead.
    pub message: String,
}

/// A whole lint run: every finding, and how many files were scanned.
#[derive(Debug, Default)]
pub struct Report {
    /// The findings, in rule-catalog order.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_checked: usize,
}

impl Report {
    /// Renders the report: one line per finding, then a summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{}:{}: [{}] {}\n", f.file, f.line, f.rule, f.message));
        }
        out.push_str(&format!(
            "cc-lint: {} files checked, {} findings\n",
            self.files_checked,
            self.findings.len()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_report_names_rule_file_line_and_count() {
        let report = Report {
            findings: vec![Finding {
                rule: "sentinel",
                file: "crates/x/src/a.rs".into(),
                line: 7,
                message: "literal `u64::MAX` comparison".into(),
            }],
            files_checked: 2,
        };
        let text = report.render();
        assert!(text.contains("crates/x/src/a.rs:7: [sentinel] literal"));
        assert!(text.contains("2 files checked, 1 findings"));
    }
}
