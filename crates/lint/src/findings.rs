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

/// A well-formed allow-comment and what it did this run.
#[derive(Debug, Clone)]
pub struct UsedAllow {
    /// File containing the comment, relative to the workspace root.
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Rules it lists.
    pub rules: Vec<String>,
    /// The stated reason.
    pub reason: String,
    /// How many findings it suppressed this run.
    pub suppressed: usize,
}

/// A whole lint run: findings (post-suppression) plus the allows in effect.
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings, in rule-catalog order.
    pub findings: Vec<Finding>,
    /// Allow-comments seen in scanned files.
    pub allows: Vec<UsedAllow>,
    /// Number of files scanned.
    pub files_checked: usize,
}

impl Report {
    /// Renders the report: one line per finding, a summary, the allows.
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
        if !self.allows.is_empty() {
            out.push_str("allows in effect:\n");
            for a in &self.allows {
                out.push_str(&format!(
                    "  {}:{} allow({}) -- {} [{} suppressed]\n",
                    a.file,
                    a.line,
                    a.rules.join(", "),
                    a.reason,
                    a.suppressed
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_report_names_rule_file_line_and_allows() {
        let report = Report {
            findings: vec![Finding {
                rule: "sentinel",
                file: "crates/x/src/a.rs".into(),
                line: 7,
                message: "literal `u64::MAX` comparison".into(),
            }],
            allows: vec![UsedAllow {
                file: "crates/x/src/b.rs".into(),
                line: 3,
                rules: vec!["no_panic".into()],
                reason: "startup".into(),
                suppressed: 1,
            }],
            files_checked: 2,
        };
        let text = report.render();
        assert!(text.contains("crates/x/src/a.rs:7: [sentinel] literal"));
        assert!(text.contains("2 files checked, 1 findings"));
        assert!(text.contains("allow(no_panic) -- startup [1 suppressed]"));
    }
}
