//! F1 — Figure 1 reproduced as an executable conformance table: every rule
//! of "Rules governing execution on processor p", checked live.

use crate::conformance::rules;
use crate::table::{j, Table};

/// Every Figure 1 rule holds.
pub fn f1() -> Vec<Table> {
    let mut t = Table::new(
        "F1: Figure 1 execution rules, conformance",
        &["rule", "meaning", "status"],
    );
    let rules = rules();
    for (rule, meaning, check) in &rules {
        check().unwrap_or_else(|e| panic!("F1: rule `{rule}`: {e}"));
        t.row(&[j::s(rule), j::s(meaning), j::s("PASS")]);
    }
    t.note(&format!("all {} rules hold\n", rules.len()));
    vec![t]
}
