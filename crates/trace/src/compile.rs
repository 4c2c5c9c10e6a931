//! Compiler instrumentation: per-pass wall time, IR node-count deltas,
//! and statement-level provenance.
//!
//! These types are IR-free on purpose — the compiler records statements as
//! `(preorder id, one-line summary)` pairs, so the trace crate stays below
//! `xdp-ir` in the dependency graph and `xdpc lower --explain` can render
//! the log without re-walking the program.

/// What one optimization pass did to the program.
#[derive(Clone, Debug, Default)]
pub struct PassTrace {
    pub name: String,
    /// Wall-clock time the pass took, in milliseconds.
    pub wall_ms: f64,
    pub changed: bool,
    /// Statement count (all nesting levels) before / after the pass.
    pub nodes_before: usize,
    pub nodes_after: usize,
    /// Statements the pass consumed: `(preorder id in the *input*
    /// program, one-line summary)`.
    pub removed: Vec<(u32, String)>,
    /// Statements the pass produced: ids are preorder in the *output*.
    pub added: Vec<(u32, String)>,
    /// Free-form notes the pass itself reported.
    pub notes: Vec<String>,
}

impl PassTrace {
    pub fn node_delta(&self) -> i64 {
        self.nodes_after as i64 - self.nodes_before as i64
    }
}

/// The full per-pipeline instrumentation record.
#[derive(Clone, Debug, Default)]
pub struct CompileTrace {
    pub passes: Vec<PassTrace>,
}

impl CompileTrace {
    fn total_wall_ms(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_ms).sum()
    }

    /// Human-readable per-pass table plus the provenance log, the body of
    /// `xdpc lower --explain` / `xdpc opt --explain`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>9} {:>7} {:>7} {:>6}  changed\n",
            "pass", "wall(ms)", "nodes", "delta", "edits"
        ));
        for p in &self.passes {
            out.push_str(&format!(
                "{:<24} {:>9.3} {:>7} {:>+7} {:>6}  {}\n",
                p.name,
                p.wall_ms,
                p.nodes_after,
                p.node_delta(),
                p.removed.len() + p.added.len(),
                if p.changed { "yes" } else { "no" }
            ));
        }
        out.push_str(&format!("{:<24} {:>9.3}\n", "total", self.total_wall_ms()));
        for p in &self.passes {
            if p.removed.is_empty() && p.added.is_empty() && p.notes.is_empty() {
                continue;
            }
            out.push_str(&format!("\n[{}]\n", p.name));
            for n in &p.notes {
                out.push_str(&format!("  note: {n}\n"));
            }
            for (sid, summary) in &p.removed {
                out.push_str(&format!("  - s{sid}: {summary}\n"));
            }
            for (sid, summary) in &p.added {
                out.push_str(&format!("  + s{sid}: {summary}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shows_deltas_and_provenance() {
        let ct = CompileTrace {
            passes: vec![
                PassTrace {
                    name: "LowerRedistribute".into(),
                    wall_ms: 0.25,
                    changed: true,
                    nodes_before: 7,
                    nodes_after: 3,
                    removed: vec![(0, "do i = 1, 16 {".into())],
                    added: vec![(0, "redistribute A CYCLIC".into())],
                    notes: vec!["collapsed 1 migration nest".into()],
                },
                PassTrace {
                    name: "Fuse".into(),
                    nodes_before: 3,
                    nodes_after: 3,
                    ..PassTrace::default()
                },
            ],
        };
        let s = ct.render();
        assert!(s.contains("LowerRedistribute"));
        assert!(s.contains("- s0: do i = 1, 16 {"));
        assert!(s.contains("+ s0: redistribute A CYCLIC"));
        assert!(s.contains("collapsed 1 migration nest"));
        assert!(s.contains("-4"), "node delta rendered: {s}");
        assert!((ct.total_wall_ms() - 0.25).abs() < 1e-12);
    }
}
