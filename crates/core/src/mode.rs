//! Provenance distribution modes (§3, "Distribution").

/// How provenance is maintained and distributed for a protocol run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProvenanceMode {
    /// No provenance at all — the baseline ("No Prov." in the figures).
    None,
    /// Reference-based distributed provenance: only a `(RID, RLoc)` pointer is
    /// shipped with each derivation; the provenance graph is stored in the
    /// distributed `prov` / `ruleExec` tables and resolved on demand by
    /// distributed queries.  This is the paper's main contribution.
    Reference,
    /// Value-based distributed provenance: every transmitted tuple carries its
    /// entire derivation history, condensed as a BDD
    /// ("Value-based Prov. (BDD)" in the figures).
    ValueBdd,
}

impl ProvenanceMode {
    /// Label used in experiment output, matching the figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            ProvenanceMode::None => "No Prov.",
            ProvenanceMode::Reference => "Ref-based Prov.",
            ProvenanceMode::ValueBdd => "Value-based Prov. (BDD)",
        }
    }
}

impl std::fmt::Display for ProvenanceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(ProvenanceMode::None.label(), "No Prov.");
        assert_eq!(ProvenanceMode::Reference.label(), "Ref-based Prov.");
        assert_eq!(ProvenanceMode::ValueBdd.label(), "Value-based Prov. (BDD)");
    }
}
