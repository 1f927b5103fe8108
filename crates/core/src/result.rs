//! Result type shared by every CC implementation in the workspace.

use ecl_graph::{CsrGraph, Vertex};

/// The outcome of a connected-components run: one label per vertex.
///
/// Labels are representative vertex IDs; with ECL-CC's smaller-ID-wins
/// hooking the label of every component is its minimum vertex ID.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CcResult {
    /// `labels[v]` = component representative of vertex `v`.
    pub labels: Vec<Vertex>,
}

impl CcResult {
    /// Wraps a label array.
    pub fn new(labels: Vec<Vertex>) -> Self {
        CcResult { labels }
    }

    /// Number of distinct components.
    pub fn num_components(&self) -> usize {
        let mut sorted: Vec<Vertex> = self.labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.len()
    }

    /// Certifies this labeling against `g` with [`ecl_verify::certify`]:
    /// the labels must partition the vertices into exactly the connected
    /// components, each label naming a member of its class that labels
    /// itself (which member is free), mirroring the paper's §4
    /// verification step.
    pub fn verify(&self, g: &CsrGraph) -> Result<(), String> {
        ecl_verify::certify(g, &self.labels)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// True if vertices `u` and `v` are in the same component.
    pub fn same_component(&self, u: Vertex, v: Vertex) -> bool {
        self.labels[u as usize] == self.labels[v as usize]
    }

    /// Sizes of all components, descending.
    pub fn component_sizes(&self) -> Vec<usize> {
        let mut counts: std::collections::HashMap<Vertex, usize> = std::collections::HashMap::new();
        for &l in &self.labels {
            *counts.entry(l).or_insert(0) += 1;
        }
        let mut sizes: Vec<usize> = counts.into_values().collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::{generate, stats};

    #[test]
    fn num_components_counts_distinct_labels() {
        let r = CcResult::new(vec![0, 0, 2, 2, 4]);
        assert_eq!(r.num_components(), 3);
    }

    #[test]
    fn same_component_checks_labels() {
        let r = CcResult::new(vec![0, 0, 2]);
        assert!(r.same_component(0, 1));
        assert!(!r.same_component(1, 2));
    }

    #[test]
    fn verify_against_reference() {
        let g = generate::disjoint_cliques(3, 4);
        let good = CcResult::new(stats::reference_labels(&g));
        good.verify(&g).unwrap();
        let bad = CcResult::new(vec![0; 12]);
        assert!(bad.verify(&g).is_err());
    }

    #[test]
    fn verify_accepts_any_representative_choice() {
        let g = generate::disjoint_cliques(2, 3);
        // Use the *largest* vertex as representative instead of smallest.
        CcResult::new(vec![2, 2, 2, 5, 5, 5]).verify(&g).unwrap();
    }

    #[test]
    fn verify_rejects_merged_components() {
        let g = generate::disjoint_cliques(2, 3);
        assert!(CcResult::new(vec![0; 6]).verify(&g).is_err());
    }

    #[test]
    fn verify_rejects_split_components() {
        let g = generate::complete(4);
        assert!(CcResult::new(vec![0, 0, 2, 2]).verify(&g).is_err());
    }

    #[test]
    fn verify_rejects_wrong_length() {
        let g = generate::path(4);
        assert!(CcResult::new(vec![0, 0]).verify(&g).is_err());
    }

    #[test]
    fn component_sizes_sorted() {
        let r = CcResult::new(vec![0, 0, 0, 3, 3, 5]);
        assert_eq!(r.component_sizes(), vec![3, 2, 1]);
    }

    #[test]
    fn empty_result() {
        let r = CcResult::new(vec![]);
        assert_eq!(r.num_components(), 0);
        assert_eq!(r.component_sizes(), Vec::<usize>::new());
    }
}
