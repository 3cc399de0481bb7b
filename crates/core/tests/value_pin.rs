//! Value-based provenance, pinned: exact bytes, annotation bytes, state
//! digest and derivability answers of MINCOST and PATHVECTOR on a 24-node
//! testbed ring.  The numbers were read at the commit before annotations
//! were keyed by tuple instead of by VID; a policy that charges one BDD node
//! more or fewer, or conjoins a different input, moves one of them.

use exspan_core::{Exspan, ProvenanceMode, ValueBddPolicy};
use exspan_ndlog::ast::Program;
use exspan_ndlog::programs;
use exspan_netsim::Topology;
use exspan_types::Vid;
use std::collections::BTreeSet;

/// What a value-mode fixpoint is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    bytes: u64,
    annotation_bytes: u64,
    digest: String,
    best_paths: usize,
    derivable_trusting_all: usize,
    derivable_trusting_even_links: usize,
}

fn run(program: Program) -> Pin {
    let mut d = Exspan::builder()
        .program(program)
        .topology(Topology::testbed_ring(24, 7))
        .mode(ProvenanceMode::ValueBdd)
        .build()
        .expect("valid deployment");
    d.run_to_fixpoint();
    let even_links: BTreeSet<Vid> = d
        .tuples_everywhere_shared("link")
        .iter()
        .filter(|l| l.location % 2 == 0)
        .map(|l| l.vid())
        .collect();
    let best = d.tuples_everywhere_shared("bestPathCost");
    let derivable = |trusted: &dyn Fn(Vid) -> bool| {
        let answers = d.with_value_provenance(|p| {
            best.iter()
                .filter(|t| p.derivable_under(t, trusted))
                .count()
        });
        answers.expect("value mode")
    };
    Pin {
        bytes: d.engine().stats().total_bytes(),
        annotation_bytes: d
            .with_value_provenance(ValueBddPolicy::total_annotation_bytes)
            .expect("value mode"),
        digest: d.state_digest(),
        best_paths: best.len(),
        derivable_trusting_all: derivable(&|_| true),
        derivable_trusting_even_links: derivable(&|vid| even_links.contains(&vid)),
    }
}

#[test]
fn mincost_in_value_mode_is_pinned() {
    assert_eq!(
        run(programs::mincost()),
        Pin {
            bytes: 313_464,
            annotation_bytes: 218_424,
            digest: "22a3773a1ab1327aedeeb4743da4c3c91b956b2c".into(),
            best_paths: 576,
            derivable_trusting_all: 576,
            derivable_trusting_even_links: 132,
        }
    );
}

#[test]
fn pathvector_in_value_mode_is_pinned() {
    assert_eq!(
        run(programs::path_vector()),
        Pin {
            bytes: 296_488,
            annotation_bytes: 146_840,
            digest: "b76d3f4ecbbbb6ee171140b8fcb26b84b2f09d98".into(),
            best_paths: 552,
            derivable_trusting_all: 552,
            derivable_trusting_even_links: 114,
        }
    );
}
