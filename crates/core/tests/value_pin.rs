//! Value-based provenance, pinned: exact bytes, annotation bytes, state
//! digest and derivability answers of MINCOST and PATHVECTOR on a 24-node
//! testbed ring.  The numbers were read at the commit before annotations
//! were keyed by tuple instead of by VID; a policy that charges one BDD node
//! more or fewer, or conjoins a different input, moves one of them.  Every
//! pin holds at 1, 2 and 4 shards, whose stores exchange the histories that
//! cross them in the canonical encoding.

use exspan_core::{Deployment, Exspan, ProvenanceMode};
use exspan_ndlog::ast::Program;
use exspan_ndlog::programs;
use exspan_netsim::{LinkClass, LinkProps, Topology};
use exspan_types::{Tuple, Value, Vid};
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

/// The shard counts every pin holds at.
const SHARDS: [usize; 3] = [1, 2, 4];

fn run(program: &Program, shards: usize) -> Pin {
    let mut d = Exspan::builder()
        .program(program.clone())
        .topology(Topology::testbed_ring(24, 7))
        .mode(ProvenanceMode::ValueBdd)
        .shards(shards)
        .build()
        .expect("valid deployment");
    assert_eq!(d.num_shards(), shards);
    d.run_to_fixpoint();
    let even_links: BTreeSet<Vid> = d
        .tuples_everywhere_shared("link")
        .iter()
        .filter(|l| l.location % 2 == 0)
        .map(|l| l.vid())
        .collect();
    let best = d.tuples_everywhere_shared("bestPathCost");
    let derivable = |trusted: &dyn Fn(Vid) -> bool| {
        let answers = best.iter().map(|t| d.engine().derivable_under(t, trusted));
        answers.map(|a| a.expect("value mode") as usize).sum()
    };
    Pin {
        bytes: d.engine().stats().total_bytes(),
        annotation_bytes: annotation_bytes(&d),
        digest: d.state_digest(),
        best_paths: best.len(),
        derivable_trusting_all: derivable(&|_| true),
        derivable_trusting_even_links: derivable(&|vid| even_links.contains(&vid)),
    }
}

#[test]
fn mincost_in_value_mode_is_pinned() {
    for shards in SHARDS {
        assert_eq!(
            run(&programs::mincost(), shards),
            Pin {
                bytes: 313_464,
                annotation_bytes: 218_424,
                digest: "22a3773a1ab1327aedeeb4743da4c3c91b956b2c".into(),
                best_paths: 576,
                derivable_trusting_all: 576,
                derivable_trusting_even_links: 132,
            },
            "{shards} shards"
        );
    }
}

#[test]
fn pathvector_in_value_mode_is_pinned() {
    for shards in SHARDS {
        assert_eq!(
            run(&programs::path_vector(), shards),
            Pin {
                bytes: 296_488,
                annotation_bytes: 146_840,
                digest: "b76d3f4ecbbbb6ee171140b8fcb26b84b2f09d98".into(),
                best_paths: 552,
                derivable_trusting_all: 552,
                derivable_trusting_even_links: 114,
            },
            "{shards} shards"
        );
    }
}

/// The annotation bytes `d` has charged so far, on all its shards.
fn annotation_bytes(d: &Deployment) -> u64 {
    d.engine().annotation_bytes().expect("value mode")
}

/// The annotation bytes one `ePacket` from node 0 to node 4 is charged on
/// its way, on a 5-node graph whose cheap route 0–1–3–4 goes when
/// `remove_link(0, 1)` runs, leaving 0–2–3–4; with `before`, the same packet
/// also travelled once before the removal.  At several shards the packet
/// crosses them.
fn packet_after_removal(before: bool, shards: usize) -> u64 {
    let mut topology = Topology::empty(5);
    for (a, b, cost) in [(0, 1, 1), (1, 3, 1), (3, 4, 1), (0, 2, 2), (2, 3, 2)] {
        let props = LinkProps::from_class(LinkClass::Custom);
        topology.add_link(a, b, LinkProps { cost, ..props });
    }
    let mut d = Exspan::builder()
        .program(programs::packet_forward())
        .topology(topology)
        .mode(ProvenanceMode::ValueBdd)
        .shards(shards)
        .build()
        .expect("valid deployment");
    d.run_to_fixpoint();
    let packet = Tuple::new(
        "ePacket",
        0,
        vec![Value::Node(0), Value::Node(4), Value::Payload(1024)],
    );
    let send = |d: &mut Deployment| {
        d.insert_base(0, packet.clone())
            .expect("an event at its node");
        d.run_to_fixpoint();
    };
    if before {
        send(&mut d);
    }
    d.remove_link(0, 1);
    d.run_to_fixpoint();
    let charged = annotation_bytes(&d);
    send(&mut d);
    assert_eq!(d.tuples_shared(4, "recvPacket").len(), 1);
    annotation_bytes(&d) - charged
}

#[test]
fn an_event_ships_only_its_own_history() {
    // An event is stored nowhere, and neither is its history: the packet
    // that takes the new route does not carry the old route's along.
    for shards in SHARDS {
        let control = packet_after_removal(false, shards);
        assert_eq!(control, 156, "{shards} shards");
        assert_eq!(
            packet_after_removal(true, shards),
            control,
            "{shards} shards"
        );
    }
}
