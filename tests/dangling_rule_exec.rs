//! A `prov` row whose rule execution is gone — as during a deletion cascade,
//! between the `ruleExec` row's deletion and its `prov` row's — is a dangling
//! pointer: the vertex it names derives nothing.  Its query answer is the
//! empty alternative (no derivation, not derivable), never the empty product
//! (one derivation from no inputs, derivable whatever is trusted).

use exspan::core::{Annotation, Deployment, Exspan, QueryOutcome, Repr};
use exspan::ndlog::programs;
use exspan::netsim::Topology;
use exspan::types::{sha1_digest, Tuple, Value};

/// MINCOST over Figure 3's network, converged, with one `prov` row at node 0
/// naming a rule execution that no node stores; returns the tuple it points
/// from.
fn with_a_dangling_pointer() -> (Deployment, Tuple) {
    let mut d = Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::paper_example())
        .build()
        .expect("valid deployment");
    d.run_to_fixpoint();
    let target = Tuple::new("bestPathCost", 0, vec![Value::Node(3), Value::Int(99)]);
    let prov = Tuple::new(
        "prov",
        0,
        vec![
            Value::from_digest(target.vid()),
            Value::from_digest(sha1_digest(b"x")),
            Value::Node(1),
        ],
    );
    d.insert_base(0, prov).expect("prov has arity 3");
    d.run_to_fixpoint();
    (d, target)
}

fn answer(d: &mut Deployment, target: &Tuple, repr: Repr) -> QueryOutcome {
    let outcome = d.query(target).issuer(1).repr(repr).execute();
    assert!(outcome.is_complete(), "the query completes");
    outcome
}

#[test]
fn a_dangling_rule_execution_derives_nothing() {
    let (mut d, target) = with_a_dangling_pointer();
    let count = answer(&mut d, &target, Repr::DerivationCount);
    assert_eq!(count.annotation, Some(Annotation::Count(0)));
    let derivable = answer(&mut d, &target, Repr::Derivability);
    assert_eq!(derivable.annotation, Some(Annotation::Bool(false)));
    let nodes = answer(&mut d, &target, Repr::NodeSet);
    assert_eq!(
        nodes.annotation,
        Some(Annotation::Nodes(Default::default()))
    );
    let poly = answer(&mut d, &target, Repr::Polynomial).annotation;
    let expr = poly
        .as_ref()
        .and_then(Annotation::as_expr)
        .expect("a polynomial");
    assert_eq!(expr.num_derivations(), 0, "{expr}");
    assert!(expr.base_tuples().is_empty());

    let handle = d.query(&target).issuer(1).repr(Repr::Bdd).submit();
    d.run_to_fixpoint();
    assert_eq!(d.derivable_under(handle, |_| true), Some(false));
    assert_eq!(d.derivable_under(handle, |_| false), Some(false));
}
