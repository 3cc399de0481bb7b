//! The built-in declarative networking programs used as workloads by the
//! evaluation (paper §7, "Applications"):
//!
//! * [`mincost`] — Figure 1 of the paper: computes the best (least-cost) path
//!   cost between every pair of nodes.
//! * [`path_vector`] — extends MINCOST so each node also discovers the best
//!   path itself, transmitted as a vector of nodes.
//! * [`packet_forward`] — the data-plane application: forwards `ePacket`
//!   events hop-by-hop along the previously discovered best paths
//!   (Figure 2 of the paper), layered on top of PATHVECTOR.

use crate::ast::Program;
use crate::parser::parse_program;

/// The maximum path cost MINCOST will propagate.  Like the "infinity" bound
/// of distance-vector protocols (e.g. RIP's 16), this keeps incremental
/// deletion from counting to infinity when a destination becomes unreachable;
/// it is far above any real path cost in the evaluation topologies.
pub const MINCOST_INFINITY: i64 = 64;

/// The MINCOST program (paper Figure 1).
///
/// ```text
/// sp1 pathCost(@S,D,C) :- link(@S,D,C).
/// sp2 pathCost(@S,D,C1+C2) :- link(@Z,S,C1), bestPathCost(@Z,D,C2).
/// sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).
/// ```
///
/// Rule `sp2` additionally carries the bound `C < MINCOST_INFINITY` (see
/// [`MINCOST_INFINITY`]); the paper elides it, but without an infinity bound
/// any distance-vector computation counts to infinity under link deletions.
pub fn mincost() -> Program {
    parse_program("MINCOST", &mincost_source())
        .expect("MINCOST program must parse")
        .normalize()
}

/// The NDlog source text of [`mincost`] (pre-normalization), for spanned
/// linting by `ndlog-lint --builtins`.
pub fn mincost_source() -> String {
    format!(
        r#"
        materialize(link, 3, keys(0,1)).
        materialize(pathCost, 3, keys(0,1,2)).
        materialize(bestPathCost, 3, keys(0,1)).

        sp1 pathCost(@S,D,C) :- link(@S,D,C).
        sp2 pathCost(@S,D,C) :- link(@Z,S,C1), bestPathCost(@Z,D,C2), C=C1+C2,
                                C<{MINCOST_INFINITY}.
        sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).
        "#
    )
}

/// The PATHVECTOR program: best paths as node vectors.
///
/// A `path(@S,D,P,C)` tuple records a loop-free path `P` (a list of nodes
/// starting at `S` and ending at `D`) of cost `C`; `bestPath` keeps the one
/// achieving the minimal cost.  Loop freedom is enforced by the `f_inPath`
/// check, as in standard declarative path-vector formulations.
pub fn path_vector() -> Program {
    parse_program("PATHVECTOR", PATH_VECTOR_SOURCE)
        .expect("PATHVECTOR program must parse")
        .normalize()
}

const PATH_VECTOR_SOURCE: &str = r#"
        materialize(link, 3, keys(0,1)).
        materialize(path, 4, keys(0,1,2,3)).
        materialize(bestPathCost, 3, keys(0,1)).
        materialize(bestPath, 4, keys(0,1)).

        pv1 path(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).
        pv2 path(@S,D,P,C) :- link(@Z,S,C1), bestPath(@Z,D,P2,C2), C=C1+C2,
                              f_inPath(P2,S)==false, P=f_prepend(S,P2).
        pv3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
        pv4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
        "#;

/// The NDlog source text of [`path_vector`] (pre-normalization).
pub fn path_vector_source() -> String {
    PATH_VECTOR_SOURCE.to_string()
}

/// The PACKETFORWARD program (paper Figure 2), layered on PATHVECTOR.
///
/// `bestHop` is derived from the best path's second element; an `ePacket`
/// event is relayed to the next hop until it reaches its destination, where a
/// `recvPacket` tuple is materialized.
pub fn packet_forward() -> Program {
    parse_program("PACKETFORWARD", &packet_forward_source())
        .expect("PACKETFORWARD program must parse")
        .normalize()
}

const FORWARDING_SOURCE: &str = r#"
        materialize(bestHop, 3, keys(0,1)).
        materialize(recvPacket, 4, keys(0,1,2,3)).

        bh1 bestHop(@S,D,NH) :- bestPath(@S,D,P,C), NH=f_nextHop(P).
        f1 ePacket(@Next,Src,Dst,Payload) :- ePacket(@N,Src,Dst,Payload),
                                             bestHop(@N,Dst,Next), N!=Dst.
        f2 recvPacket(@N,Src,Dst,Payload) :- ePacket(@N,Src,Dst,Payload), N==Dst.
        "#;

/// The NDlog source text of [`packet_forward`] (pre-normalization): the
/// PATHVECTOR control plane followed by the forwarding data plane.
pub fn packet_forward_source() -> String {
    format!("{PATH_VECTOR_SOURCE}\n{FORWARDING_SOURCE}")
}

/// `(name, source)` pairs for every built-in program, in a stable order.
/// `ndlog-lint --builtins` lints these with full span information.
pub fn builtin_sources() -> Vec<(&'static str, String)> {
    vec![
        ("MINCOST", mincost_source()),
        ("PATHVECTOR", path_vector_source()),
        ("PACKETFORWARD", packet_forward_source()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;

    #[test]
    fn mincost_structure_matches_paper() {
        let p = mincost();
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.rule("sp1").unwrap().head.relation, "pathCost");
        assert!(p.rule("sp3").unwrap().is_aggregate());
        assert_eq!(
            p.base_relations().into_iter().collect::<Vec<_>>(),
            vec!["link"]
        );
        assert!(!analyze(&p).has_errors());
    }

    #[test]
    fn path_vector_structure() {
        let p = path_vector();
        assert_eq!(p.rules.len(), 4);
        assert!(p.derived_relations().contains("bestPath"));
        assert!(!analyze(&p).has_errors());
    }

    #[test]
    fn packet_forward_includes_control_and_data_plane() {
        let p = packet_forward();
        assert!(p.rule("pv2").is_some(), "control plane rules present");
        assert!(p.rule("f1").is_some(), "data plane rules present");
        assert!(p.table("bestHop").is_some());
        assert!(!analyze(&p).has_errors());
        // ePacket is an event predicate, so it must not be materialized.
        assert!(p.table("ePacket").is_none());
        assert!(crate::is_event_predicate("ePacket"));
    }

    #[test]
    fn normalization_removed_head_expressions() {
        // sp2's head expression C1+C2 must have been normalized into an
        // assignment so the provenance rewrite can treat all head args as
        // plain terms.
        let p = mincost();
        for rule in &p.rules {
            for arg in &rule.head.args {
                assert!(
                    !matches!(arg, crate::ast::HeadArg::Expr(_)),
                    "rule {} still has an expression head argument",
                    rule.label
                );
            }
        }
    }
}
