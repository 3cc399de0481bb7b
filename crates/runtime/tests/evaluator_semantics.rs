//! Pins of the rule evaluator's candidate-matching semantics, through the
//! public `Engine` API only — each case is decided by one branch of the
//! evaluator that neither the built-in programs nor the randomized shapes of
//! `join_differential.rs` reach on purpose.  Every case also checks every
//! relation against the reference evaluator in `oracle/`.

mod oracle;

use exspan_ndlog::ast::{BodyItem, Program, Term};
use exspan_ndlog::parse_program;
use exspan_netsim::Topology;
use exspan_runtime::{Engine, EngineConfig};
use exspan_types::{NodeId, Tuple, Value};

fn t(relation: &str, loc: NodeId, values: Vec<Value>) -> Tuple {
    Tuple::new(relation, loc, values)
}

fn int(i: i64) -> Value {
    Value::Int(i)
}

const NODES: usize = 3;

/// Runs `program` over a 3-node line, applying each base-tuple change
/// (`tuple`, insert) in order and running to fixpoint after it, checks every
/// relation and every changed base tuple's derivation count against the
/// reference evaluator, and returns the engine.
fn run_changes(program: &Program, changes: &[(Tuple, bool)]) -> Engine {
    let config = EngineConfig::default();
    let mut engine = Engine::new(program.clone(), Topology::line(NODES), config);
    for (tuple, insert) in changes {
        match insert {
            true => engine.insert_base(tuple.location, tuple.clone()),
            false => engine.delete_base(tuple.location, tuple.clone()),
        }
        engine.run_to_fixpoint();
    }
    let model = oracle::evaluate(program, NODES, changes.iter().cloned());
    let case = program.to_string();
    model.assert_visible(|rel| engine.tuples_everywhere_shared(rel), &case);
    for (tuple, _) in changes {
        let count = engine.derivation_count(tuple);
        assert_eq!(count, model.derivation_count(tuple), "{tuple} in {case}");
    }
    engine
}

/// [`run_changes`] inserting `base` in order.
fn run(program: &Program, base: &[Tuple]) -> Engine {
    let inserts: Vec<(Tuple, bool)> = base.iter().map(|t| (t.clone(), true)).collect();
    run_changes(program, &inserts)
}

/// The attribute lists of `relation` at `node`, sorted.
fn rows(engine: &Engine, node: NodeId, relation: &str) -> Vec<Vec<Value>> {
    let tuples = engine.tuples_shared(node, relation);
    tuples.iter().map(|t| t.values.clone()).collect()
}

fn parse(text: &str) -> Program {
    parse_program("pin", text).expect("test program parses")
}

#[test]
fn a_variable_repeated_inside_one_atom_binds_then_checks() {
    let program = parse(
        r#"
        materialize(pair, 3, keys(0,1,2)).
        materialize(seed, 1, keys(0)).
        r1 same(@S,A) :- pair(@S,A,A).
        r2 joined(@S,A) :- seed(@S), pair(@S,A,A).
        r3 located(@S,A) :- pair(@S,S,A).
        "#,
    );
    let pair = |a, b| t("pair", 0, vec![a, b]);
    let base = [
        pair(int(1), int(1)),
        pair(int(1), int(2)),
        t("seed", 0, vec![]),
        pair(int(2), int(2)),
        pair(Value::Node(0), int(7)),
        pair(Value::Node(1), int(8)),
        pair(int(0), int(9)),
    ];
    let engine = run(&program, &base);
    let matched = vec![vec![int(1)], vec![int(2)]];
    // As the trigger atom, and as a join level on either side of its trigger.
    assert_eq!(rows(&engine, 0, "same"), matched);
    assert_eq!(rows(&engine, 0, "joined"), matched);
    // The location variable repeated as an argument: only `Node(0)` equals it.
    assert_eq!(rows(&engine, 0, "located"), vec![vec![int(7)]]);
}

/// `r1` joins a body atom whose location is a constant; `r2` and `r3` ship to
/// constant head locations.  The parser reads `@1` as `Int(1)`; `as_node`
/// rewrites every such constant to `Node` to pin the other spelling.
fn location_constant_program(as_node: bool) -> Program {
    let mut program = parse(
        r#"
        materialize(t, 2, keys(0,1)).
        materialize(cfg, 2, keys(0,1)).
        r1 atOne(@S,X) :- t(@S,X), cfg(@1,X).
        r2 toTwo(@2,X) :- t(@S,X).
        r3 toText(@"two",X) :- t(@S,X).
        "#,
    );
    if as_node {
        let nodeify = |term: &mut Term| {
            if let Term::Const(Value::Int(n)) = term {
                *term = Term::Const(Value::Node(*n as NodeId));
            }
        };
        for rule in &mut program.rules {
            nodeify(&mut rule.head.location);
            for item in &mut rule.body {
                if let BodyItem::Atom(atom) = item {
                    nodeify(&mut atom.location);
                }
            }
        }
    }
    program
}

#[test]
fn a_location_constant_matches_as_int_and_as_node() {
    let base = [
        t("cfg", 0, vec![int(5)]),
        t("t", 0, vec![int(5)]),
        t("cfg", 1, vec![int(5)]),
        t("t", 1, vec![int(5)]),
        t("t", 1, vec![int(6)]),
        t("cfg", 1, vec![int(6)]),
    ];
    for as_node in [false, true] {
        let engine = run(&location_constant_program(as_node), &base);
        // Only node 1's `cfg` rows are located at the constant, whichever
        // side of the join arrived last.
        assert!(rows(&engine, 0, "atOne").is_empty(), "as_node={as_node}");
        assert_eq!(
            rows(&engine, 1, "atOne"),
            vec![vec![int(5)], vec![int(6)]],
            "as_node={as_node}"
        );
        // A constant head location ships there; one that names no node
        // derives nothing, and is data, not an evaluation error.
        assert_eq!(rows(&engine, 2, "toTwo"), vec![vec![int(5)], vec![int(6)]]);
        assert!(engine.tuples_everywhere_shared("toText").is_empty());
        assert_eq!(engine.eval_errors(), 0);
    }
}

#[test]
fn an_assignment_to_a_bound_variable_is_an_equality_test() {
    let program = parse(
        r#"
        materialize(t, 3, keys(0,1,2)).
        r1 out(@S,A,B) :- t(@S,A,B), A = B + 1.
        r2 twice(@S,C) :- t(@S,A,B), C = A + B, C = 5.
        "#,
    );
    let base = [
        t("t", 0, vec![int(3), int(2)]),
        t("t", 0, vec![int(3), int(3)]),
        t("t", 0, vec![int(1), int(0)]),
    ];
    let engine = run(&program, &base);
    assert_eq!(
        rows(&engine, 0, "out"),
        vec![vec![int(1), int(0)], vec![int(3), int(2)]]
    );
    // The second assignment to `C` tests the value the first one bound.
    assert_eq!(rows(&engine, 0, "twice"), vec![vec![int(5)]]);
}

#[test]
fn a_location_probe_column_bound_to_a_non_node_value_derives_nothing() {
    let program = parse(
        r#"
        materialize(t, 3, keys(0,1,2)).
        materialize(u, 2, keys(0,1)).
        r1 out(@S,X) :- t(@S,X,A), u(@X,A).
        "#,
    );
    // `u`'s location column is probed with `X`.  `Int(0)` names node 0 but is
    // not a location value: no probe is built, and the scan unifies nothing.
    for order in [[0usize, 1, 2], [1, 2, 0]] {
        let all = [
            t("u", 0, vec![int(7)]),
            t("t", 0, vec![int(0), int(7)]),
            t("t", 0, vec![Value::Node(0), int(7)]),
        ];
        let base: Vec<Tuple> = order.iter().map(|&i| all[i].clone()).collect();
        let engine = run(&program, &base);
        assert_eq!(rows(&engine, 0, "out"), vec![vec![Value::Node(0)]]);
        assert_eq!(engine.eval_errors(), 0);
    }
}

#[test]
fn an_aggregate_group_emptied_through_an_atom_not_binding_its_key_is_retracted() {
    // `a` binds `L` but not `N`, so its deletion recomputes every group at
    // the node — including one with no assignment left, only an output.
    let program = parse(
        r#"
        materialize(kv, 3, keys(0,1)).
        r1 kv(@L,N,min<S>) :- a(@L,X), b(@L,N,Y), S = X + Y.
        "#,
    );
    let a = t("a", 0, vec![int(0)]);
    let changes = [
        (a.clone(), true),
        (t("b", 0, vec![Value::Node(1), int(1)]), true),
        (a, false),
    ];
    let inserted = run_changes(&program, &changes[..2]);
    assert_eq!(rows(&inserted, 0, "kv"), vec![vec![Value::Node(1), int(1)]]);
    let deleted = run_changes(&program, &changes);
    assert!(deleted.tuples_everywhere_shared("kv").is_empty());
}

#[test]
fn a_group_does_not_resend_an_output_still_in_flight() {
    // Both `pc` rows land inside one local processing delay, so each
    // schedules a recomputation, and the second one runs while the output
    // the first dispatched is still in flight.
    let program = parse(
        r#"
        materialize(pc, 3, keys(0,1,2)).
        materialize(best, 3, keys(0,1)).
        r1 best(@S,D,min<C>) :- pc(@S,D,C).
        "#,
    );
    let mut engine = Engine::new(program, Topology::line(2), EngineConfig::default());
    let pc = |c| t("pc", 0, vec![Value::Node(1), int(c)]);
    engine.schedule_delta(1.0, 0, pc(7), true);
    engine.schedule_delta(1.0 + 10e-6, 0, pc(5), true);
    // Two deltas, two recomputations and one output: the second
    // recomputation finds the output it would send already sent.
    assert_eq!(engine.run_to_fixpoint().steps, 5);
    let best = t("best", 0, vec![Value::Node(1), int(5)]);
    assert_eq!(engine.derivation_count(&best), 1);
}

/// Statically impossible evaluation errors drop the candidate and are
/// counted once each; `note_eval_error` debug-asserts, so release only.
#[cfg(not(debug_assertions))]
#[test]
fn a_never_bound_variable_derives_nothing_and_counts_once_per_candidate() {
    let base = [
        t("t", 0, vec![int(1)]),
        t("t", 0, vec![int(2)]),
        t("t", 0, vec![int(3)]),
        t("u", 0, vec![int(3)]),
        t("u", 0, vec![int(2)]),
    ];
    // (program, evaluation errors over `base`): one per candidate that
    // reaches the faulty item — an earlier guard or a data-dependent type
    // error that rejects the candidate first is not an evaluation error.
    let cases = [
        ("r1 out(@S,Z) :- t(@S,X).", 3),
        ("r1 out(@Q,X) :- t(@S,X).", 3),
        ("r1 out(@S,Z) :- t(@S,X), X > 1.", 2),
        ("r1 out(@S,Y) :- t(@S,X), Y = Z + 1.", 3),
        ("r1 out(@S,Y) :- t(@S,X), Y = f_bogus(X).", 3),
        ("r1 out(@S,Y) :- t(@S,X), Y = f_bogus(Z).", 3),
        ("r1 out(@S,Y) :- t(@S,X), Y = f_size(X) + Z.", 0),
        ("r1 out(@S,X) :- t(@S,X), Z < 2.", 3),
        ("r1 out(@S,Z) :- t(@S,X), u(@S,X).", 2),
    ];
    for (rule, errors) in cases {
        let text = format!("materialize(t, 2, keys(0,1)).\nmaterialize(u, 2, keys(0,1)).\n{rule}");
        let engine = run(&parse(&text), &base);
        assert!(engine.tuples_everywhere_shared("out").is_empty(), "{rule}");
        assert_eq!(engine.eval_errors(), errors, "{rule}");
    }
}
