//! Differential property tests of the engine against the reference
//! evaluator in `oracle/`.
//!
//! On randomized programs and randomized delta schedules (deletions,
//! duplicate derivations, aggregate groups that empty and refill), the
//! engine's visible tuples and the scheduled base tuples' derivation counts
//! must equal the evaluator's fixpoint, and the engine at four shards must
//! equal itself at one — same tuples, counts, traffic and event counts.
//! MINCOST under link churn is checked the same way.

mod oracle;

use exspan_ndlog::ast::{
    AggFunc, ArithOp, Atom, BodyItem, CmpOp, Expr, HeadArg, Program, Rule, RuleHead, TableDecl,
    Term,
};
use exspan_ndlog::programs;
use exspan_netsim::{LinkClass, LinkProps, Topology};
use exspan_runtime::{Engine, EngineConfig};
use exspan_types::{NodeId, Tuple, Value};
use proptest::prelude::*;

const NODES: usize = 5;

fn ring() -> Topology {
    let mut t = Topology::empty(NODES);
    let props = |cost| LinkProps {
        cost,
        ..LinkProps::from_class(LinkClass::Custom)
    };
    for i in 0..NODES {
        t.add_link(
            i as u32,
            ((i + 1) % NODES) as u32,
            props(1 + (i as i64 % 3)),
        );
    }
    t
}

/// Parameters of one randomized program.
#[derive(Debug, Clone)]
struct ProgramShape {
    /// r1's head location: the body location (local) or the neighbor
    /// argument (remote shipping).
    r1_remote: bool,
    /// Whether r2's `mid` atom shares the neighbor variable with `base`
    /// (a bound-argument probe) or binds a fresh one (a scan).
    r2_shared_neighbor: bool,
    /// Upper bound in r2's guard constraint.
    r2_bound: i64,
    /// Whether the three-atom rule r3 exists (two join levels per trigger).
    with_three_atom_rule: bool,
    /// Whether the bounded MINCOST-style recursion through the aggregate
    /// exists (exercises group recomputation under churn).
    with_recursion: bool,
}

fn arb_shape() -> impl Strategy<Value = ProgramShape> {
    (
        any::<bool>(),
        any::<bool>(),
        2i64..=6,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(r1_remote, r2_shared_neighbor, r2_bound, with_three_atom_rule, with_recursion)| {
                ProgramShape {
                    r1_remote,
                    r2_shared_neighbor,
                    r2_bound,
                    with_three_atom_rule,
                    with_recursion,
                }
            },
        )
}

/// Builds a localized program over:
///   base(@L, N, V)  — set semantics (derivation counting)
///   mid(@L, N, V)   — set semantics
///   kv(@L, N, min<S>) — aggregate output, keyed on (L, N)
///   best(@L, N, min<V>) — aggregate output, keyed on (L, N)
fn build_program(shape: &ProgramShape) -> Program {
    let var = Term::var;
    let mut p = Program::new("differential")
        .with_table(TableDecl::new("base", 3))
        .with_table(TableDecl::new("mid", 3))
        .with_table(TableDecl::with_keys("kv", 3, vec![0, 1]))
        .with_table(TableDecl::with_keys("best", 3, vec![0, 1]))
        .with_table(TableDecl::new("out", 2));

    // r1: mid(@L|N, N|L, V) :- base(@L, N, V).
    let (head_loc, head_first) = if shape.r1_remote {
        (var("N"), var("L"))
    } else {
        (var("L"), var("N"))
    };
    p = p.with_rule(Rule::new(
        "r1",
        RuleHead::new(
            "mid",
            head_loc,
            vec![HeadArg::Term(head_first), HeadArg::Term(var("V"))],
        ),
        vec![BodyItem::Atom(Atom::new(
            "base",
            var("L"),
            vec![var("N"), var("V")],
        ))],
    ));

    // r2: kv(@L, N?, min<S>) :- base(@L, N1, V1), mid(@L, N?, V2),
    //                            S = V1+V2, S < bound.
    // With N2, the `base` atom does not bind the group key: a `base` delta
    // recomputes every group at the node.
    let mid_n = if shape.r2_shared_neighbor { "N1" } else { "N2" };
    p = p.with_rule(Rule::new(
        "r2",
        RuleHead::new(
            "kv",
            var("L"),
            vec![
                HeadArg::Term(var(mid_n)),
                HeadArg::Aggregate(AggFunc::Min, Some("S".into())),
            ],
        ),
        vec![
            BodyItem::Atom(Atom::new("base", var("L"), vec![var("N1"), var("V1")])),
            BodyItem::Atom(Atom::new("mid", var("L"), vec![var(mid_n), var("V2")])),
            BodyItem::Assign(
                "S".into(),
                Expr::Arith(
                    ArithOp::Add,
                    Box::new(Expr::var("V1")),
                    Box::new(Expr::var("V2")),
                ),
            ),
            BodyItem::Constraint(CmpOp::Lt, Expr::var("S"), Expr::constant(shape.r2_bound)),
        ],
    ));

    if shape.with_three_atom_rule {
        // r3: out(@L, V3) :- mid(@L, N1, V3), base(@L, N1, V1), kv(@L, N1, V3).
        // Every trigger leaves two join levels, joined in body order: the
        // most selective atom, kv, is written last, so a `mid` or `base`
        // trigger probes on fewer columns first.
        p = p.with_rule(Rule::new(
            "r3",
            RuleHead::new("out", var("L"), vec![HeadArg::Term(var("V3"))]),
            vec![
                BodyItem::Atom(Atom::new("mid", var("L"), vec![var("N1"), var("V3")])),
                BodyItem::Atom(Atom::new("base", var("L"), vec![var("N1"), var("V1")])),
                BodyItem::Atom(Atom::new("kv", var("L"), vec![var("N1"), var("V3")])),
            ],
        ));
    }

    // agg: best(@L, N, min<V>) :- mid(@L, N, V).
    p = p.with_rule(Rule::new(
        "agg",
        RuleHead::new(
            "best",
            var("L"),
            vec![
                HeadArg::Term(var("N")),
                HeadArg::Aggregate(AggFunc::Min, Some("V".into())),
            ],
        ),
        vec![BodyItem::Atom(Atom::new(
            "mid",
            var("L"),
            vec![var("N"), var("V")],
        ))],
    ));

    if shape.with_recursion {
        // rec: mid(@L, N, V+1) :- best(@L, N, V), V+1 < 8  (bounded, so the
        // fixpoint terminates; churn makes the aggregate retract and re-derive).
        p = p.with_rule(Rule::new(
            "rec",
            RuleHead::new(
                "mid",
                var("L"),
                vec![
                    HeadArg::Term(var("N")),
                    HeadArg::Expr(Expr::Arith(
                        ArithOp::Add,
                        Box::new(Expr::var("V")),
                        Box::new(Expr::constant(1i64)),
                    )),
                ],
            ),
            vec![
                BodyItem::Atom(Atom::new("best", var("L"), vec![var("N"), var("V")])),
                BodyItem::Constraint(
                    CmpOp::Lt,
                    Expr::Arith(
                        ArithOp::Add,
                        Box::new(Expr::var("V")),
                        Box::new(Expr::constant(1i64)),
                    ),
                    Expr::constant(8i64),
                ),
            ],
        ));
    }

    p
}

/// One base-tuple event of the randomized schedule.
#[derive(Debug, Clone)]
struct DeltaEvent {
    node: usize,
    neighbor: usize,
    val: i64,
    /// Insert at `t`, and — when `delete_later` — delete again at `t + 0.5`.
    t_slot: u8,
    delete_later: bool,
    /// Insert the same tuple twice (duplicate derivation counting).
    duplicate: bool,
}

fn arb_schedule() -> impl Strategy<Value = Vec<DeltaEvent>> {
    proptest::collection::vec(
        (
            0usize..NODES,
            1usize..NODES,
            0i64..4,
            0u8..4,
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(
                |(node, hop, val, t_slot, delete_later, duplicate)| DeltaEvent {
                    node,
                    neighbor: (node + hop) % NODES,
                    val,
                    t_slot,
                    delete_later,
                    duplicate,
                },
            ),
        3..12,
    )
}

fn base_tuple(ev: &DeltaEvent) -> Tuple {
    Tuple::new(
        "base",
        ev.node as NodeId,
        vec![Value::Node(ev.neighbor as NodeId), Value::Int(ev.val)],
    )
}

const RELATIONS: &[&str] = &["base", "mid", "kv", "best", "out"];

/// The schedule's base-tuple changes in time order: `(time, tuple, insert)`.
fn changes(schedule: &[DeltaEvent]) -> Vec<(f64, Tuple, bool)> {
    let mut changes = Vec::new();
    for ev in schedule {
        let t = 0.1 + ev.t_slot as f64;
        changes.push((t, base_tuple(ev), true));
        if ev.duplicate {
            changes.push((t + 0.25, base_tuple(ev), true));
        }
        if ev.delete_later {
            changes.push((t + 0.5, base_tuple(ev), false));
        }
    }
    changes.sort_by(|a, b| a.0.total_cmp(&b.0));
    changes
}

/// Everything observable about one run to fixpoint: visible tuples per
/// relation, derivation counts of the scheduled base tuples, per-node
/// traffic and processed-event counts.
#[derive(Debug, PartialEq)]
struct Observed {
    tuples: Vec<Vec<Tuple>>,
    counts: Vec<usize>,
    bytes: Vec<u64>,
    steps: u64,
}

fn run_program(program: Program, schedule: &[DeltaEvent], shards: usize) -> Observed {
    let config = EngineConfig {
        shards,
        ..Default::default()
    };
    let mut engine = Engine::new(program, ring(), config);
    for (t, tuple, insert) in changes(schedule) {
        engine.schedule_delta(t, tuple.location, tuple, insert);
    }
    let steps = engine.run_to_fixpoint().steps;
    assert_eq!(
        engine.eval_errors(),
        0,
        "analyzer-accepted program produced statically-impossible eval errors"
    );
    let visible = |rel: &str| {
        engine
            .tuples_everywhere_shared(rel)
            .iter()
            .map(|t| (**t).clone())
            .collect()
    };
    Observed {
        tuples: RELATIONS.iter().map(|rel| visible(rel)).collect(),
        counts: schedule
            .iter()
            .map(|ev| engine.derivation_count(&base_tuple(ev)))
            .collect(),
        bytes: engine.stats().bytes_sent.clone(),
        steps,
    }
}

/// Runs the generated program at one shard and at four, asserts the two
/// runs equal each other and the reference evaluator, and returns the first.
fn check(shape: &ProgramShape, schedule: &[DeltaEvent]) -> Observed {
    let case = (shape, schedule);
    let one = run_program(build_program(shape), schedule, 1);
    let four = run_program(build_program(shape), schedule, 4);
    assert_eq!(one, four, "4 shards diverged from 1 in {case:?}");
    let base = changes(schedule)
        .into_iter()
        .map(|(_, t, insert)| (t, insert));
    let model = oracle::evaluate(&build_program(shape), NODES, base);
    let tuples: Vec<Vec<Tuple>> = RELATIONS.iter().map(|rel| model.rows(rel)).collect();
    for ((rel, seen), expected) in RELATIONS.iter().zip(&one.tuples).zip(&tuples) {
        assert_eq!(
            seen, expected,
            "{rel} differs from the evaluator's in {case:?}"
        );
    }
    let counts = schedule
        .iter()
        .map(|ev| model.derivation_count(&base_tuple(ev)));
    assert_eq!(one.counts, counts.collect::<Vec<_>>(), "counts in {case:?}");
    one
}

/// A mutation applied to an otherwise-valid generated program.  The first
/// two inject defects the static analyzer *guarantees* it catches (unbound
/// head variables, unknown built-ins) — exactly the error classes whose
/// runtime counterparts [`Engine::eval_errors`] counts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mutation {
    None,
    /// r1's head references a variable its body never binds (`E004`).
    UnboundHeadVar,
    /// r2's guard calls a built-in that does not exist (`E010`).
    UnknownFunction,
    /// r2's head columns are swapped — may or may not be a type conflict
    /// depending on what the rest of the program pins down (`E009` when it
    /// is); either way an accepted program must still run cleanly.
    SwappedHeadCols,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (0usize..4).prop_map(|i| match i {
        0 => Mutation::None,
        1 => Mutation::UnboundHeadVar,
        2 => Mutation::UnknownFunction,
        _ => Mutation::SwappedHeadCols,
    })
}

fn mutate(mut program: Program, mutation: Mutation) -> Program {
    match mutation {
        Mutation::None => {}
        Mutation::UnboundHeadVar => {
            program.rules[0].head.args[1] = HeadArg::Term(Term::var("Unbound"));
        }
        Mutation::UnknownFunction => {
            if let Some(BodyItem::Constraint(_, lhs, _)) = program.rules[1]
                .body
                .iter_mut()
                .find(|i| matches!(i, BodyItem::Constraint(..)))
            {
                *lhs = Expr::Call("f_bogus".into(), vec![Expr::var("V1")]);
            }
        }
        Mutation::SwappedHeadCols => {
            program.rules[1].head.args.swap(0, 1);
        }
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The engine at 1 and 4 shards reaches the reference evaluator's
    /// fixpoint on randomized programs, deltas and deletions.
    #[test]
    fn engine_matches_the_reference_evaluator(shape in arb_shape(), schedule in arb_schedule()) {
        check(&shape, &schedule);
    }

    /// The static analyzer's acceptance is sound for execution: any
    /// (possibly mutated) program it accepts runs to fixpoint at 1 and 4
    /// shards without a single statically-impossible evaluation error
    /// (`run_program` asserts `Engine::eval_errors() == 0`).  Conversely the
    /// two guaranteed-detectable mutations must always be rejected.
    #[test]
    fn analyzer_accepted_programs_run_cleanly(
        shape in arb_shape(),
        mutation in arb_mutation(),
        schedule in arb_schedule(),
    ) {
        let program = mutate(build_program(&shape), mutation);
        let analysis = exspan_ndlog::analyze(&program);
        match mutation {
            Mutation::UnboundHeadVar => {
                prop_assert!(
                    analysis.errors().any(|d| d.code == "E004"),
                    "unbound head variable not caught:\n{}",
                    analysis.diagnostics.render(None)
                );
            }
            Mutation::UnknownFunction => {
                prop_assert!(
                    analysis.errors().any(|d| d.code == "E010"),
                    "unknown built-in not caught:\n{}",
                    analysis.diagnostics.render(None)
                );
            }
            Mutation::None => prop_assert!(
                !analysis.has_errors(),
                "unmutated program rejected:\n{}",
                analysis.diagnostics.render(None)
            ),
            Mutation::SwappedHeadCols => {}
        }
        if !analysis.has_errors() {
            let one = run_program(program.clone(), &schedule, 1);
            let four = run_program(program, &schedule, 4);
            prop_assert_eq!(one, four, "accepted program diverged across shard counts");
        }
    }
}

/// A deterministic smoke case pinning the exact shape the proptest explores,
/// so a regression reproduces without a proptest seed.
#[test]
fn engine_matches_the_reference_evaluator_smoke() {
    let shape = ProgramShape {
        r1_remote: true,
        r2_shared_neighbor: true,
        r2_bound: 5,
        with_three_atom_rule: true,
        with_recursion: true,
    };
    let schedule: Vec<DeltaEvent> = (0..8)
        .map(|i| DeltaEvent {
            node: i % NODES,
            neighbor: (i + 1) % NODES,
            val: (i % 3) as i64,
            t_slot: (i % 4) as u8,
            delete_later: i % 2 == 0,
            duplicate: i % 3 == 0,
        })
        .collect();
    let observed = check(&shape, &schedule);
    assert!(
        observed.tuples.iter().any(|rows| !rows.is_empty()),
        "smoke case must derive something"
    );
}

/// MINCOST over a 24-node testbed ring, every 7th link then deleted: at 1
/// and 4 shards the engine ends at the evaluator's fixpoint over the links
/// left.  MINCOST has no `S != D` guard, so every node also derives its
/// cheapest round trip `bestPathCost(@S,S,C)`, as the e2e benchmark's
/// Dijkstra oracle expects.
#[test]
fn mincost_under_churn_matches_the_reference_evaluator() {
    let topology = Topology::testbed_ring(24, 7);
    let links: Vec<(NodeId, NodeId, i64)> =
        topology.links().map(|(a, b, p)| (a, b, p.cost)).collect();
    let deleted: Vec<_> = links.iter().copied().step_by(7).collect();
    let link = |a, b, cost| Tuple::new("link", a, vec![Value::Node(b), Value::Int(cost)]);
    let both = |&(a, b, cost): &(NodeId, NodeId, i64)| [link(a, b, cost), link(b, a, cost)];
    let inserts = links.iter().flat_map(both).map(|t| (t, true));
    let deletes = deleted.iter().flat_map(both).map(|t| (t, false));
    let model = oracle::evaluate(&programs::mincost(), 24, inserts.chain(deletes));
    for shards in [1, 4] {
        let config = EngineConfig {
            shards,
            ..Default::default()
        };
        let mut engine = Engine::new(programs::mincost(), topology.clone(), config);
        for tuple in links.iter().flat_map(both) {
            engine.insert_base(tuple.location, tuple);
        }
        engine.run_to_fixpoint();
        for &(a, b, cost) in &deleted {
            engine.remove_link(a, b);
            for tuple in both(&(a, b, cost)) {
                engine.delete_base(tuple.location, tuple);
            }
        }
        engine.run_to_fixpoint();
        model.assert_visible(|rel| engine.tuples_everywhere_shared(rel), &shards);
    }
    let sizes = ["link", "pathCost", "bestPathCost"].map(|rel| model.rows(rel).len());
    assert_eq!(sizes, [60, 1_134, 576]);
    let round_trips = model.rows("bestPathCost").into_iter();
    let round_trips = round_trips.filter(|t| t.values[0] == Value::Node(t.location));
    assert_eq!(round_trips.count(), 24);
}
