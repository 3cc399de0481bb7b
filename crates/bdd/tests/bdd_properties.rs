//! Property-based tests: the BDD library must be a correct boolean algebra
//! and its canonical handles must coincide with semantic equality.

use exspan_bdd::{Bdd, BddStore, VarId};
use proptest::prelude::*;

/// A small boolean-expression AST we build random instances of, then check
/// that the BDD evaluation matches direct evaluation under every assignment
/// of the (small) variable set.
#[derive(Debug, Clone)]
enum Expr {
    Var(VarId),
    Const(bool),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
}

fn arb_expr(num_vars: u32) -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..num_vars).prop_map(Expr::Var),
        any::<bool>().prop_map(Expr::Const),
    ];
    leaf.prop_recursive(4, 32, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Or(Box::new(a), Box::new(b))),
        ]
    })
}

fn eval_direct(e: &Expr, assignment: u32) -> bool {
    match e {
        Expr::Var(v) => assignment & (1 << v) != 0,
        Expr::Const(c) => *c,
        Expr::And(a, b) => eval_direct(a, assignment) && eval_direct(b, assignment),
        Expr::Or(a, b) => eval_direct(a, assignment) || eval_direct(b, assignment),
    }
}

fn build_bdd(m: &mut BddStore, e: &Expr) -> Bdd {
    match e {
        Expr::Var(v) => m.var(*v),
        Expr::Const(true) => Bdd::TRUE,
        Expr::Const(false) => Bdd::FALSE,
        Expr::And(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.and(x, y)
        }
        Expr::Or(a, b) => {
            let x = build_bdd(m, a);
            let y = build_bdd(m, b);
            m.or(x, y)
        }
    }
}

const NUM_VARS: u32 = 5;

/// Variables of the encoding round trip: every assignment is checked.
const CODEC_VARS: u32 = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The BDD of an expression evaluates identically to the expression under
    /// every assignment of the variables.
    #[test]
    fn bdd_matches_truth_table(e in arb_expr(NUM_VARS)) {
        let mut m = BddStore::new();
        let b = build_bdd(&mut m, &e);
        for assignment in 0u32..(1 << NUM_VARS) {
            let expected = eval_direct(&e, assignment);
            let got = m.evaluate(b, |v| assignment & (1 << v) != 0);
            prop_assert_eq!(expected, got, "assignment {:b}", assignment);
        }
    }

    /// Semantically equivalent constructions produce identical handles
    /// (canonicity), exercised via distributivity: a·(b + c) == a·b + a·c.
    #[test]
    fn distributivity_canonicity(
        e1 in arb_expr(NUM_VARS),
        e2 in arb_expr(NUM_VARS),
        e3 in arb_expr(NUM_VARS),
    ) {
        let mut m = BddStore::new();
        let (a, b, c) = (build_bdd(&mut m, &e1), build_bdd(&mut m, &e2), build_bdd(&mut m, &e3));
        let lhs = { let bc = m.or(b, c); m.and(a, bc) };
        let rhs = { let ab = m.and(a, b); let ac = m.and(a, c); m.or(ab, ac) };
        prop_assert_eq!(lhs, rhs);
    }

    /// Absorption law holds for arbitrary operands: a + a·b == a and
    /// a · (a + b) == a.
    #[test]
    fn absorption_law(e1 in arb_expr(NUM_VARS), e2 in arb_expr(NUM_VARS)) {
        let mut m = BddStore::new();
        let a = build_bdd(&mut m, &e1);
        let b = build_bdd(&mut m, &e2);
        let ab = m.and(a, b);
        prop_assert_eq!(m.or(a, ab), a);
        let a_or_b = m.or(a, b);
        prop_assert_eq!(m.and(a, a_or_b), a);
    }

    /// sat_count agrees with a brute-force truth-table count.
    #[test]
    fn sat_count_matches_bruteforce(e in arb_expr(NUM_VARS)) {
        let mut m = BddStore::new();
        let b = build_bdd(&mut m, &e);
        let brute = (0u32..(1 << NUM_VARS))
            .filter(|&a| eval_direct(&e, a))
            .count() as u64;
        prop_assert_eq!(m.sat_count(b, NUM_VARS), brute);
    }

    /// The support of a BDD never contains variables the expression does not
    /// mention, and evaluation only depends on support variables.
    #[test]
    fn support_is_sound(e in arb_expr(NUM_VARS)) {
        let mut m = BddStore::new();
        let b = build_bdd(&mut m, &e);
        let support = m.support(b);
        for &v in &support {
            prop_assert!(v < NUM_VARS);
        }
        // Flipping a non-support variable never changes the value.
        for assignment in 0u32..(1 << NUM_VARS) {
            for v in 0..NUM_VARS {
                if support.contains(&v) { continue; }
                let flipped = assignment ^ (1 << v);
                let a1 = m.evaluate(b, |x| assignment & (1 << x) != 0);
                let a2 = m.evaluate(b, |x| flipped & (1 << x) != 0);
                prop_assert_eq!(a1, a2);
            }
        }
    }

    /// The canonical encoding carries a function from one store to another
    /// whole: decoded into a fresh store it keeps its size, count and truth
    /// table; its length is the compressed size; and decoded into the store
    /// that made it, it is the handle it was encoded from.
    #[test]
    fn encoding_round_trips(e in arb_expr(CODEC_VARS), noise in arb_expr(CODEC_VARS)) {
        let mut m = BddStore::new();
        // Unrelated nodes first, so that each store numbers the function's
        // nodes its own way.
        let unrelated = build_bdd(&mut m, &noise);
        let b = build_bdd(&mut m, &e);
        let (mut unrelated_bytes, mut bytes) = (Vec::new(), Vec::new());
        m.encode(unrelated, &mut unrelated_bytes);
        m.encode(b, &mut bytes);
        prop_assert_eq!(m.compressed_serialized_size(b), bytes.len());
        let mut fresh = BddStore::new();
        fresh.decode(&unrelated_bytes);
        let copy = fresh.decode(&bytes);
        prop_assert_eq!(fresh.serialized_size(copy), m.serialized_size(b));
        prop_assert_eq!(fresh.sat_count(copy, CODEC_VARS), m.sat_count(b, CODEC_VARS));
        for assignment in 0u32..(1 << CODEC_VARS) {
            let holds = |s: &BddStore, f| s.evaluate(f, |v| assignment & (1 << v) != 0);
            prop_assert_eq!(holds(&fresh, copy), holds(&m, b), "assignment {:b}", assignment);
        }
        let nodes = m.node_count();
        prop_assert_eq!(m.decode(&bytes), b);
        prop_assert_eq!(m.node_count(), nodes);
    }
}
