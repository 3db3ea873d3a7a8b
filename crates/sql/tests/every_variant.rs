//! Every `Expr` variant, with a marker of its own in every child slot:
//! pins the order `Expr::walk` meets children in, that
//! `for_each_query` finds every subquery body, and that literal
//! extraction numbers its slots in the order `render_query` prints the
//! literals.

use cbqt_common::value::Value;
use cbqt_sql::binds::for_each_query;
use cbqt_sql::{
    parameterize, parse_expression, parse_query, render_query, Expr, SelectItem, SetExpr,
};

/// A node's label: a column's name, a literal's value, else the
/// variant's name.
fn label(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Literal(v, _) => v.to_string(),
        other => format!("{other:?}")
            .chars()
            .take_while(|c| c.is_alphanumeric())
            .collect(),
    }
}

fn walked(sql: &str) -> Vec<String> {
    let e = parse_expression(sql).unwrap();
    let mut out = Vec::new();
    e.walk(&mut |n| out.push(label(n)));
    out
}

#[test]
fn walk_meets_every_child_in_preorder() {
    let cases: &[(&str, &[&str])] = &[
        ("a0", &["a0"]),
        ("7", &["7"]),
        ("?", &["Param"]),
        ("ROWNUM", &["Rownum"]),
        ("a0 + a1", &["Binary", "a0", "a1"]),
        ("-a0", &["Unary", "a0"]),
        ("NOT a0", &["Unary", "a0"]),
        ("a0 IS NOT NULL", &["IsNull", "a0"]),
        ("a0 IN (a1, a2)", &["InList", "a0", "a1", "a2"]),
        (
            "(a0, a1) IN (SELECT b0, b1 FROM t WHERE b2 = 1)",
            &["InSubquery", "a0", "a1"],
        ),
        ("EXISTS (SELECT b0 FROM t)", &["Exists"]),
        ("a0 > ANY (SELECT b0 FROM t)", &["Quantified", "a0"]),
        ("(SELECT b0 FROM t)", &["ScalarSubquery"]),
        ("a0 BETWEEN a1 AND a2", &["Between", "a0", "a1", "a2"]),
        ("a0 LIKE a1", &["Like", "a0", "a1"]),
        (
            "CASE a0 WHEN a1 THEN a2 WHEN a3 THEN a4 ELSE a5 END",
            &["Case", "a0", "a1", "a2", "a3", "a4", "a5"],
        ),
        ("MOD(a0, a1)", &["Func", "a0", "a1"]),
        (
            "SUM(a0) OVER (PARTITION BY a1, a2 ORDER BY a3, a4 DESC)",
            &["Func", "a0", "a1", "a2", "a3", "a4"],
        ),
        (
            "CASE WHEN a0 IN (a1 + a2) THEN -a3 END",
            &["Case", "InList", "a0", "Binary", "a1", "a2", "Unary", "a3"],
        ),
    ];
    for (sql, want) in cases {
        assert_eq!(walked(sql), *want, "{sql}");
    }
}

#[test]
fn for_each_query_finds_every_subquery_body() {
    let q = parse_query(
        "SELECT q0, (SELECT q1 FROM t), SUM(a) OVER (PARTITION BY (SELECT q2 FROM t)) \
         FROM (SELECT q3 FROM t) v JOIN (SELECT q4 FROM t) w ON EXISTS (SELECT q5 FROM t) \
         WHERE (SELECT q6 FROM t) IN (SELECT q7 FROM (SELECT q8 FROM t) x) \
           AND a > ANY (SELECT q9 FROM t) \
           AND CASE WHEN NOT EXISTS (SELECT q10 FROM t) THEN a END = 1 \
           AND a LIKE (SELECT q11 FROM t) \
         GROUP BY (SELECT q12 FROM t) \
         HAVING COUNT(*) > (SELECT q13 FROM t) \
         UNION ALL SELECT q14 FROM t WHERE a BETWEEN (SELECT q15 FROM t) AND 2 \
         ORDER BY (SELECT q16 FROM t)",
    )
    .unwrap();
    let mut seen = Vec::new();
    for_each_query(&q, &mut |q| {
        let mut body = &q.body;
        while let SetExpr::SetOp { left, .. } = body {
            body = left;
        }
        let SetExpr::Select(s) = body else {
            unreachable!()
        };
        match &s.items[0] {
            SelectItem::Expr { expr, .. } => seen.push(label(expr)),
            other => panic!("{other:?}"),
        }
    });
    // preorder; a block's children come select list, FROM, WHERE,
    // HAVING, GROUP BY, then its query's ORDER BY; an expression's own
    // body after those of its operands; the UNION ALL arm (`q14`) is
    // part of the root query, its WHERE's body (`q15`) is not
    assert_eq!(
        seen,
        [
            "q0", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "q9", "q10", "q11", "q13", "q12",
            "q15", "q16"
        ]
    );
}

#[test]
fn parameterize_numbers_slots_in_render_order() {
    // extracted literals hold 1, 2, 3, … in text order (-26 one of
    // them); the ones that stay literal hold 100 and up
    let sql = "SELECT 100, (SELECT 101 FROM t WHERE t.a = 102) \
               FROM (SELECT b FROM t WHERE b > 1) v JOIN u ON u.c = 2 \
               WHERE -(a + 3) < 4 AND NOT (a = 5) AND (a + 6) IS NULL \
                 AND a + 7 IN (8, 9) \
                 AND (a, 10) IN (SELECT b, 103 FROM t WHERE c = 11) \
                 AND EXISTS (SELECT 104 FROM t WHERE d = 12) \
                 AND a + 13 > ANY (SELECT b FROM t WHERE c = 14) \
                 AND a = (SELECT b FROM t WHERE c = 15) \
                 AND a BETWEEN 16 AND 17 AND a + 18 LIKE '105%' \
                 AND CASE a + 19 WHEN 20 THEN 21 ELSE 22 END = 23 \
                 AND MOD(a, 24) = SUM(25) OVER (PARTITION BY 106 ORDER BY 107) \
                 AND a LIKE (SELECT b FROM t WHERE c = 112) \
                 AND ROWNUM <= 108 AND c = TRUE AND e IS NULL AND f = -26 \
               GROUP BY 109 HAVING COUNT(*) > 27 \
               UNION ALL SELECT 110 FROM t WHERE c = 28 ORDER BY 111";
    let p = parameterize(&parse_query(sql).unwrap());
    let want: Vec<Value> = (1..=28)
        .map(|i| Value::Int(if i == 26 { -26 } else { i }))
        .collect();
    assert_eq!(p.binds, want);
    // each slot names its own literal token, in text order
    let tokens: Vec<usize> = p.sources.iter().map(|s| s.unwrap().literal).collect();
    assert!(tokens.windows(2).all(|w| w[0] < w[1]), "{tokens:?}");
    let negated: Vec<usize> = (0..p.sources.len())
        .filter(|&i| p.sources[i].unwrap().negated)
        .collect();
    assert_eq!(negated, [25]);
    // the rendered key's `?` tokens re-parse to the same slots
    let key = render_query(&p.query);
    assert_eq!(parse_query(&key).unwrap(), p.query);
    for kept in 100..=112 {
        assert!(key.contains(&kept.to_string()), "{kept} in {key}");
    }
}
