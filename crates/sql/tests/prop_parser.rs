//! Parser robustness: arbitrary input must never panic — it either
//! parses or returns a clean error — and valid query skeletons always
//! parse.

use cbqt_sql::{parse_expression, parse_query, parse_statements};
use cbqt_testkit::prop::{
    adversarial_string, any_bool, just, string_of, vec_of, Strategy, ALPHA_LOWER,
};
use cbqt_testkit::{one_of, props};

props! {
    #[cases(256)]
    fn arbitrary_bytes_never_panic(s in adversarial_string(0..=120)) {
        let _ = parse_statements(&s);
        let _ = parse_query(&s);
        let _ = parse_expression(&s);
    }

    #[cases(256)]
    fn sqlish_token_soup_never_panics(
        toks in vec_of(
            one_of![
                just("SELECT"), just("FROM"), just("WHERE"), just("GROUP"), just("BY"),
                just("AND"), just("OR"), just("NOT"), just("IN"), just("EXISTS"),
                just("("), just(")"), just(","), just("="), just("<"), just(">"),
                just("*"), just("+"), just("-"), just("t"), just("a"), just("b"),
                just("1"), just("2.5"), just("'s'"), just("NULL"), just("UNION"),
                just("ALL"), just("ORDER"), just("HAVING"), just("AS"), just("JOIN"),
                just("ON"), just("LEFT"), just("BETWEEN"), just("LIKE"), just("CASE"),
                just("WHEN"), just("THEN"), just("END"), just("DISTINCT"),
            ],
            0..=24,
        )
    ) {
        let s = toks.join(" ");
        let _ = parse_statements(&s);
    }

    fn generated_selects_parse(
        cols in vec_of(string_of(ALPHA_LOWER, 1..=6).prop_map(|s| format!("c_{s}")), 1..=3),
        tbl in string_of(ALPHA_LOWER, 1..=8).prop_map(|s| format!("t_{s}")),
        lit in -1000i64..1000,
        distinct in any_bool(),
        order in any_bool(),
    ) {
        let sql = format!(
            "SELECT {}{} FROM {tbl} WHERE {} > {lit}{}",
            if distinct { "DISTINCT " } else { "" },
            cols.join(", "),
            cols[0],
            if order { format!(" ORDER BY {} DESC", cols[0]) } else { String::new() },
        );
        parse_query(&sql).unwrap();
    }

    fn numeric_literals_roundtrip(v in -1_000_000_000i64..1_000_000_000) {
        let e = parse_expression(&v.to_string()).unwrap();
        match e {
            cbqt_sql::ast::Expr::Literal(cbqt_common::Value::Int(i), _) => assert_eq!(i, v),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn string_literals_with_quotes_roundtrip(s in string_of("abcdefghijklmnopqrstuvwxyz' ", 0..=20)) {
        let quoted = format!("'{}'", s.replace('\'', "''"));
        let e = parse_expression(&quoted).unwrap();
        match e {
            cbqt_sql::ast::Expr::Literal(v, _) => {
                assert_eq!(v.as_str().unwrap(), s.as_str());
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
