//! Totality of the SQL front end: `sql::parse` must answer every input
//! with a `Query` or an `SqlError`, never a panic — arbitrary strings,
//! digit runs long enough to overflow, and Table 3 statements whose
//! tokens are dropped, duplicated and shuffled.

use proptest::prelude::*;
use sam_imdb::query::Query;
use sam_imdb::sql::{parse, SqlError};

/// Characters the lexer treats specially, plus a few it rejects.
const ALPHABET: &[char] = &[
    ' ', '\t', '\n', '*', ',', '(', ')', '+', '=', '<', '>', '.', '0', '1', '9', 'f', 'F', 'x',
    'a', 'T', 'b', '_', ';', '\'', '"', '-', 'é', '\u{0}',
];

fn table3_tokens() -> Vec<Vec<String>> {
    let mut statements: Vec<Query> = Query::q_set().to_vec();
    statements.extend(Query::qs_set());
    statements.push(Query::Arithmetic {
        projectivity: 8,
        selectivity: 0.25,
    });
    statements.push(Query::Aggregate {
        projectivity: 8,
        selectivity: 0.25,
    });
    statements
        .iter()
        .map(|q| q.sql().split_whitespace().map(str::to_string).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_never_panics_on_byte_soup(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_lexer_heavy_strings(
        picks in proptest::collection::vec(0usize..ALPHABET.len(), 0..96),
    ) {
        let text: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        let _ = parse(&text);
    }

    #[test]
    fn parse_never_panics_on_shuffled_table3_statements(
        which in 0usize..20,
        // (op, position, partner) edits: 0 swap, 1 drop, 2 duplicate,
        // 3 replace with a huge number, 4 replace with a lone dot.
        edits in proptest::collection::vec((0u8..5, 0usize..32, 0usize..32), 0..8),
    ) {
        let statements = table3_tokens();
        let mut toks = statements[which % statements.len()].clone();
        for (op, a, b) in edits {
            if toks.is_empty() {
                break;
            }
            let (a, b) = (a % toks.len(), b % toks.len());
            match op {
                0 => toks.swap(a, b),
                1 => {
                    toks.remove(a);
                }
                2 => {
                    let t = toks[a].clone();
                    toks.insert(b, t);
                }
                3 => toks[a] = "184467440737095516160000".into(),
                _ => toks[a] = ".".into(),
            }
        }
        let _ = parse(&toks.join(" "));
    }
}

#[test]
fn numbers_past_u64_are_lex_errors() {
    // Regression: the number lexer used to overflow (a panic in debug
    // builds) on a LIMIT wider than u64.
    let err = parse("SELECT * FROM Ta LIMIT 18446744073709551616").unwrap_err();
    assert!(matches!(err, SqlError::Lex(_)), "{err:?}");
    assert_eq!(
        parse("SELECT * FROM Ta LIMIT 18446744073709551615"),
        Ok(Query::Qs1)
    );
}
