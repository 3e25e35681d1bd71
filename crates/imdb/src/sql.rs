//! A SQL front-end for the Table 3 query dialect.
//!
//! The paper specifies its benchmark as SQL statements; this module parses
//! that dialect — `SELECT` with field lists, `*`, `SUM`/`AVG` aggregates,
//! arithmetic projections, `WHERE` conjunctions of field comparisons,
//! `LIMIT`, plus `UPDATE ... SET` and `INSERT INTO` — and lowers the parse
//! to the planner's [`Query`] values, so a workload can be driven from the
//! literal strings of Table 3:
//!
//! ```
//! use sam_imdb::sql::parse;
//! use sam_imdb::query::Query;
//!
//! assert_eq!(parse("SELECT SUM(f9) FROM Ta WHERE f10 > x").unwrap(), Query::Q3);
//! ```

use crate::query::Query;

/// A parse or lowering failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// The tokenizer met an unexpected character.
    Lex(String),
    /// The parser met an unexpected token.
    Parse(String),
    /// The statement is valid SQL for this dialect but has no counterpart
    /// in the benchmark query set.
    Unsupported(String),
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqlError::Lex(m) => write!(f, "lex error: {m}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::Unsupported(m) => write!(f, "unsupported statement: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Select,
    From,
    Where,
    And,
    Limit,
    Update,
    Set,
    Insert,
    Into,
    Values,
    Sum,
    Avg,
    Star,
    Comma,
    LParen,
    RParen,
    Plus,
    Eq,
    Lt,
    Gt,
    Dot,
    Ellipsis,
    Field(u16),
    Table(String),
    Number(u64),
    Param(char),
}

fn lex(input: &str) -> Result<Vec<Tok>, SqlError> {
    let mut toks = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                chars.next();
            }
            '*' => {
                chars.next();
                toks.push(Tok::Star);
            }
            ',' => {
                chars.next();
                toks.push(Tok::Comma);
            }
            '(' => {
                chars.next();
                toks.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                toks.push(Tok::RParen);
            }
            '+' => {
                chars.next();
                toks.push(Tok::Plus);
            }
            '=' => {
                chars.next();
                toks.push(Tok::Eq);
            }
            '<' => {
                chars.next();
                toks.push(Tok::Lt);
            }
            '>' => {
                chars.next();
                toks.push(Tok::Gt);
            }
            '.' => {
                chars.next();
                if chars.peek() == Some(&'.') {
                    chars.next();
                    if chars.next() != Some('.') {
                        return Err(SqlError::Lex("expected '...'".into()));
                    }
                    toks.push(Tok::Ellipsis);
                } else {
                    toks.push(Tok::Dot);
                }
            }
            '0'..='9' => {
                let mut n = 0u64;
                while let Some(&d) = chars.peek() {
                    if let Some(v) = d.to_digit(10) {
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(v as u64))
                            .ok_or_else(|| SqlError::Lex("number does not fit in u64".into()))?;
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Number(n));
            }
            c if c.is_ascii_alphabetic() => {
                let mut word = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        word.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let lower = word.to_ascii_lowercase();
                toks.push(match lower.as_str() {
                    "select" => Tok::Select,
                    "from" => Tok::From,
                    "where" => Tok::Where,
                    "and" => Tok::And,
                    "limit" => Tok::Limit,
                    "update" => Tok::Update,
                    "set" => Tok::Set,
                    "insert" => Tok::Insert,
                    "into" => Tok::Into,
                    "values" => Tok::Values,
                    "sum" => Tok::Sum,
                    "avg" => Tok::Avg,
                    _ => {
                        if let Some(rest) = lower.strip_prefix('f') {
                            if let Ok(n) = rest.parse::<u16>() {
                                toks.push(Tok::Field(n));
                                continue;
                            }
                            if rest.len() == 1 {
                                // Symbolic fields fi/fj/fk/fp of Table 3.
                                toks.push(Tok::Param(rest.chars().next().expect("len 1")));
                                continue;
                            }
                        }
                        if lower.len() == 1 {
                            Tok::Param(lower.chars().next().expect("len 1"))
                        } else {
                            Tok::Table(word)
                        }
                    }
                });
            }
            other => return Err(SqlError::Lex(format!("unexpected character {other:?}"))),
        }
    }
    Ok(toks)
}

/// A parsed (but not yet lowered) statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// `SELECT` projections (empty for `*`), aggregate flags, etc.
    pub shape: Shape,
    /// Target table ("Ta" or "Tb").
    pub table: String,
    /// Fields compared in the WHERE clause (concrete ones).
    pub predicates: Vec<u16>,
    /// LIMIT value, if present.
    pub limit: Option<u64>,
}

/// Statement shape after parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Shape {
    /// `SELECT f, f, ...`
    Project(Vec<u16>),
    /// `SELECT *`
    Star,
    /// `SELECT SUM(f)`
    Sum(u16),
    /// `SELECT AVG(f), ...` (possibly symbolic `AVG(fi), ..., AVG(fj)`).
    Avg(Vec<u16>),
    /// `SELECT fi + fj + ... + fk` (symbolic arithmetic projection).
    Arithmetic,
    /// `UPDATE t SET f = x, ...`
    Update(Vec<u16>),
    /// `INSERT INTO t VALUES (...)`
    Insert,
    /// Join of two tables (Q7/Q8 form).
    Join {
        /// Whether the inequality predicate is present (Q7) or not (Q8).
        with_inequality: bool,
    },
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Tok) -> Result<(), SqlError> {
        match self.next() {
            Some(ref t) if t == want => Ok(()),
            other => Err(SqlError::Parse(format!(
                "expected {want:?}, found {other:?}"
            ))),
        }
    }

    fn table_name(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Some(Tok::Table(t)) => Ok(t),
            other => Err(SqlError::Parse(format!(
                "expected table name, found {other:?}"
            ))),
        }
    }

    fn parse(&mut self) -> Result<Parsed, SqlError> {
        match self.next() {
            Some(Tok::Select) => self.parse_select(),
            Some(Tok::Update) => self.parse_update(),
            Some(Tok::Insert) => self.parse_insert(),
            other => Err(SqlError::Parse(format!(
                "expected a statement, found {other:?}"
            ))),
        }
    }

    fn parse_select(&mut self) -> Result<Parsed, SqlError> {
        let shape = self.parse_projection()?;
        self.expect(&Tok::From)?;
        let table = self.table_name()?;
        // Join form: `FROM Ta, Tb WHERE ...` with qualified predicates.
        if self.peek() == Some(&Tok::Comma) {
            self.next();
            let _second = self.table_name()?;
            let mut with_inequality = false;
            if self.peek() == Some(&Tok::Where) {
                self.next();
                // Walk tokens; detect a `>` among the join predicates.
                while let Some(t) = self.next() {
                    if t == Tok::Gt || t == Tok::Lt {
                        with_inequality = true;
                    }
                }
            }
            return Ok(Parsed {
                shape: Shape::Join { with_inequality },
                table,
                predicates: Vec::new(),
                limit: None,
            });
        }
        let mut predicates = Vec::new();
        let mut limit = None;
        loop {
            match self.next() {
                None => break,
                Some(Tok::Where) | Some(Tok::And) => {
                    match self.next() {
                        Some(Tok::Field(fld)) => {
                            // comparison operator + value/param
                            match self.next() {
                                Some(Tok::Gt) | Some(Tok::Lt) | Some(Tok::Eq) => {}
                                other => {
                                    return Err(SqlError::Parse(format!(
                                        "expected comparison, found {other:?}"
                                    )))
                                }
                            }
                            match self.next() {
                                Some(Tok::Param(_)) | Some(Tok::Number(_)) => {}
                                other => {
                                    return Err(SqlError::Parse(format!(
                                        "expected value, found {other:?}"
                                    )))
                                }
                            }
                            predicates.push(fld);
                        }
                        other => {
                            return Err(SqlError::Parse(format!(
                                "expected predicate field, found {other:?}"
                            )))
                        }
                    }
                }
                Some(Tok::Limit) => match self.next() {
                    Some(Tok::Number(n)) => limit = Some(n),
                    other => {
                        return Err(SqlError::Parse(format!("expected limit, found {other:?}")))
                    }
                },
                Some(other) => {
                    return Err(SqlError::Parse(format!("unexpected token {other:?}")));
                }
            }
        }
        Ok(Parsed {
            shape,
            table,
            predicates,
            limit,
        })
    }

    fn parse_projection(&mut self) -> Result<Shape, SqlError> {
        match self.peek() {
            Some(Tok::Star) => {
                self.next();
                Ok(Shape::Star)
            }
            Some(Tok::Sum) => {
                self.next();
                self.expect(&Tok::LParen)?;
                let f = match self.next() {
                    Some(Tok::Field(f)) => f,
                    other => {
                        return Err(SqlError::Parse(format!("expected field, found {other:?}")))
                    }
                };
                self.expect(&Tok::RParen)?;
                Ok(Shape::Sum(f))
            }
            Some(Tok::Avg) => {
                let mut fields = Vec::new();
                let mut symbolic = false;
                loop {
                    match self.peek() {
                        Some(Tok::Avg) => {
                            self.next();
                            self.expect(&Tok::LParen)?;
                            match self.next() {
                                Some(Tok::Field(f)) => fields.push(f),
                                Some(Tok::Param(_)) => symbolic = true,
                                other => {
                                    return Err(SqlError::Parse(format!(
                                        "expected field, found {other:?}"
                                    )))
                                }
                            }
                            self.expect(&Tok::RParen)?;
                        }
                        Some(Tok::Comma) => {
                            self.next();
                            if self.peek() == Some(&Tok::Ellipsis) {
                                self.next();
                                symbolic = true;
                                // consume following comma if present
                                if self.peek() == Some(&Tok::Comma) {
                                    self.next();
                                }
                            }
                        }
                        _ => break,
                    }
                }
                let _ = symbolic;
                Ok(Shape::Avg(fields))
            }
            Some(Tok::Field(_)) | Some(Tok::Param(_)) | Some(Tok::Table(_)) => {
                // Either a field list `f3, f4`, a qualified list `Ta.f3,
                // Tb.f4` (join), or a symbolic arithmetic chain
                // `fi + fj + ... + fk`.
                let mut fields = Vec::new();
                let mut arithmetic = false;
                loop {
                    match self.peek() {
                        Some(Tok::Field(f)) => {
                            fields.push(*f);
                            self.next();
                        }
                        Some(Tok::Param(_)) => {
                            self.next();
                            arithmetic = true;
                        }
                        Some(Tok::Table(_)) => {
                            // Qualified `Ta.f3`: swallow `Ta` and `.`.
                            self.next();
                            self.expect(&Tok::Dot)?;
                        }
                        Some(Tok::Plus) => {
                            self.next();
                            arithmetic = true;
                        }
                        Some(Tok::Ellipsis) => {
                            self.next();
                            arithmetic = true;
                        }
                        Some(Tok::Comma) => {
                            self.next();
                        }
                        _ => break,
                    }
                }
                if arithmetic {
                    Ok(Shape::Arithmetic)
                } else {
                    Ok(Shape::Project(fields))
                }
            }
            other => Err(SqlError::Parse(format!(
                "unexpected projection start: {other:?}"
            ))),
        }
    }

    fn parse_update(&mut self) -> Result<Parsed, SqlError> {
        let table = self.table_name()?;
        self.expect(&Tok::Set)?;
        let mut fields = Vec::new();
        let mut predicates = Vec::new();
        loop {
            match self.next() {
                Some(Tok::Field(f)) => {
                    self.expect(&Tok::Eq)?;
                    match self.next() {
                        Some(Tok::Param(_)) | Some(Tok::Number(_)) => {}
                        other => {
                            return Err(SqlError::Parse(format!("expected value, found {other:?}")))
                        }
                    }
                    fields.push(f);
                }
                Some(Tok::Comma) => {}
                Some(Tok::Where) => {
                    if let Some(Tok::Field(f)) = self.next() {
                        predicates.push(f);
                    }
                    // comparison + value
                    self.next();
                    self.next();
                }
                None => break,
                Some(other) => return Err(SqlError::Parse(format!("unexpected token {other:?}"))),
            }
        }
        Ok(Parsed {
            shape: Shape::Update(fields),
            table,
            predicates,
            limit: None,
        })
    }

    fn parse_insert(&mut self) -> Result<Parsed, SqlError> {
        self.expect(&Tok::Into)?;
        let table = self.table_name()?;
        self.expect(&Tok::Values)?;
        // Swallow the value tuple.
        while self.next().is_some() {}
        Ok(Parsed {
            shape: Shape::Insert,
            table,
            predicates: Vec::new(),
            limit: None,
        })
    }
}

/// Parses one statement of the Table 3 dialect.
///
/// # Errors
///
/// [`SqlError::Lex`]/[`SqlError::Parse`] on malformed input.
pub fn parse_statement(input: &str) -> Result<Parsed, SqlError> {
    let toks = lex(input)?;
    Parser { toks, pos: 0 }.parse()
}

/// Parses a statement and lowers it to the benchmark [`Query`] it denotes.
///
/// # Errors
///
/// [`SqlError::Unsupported`] when the statement parses but matches no
/// benchmark query (the planner only implements Table 3's set).
pub fn parse(input: &str) -> Result<Query, SqlError> {
    let p = parse_statement(input)?;
    let is_ta = p.table.eq_ignore_ascii_case("ta");
    let q = match (&p.shape, is_ta) {
        (Shape::Project(f), true) if f == &vec![3, 4] && p.predicates == vec![10] => Query::Q1,
        (Shape::Star, false) if p.predicates == vec![10] && p.limit.is_none() => Query::Q2,
        (Shape::Sum(9), true) if p.predicates == vec![10] => Query::Q3,
        (Shape::Sum(9), false) if p.predicates == vec![10] => Query::Q4,
        (Shape::Avg(f), true) if f == &vec![1] && p.predicates == vec![10] => Query::Q5,
        (Shape::Avg(f), false) if f == &vec![1] && p.predicates == vec![10] => Query::Q6,
        (
            Shape::Join {
                with_inequality: true,
            },
            true,
        ) => Query::Q7,
        (
            Shape::Join {
                with_inequality: false,
            },
            true,
        ) => Query::Q8,
        (Shape::Project(f), true) if f == &vec![3, 4] && p.predicates == vec![1, 9] => Query::Q9,
        (Shape::Project(f), true) if f == &vec![3, 4] && p.predicates == vec![1, 2] => Query::Q10,
        (Shape::Update(f), false) if f == &vec![3, 4] => Query::Q11,
        (Shape::Update(f), false) if f == &vec![9] => Query::Q12,
        (Shape::Star, true) if p.limit.is_some() => Query::Qs1,
        (Shape::Star, false) if p.limit.is_some() => Query::Qs2,
        (Shape::Star, true) if p.predicates == vec![10] => Query::Qs3,
        (Shape::Insert, true) => Query::Qs5,
        (Shape::Insert, false) => Query::Qs6,
        (Shape::Arithmetic, true) => Query::Arithmetic {
            projectivity: 8,
            selectivity: 0.25,
        },
        (Shape::Avg(_), true) => Query::Aggregate {
            projectivity: 8,
            selectivity: 0.25,
        },
        _ => return Err(SqlError::Unsupported(input.to_string())),
    };
    Ok(q)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table3_statement_parses_to_its_query() {
        // Qs4's SQL is identical in shape to Qs3 with Tb; handled below.
        for q in Query::q_set() {
            let sql = q.sql();
            assert_eq!(parse(&sql).unwrap(), q, "{sql}");
        }
        assert_eq!(parse(&Query::Qs1.sql()).unwrap(), Query::Qs1);
        assert_eq!(parse(&Query::Qs2.sql()).unwrap(), Query::Qs2);
        assert_eq!(parse(&Query::Qs3.sql()).unwrap(), Query::Qs3);
        assert_eq!(parse(&Query::Qs5.sql()).unwrap(), Query::Qs5);
        assert_eq!(parse(&Query::Qs6.sql()).unwrap(), Query::Qs6);
    }

    #[test]
    fn qs4_lowers_to_tb_star_scan() {
        // `SELECT * FROM Tb WHERE f10 > x` without LIMIT is Q2's shape in
        // Table 3; the Qs4 variant shares the text, so the lowering maps it
        // to Q2 (the earlier, column-preferring entry). Document the
        // ambiguity: both scan Tb tuples behind an f10 predicate.
        let q = parse("SELECT * FROM Tb WHERE f10 > x").unwrap();
        assert!(matches!(q, Query::Q2));
    }

    #[test]
    fn case_insensitive_keywords() {
        assert_eq!(
            parse("select sum(f9) from Ta where f10 > x").unwrap(),
            Query::Q3
        );
    }

    #[test]
    fn numbers_accepted_as_comparison_values() {
        assert_eq!(
            parse("SELECT SUM(f9) FROM Ta WHERE f10 > 42").unwrap(),
            Query::Q3
        );
    }

    #[test]
    fn arithmetic_chain_detected() {
        let p = parse_statement("SELECT fi + fj + ... + fk FROM Ta WHERE f0 < x").unwrap();
        assert_eq!(p.shape, Shape::Arithmetic);
        assert!(matches!(
            parse("SELECT fi + fj + ... + fk FROM Ta WHERE f0 < x").unwrap(),
            Query::Arithmetic { .. }
        ));
    }

    #[test]
    fn aggregate_ellipsis_detected() {
        assert!(matches!(
            parse("SELECT AVG(fi), ..., AVG(fj) FROM Ta WHERE f0 < x").unwrap(),
            Query::Aggregate { .. }
        ));
    }

    #[test]
    fn join_inequality_distinguishes_q7_from_q8() {
        assert_eq!(
            parse("SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f1 > Tb.f1 AND Ta.f9 = Tb.f9").unwrap(),
            Query::Q7
        );
        assert_eq!(
            parse("SELECT Ta.f3, Tb.f4 FROM Ta, Tb WHERE Ta.f9 = Tb.f9").unwrap(),
            Query::Q8
        );
    }

    #[test]
    fn lex_errors_are_reported() {
        assert!(matches!(parse("SELECT #"), Err(SqlError::Lex(_))));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(matches!(parse("FROM Ta"), Err(SqlError::Parse(_))));
        assert!(matches!(
            parse("SELECT SUM(f9 FROM Ta"),
            Err(SqlError::Parse(_))
        ));
    }

    #[test]
    fn unsupported_statements_are_flagged() {
        assert!(matches!(
            parse("SELECT f7 FROM Ta WHERE f10 > x"),
            Err(SqlError::Unsupported(_))
        ));
    }
}
