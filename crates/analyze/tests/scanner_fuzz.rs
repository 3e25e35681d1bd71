//! Totality of the scanner: arbitrary byte soup must lex to *some* token
//! stream without panicking — a linter must never crash on the code it
//! judges. Exercises both raw bytes (lossily decoded) and structured
//! almost-Rust fragments that stress the tricky lexer states (quotes,
//! raw strings, nested comments, attributes).

use proptest::prelude::*;
use sam_analyze::rules;
use sam_analyze::scan::scan;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scanner_never_panics_on_byte_soup(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        let file = scan("fuzz.rs", &src);
        prop_assert!(file.in_test.len() == file.tokens.len());
    }

    #[test]
    fn rules_never_panic_after_any_scan(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        // Scan under a path outside crates/check and crates/trace so the
        // observer-purity rule runs over the soup.
        let file = scan("crates/memctrl/src/fuzz.rs", &src);
        let mut out = Vec::new();
        rules::source_findings(&file, &mut out);
        for f in out {
            prop_assert!(!f.rule.is_empty());
        }
    }

    #[test]
    fn scanner_never_panics_on_quote_heavy_fragments(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("\""), Just("'"), Just("r#\""), Just("\"#"), Just("//"),
                Just("/*"), Just("*/"), Just("#["), Just("]"), Just("\\"),
                Just("#[cfg(test)]"),
                Just("\n"), Just("ident"), Just("{"), Just("}"), Just(";"),
            ],
            0..64,
        )
    ) {
        let src: String = parts.concat();
        let _ = scan("fuzz.rs", &src);
    }
}
