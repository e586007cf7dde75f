//! Robustness: the DBC parser must never panic on arbitrary text.

use ivnt_protocol::dbc::parse_dbc;
use proptest::prelude::*;

proptest! {
    /// Arbitrary text never panics the DBC parser.
    #[test]
    fn dbc_parser_never_panics(text in "\\PC{0,400}") {
        let _ = parse_dbc(&text, "B");
    }

    /// DBC-looking garbage (keywords + junk) never panics either.
    #[test]
    fn dbc_keyword_fuzz(
        parts in prop::collection::vec(
            prop::sample::select(vec![
                "BO_ ", "SG_ ", "VAL_ ", "BA_ ", "CM_ ", ":", "|", "@", "(", ")",
                "[", "]", "\"", " 1 ", " x ", "\n", "m0 ", "M ", "0|8@1+ ",
            ]),
            0..60,
        )
    ) {
        let text: String = parts.concat();
        let _ = parse_dbc(&text, "B");
    }
}
