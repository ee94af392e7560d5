//! Property tests for the workspace's one JSON module: what the writer
//! writes the parser reads back, and the parser is total — input from a
//! file or a socket gives `Ok` or `Err`, never a panic.

use proptest::prelude::*;
use webdis_trace::json::{parse, write, Map, Value};

/// Strings leaning on what an escaper gets wrong: quotes, backslashes,
/// named and unnamed control characters, non-ASCII in and out of the
/// BMP — plus anything else `char` holds.
fn string() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\r'),
        Just('\t'),
        Just('\u{1}'),
        Just('\u{1f}'),
        Just('/'),
        Just('é'),
        Just('\u{10000}'),
        any::<char>(),
    ];
    prop::collection::vec(ch, 0..12).prop_map(|chars| chars.into_iter().collect())
}

fn value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::Num),
        string().prop_map(Value::Str),
    ];
    leaf.prop_recursive(4, 64, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Arr),
            prop::collection::vec((string(), inner), 0..4)
                .prop_map(|members| Value::Obj(members.into_iter().collect::<Map>())),
        ]
    })
}

/// Bytes that look enough like JSON to get past the first character.
fn jsonish_bytes() -> impl Strategy<Value = Vec<u8>> {
    const ALPHABET: &[u8] = b"{}[]\",:\\u0019afte ";
    let byte = prop_oneof![any::<u8>(), (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),];
    prop::collection::vec(byte, 0..64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_reads_back_what_write_wrote(v in value()) {
        let text = write(&v);
        prop_assert_eq!(parse(&text), Ok(v), "{}", text);
    }

    #[test]
    fn parser_is_total_on_arbitrary_bytes(bytes in jsonish_bytes()) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    /// Every proper prefix of a document is refused (a number's prefix
    /// is a shorter number, so the document is wrapped in an array), and
    /// a byte overwritten anywhere gives `Ok` or `Err`.
    #[test]
    fn truncated_and_damaged_documents_never_panic(v in value(), damage in jsonish_bytes()) {
        let text = write(&Value::Arr(vec![v]));
        for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
            prop_assert!(parse(&text[..end]).is_err(), "{}", &text[..end]);
        }
        let mut bytes = text.into_bytes();
        for (i, b) in damage.into_iter().enumerate() {
            let at = (i * 7 + usize::from(b)) % bytes.len();
            bytes[at] = b;
            let _ = parse(&String::from_utf8_lossy(&bytes));
        }
    }
}
