//! Wire-codec property tests: round-trips for arbitrary protocol
//! messages, and decoder totality on arbitrary bytes (a hostile or
//! corrupt peer can never panic a query server).

use proptest::prelude::*;
use std::sync::Arc;
use webdis_disql::Stage;
use webdis_model::{LinkType, Url};
use webdis_net::{
    decode_message, encode_message, ChtEntry, CloneState, Disposition, FetchRequest, FetchResponse,
    Message, NodeReport, QueryClone, QueryId, ResultReport, StageRows, Wire,
};
use webdis_pre::Pre;
use webdis_rel::{CmpOp, Expr, NodeQuery, RelKind, ResultRow, Value, VarDecl};

fn url_strategy() -> impl Strategy<Value = Url> {
    ("[a-z]{1,10}", 1u16..=9999, "[a-z0-9/]{0,20}")
        .prop_map(|(host, port, path)| Url::from_parts(&host, port, &path))
}

fn pre_strategy() -> impl Strategy<Value = Pre> {
    let leaf = prop_oneof![
        Just(Pre::Empty),
        Just(Pre::sym(LinkType::Interior)),
        Just(Pre::sym(LinkType::Local)),
        Just(Pre::sym(LinkType::Global)),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pre::seq(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pre::alt(a, b)),
            inner.clone().prop_map(Pre::star),
            (inner, 1u32..5).prop_map(|(p, k)| Pre::bounded(p, k)),
        ]
    })
}

fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        ("[a-z]{1,4}", "[a-z]{1,6}").prop_map(|(var, attr)| Expr::Attr { var, attr }),
        ".{0,12}".prop_map(Expr::StrLit),
        any::<i64>().prop_map(Expr::IntLit),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::Contains(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Cmp(
                CmpOp::Le,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(Box::new(a), Box::new(b))),
            inner.prop_map(|a| Expr::Not(Box::new(a))),
        ]
    })
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        ".{0,16}".prop_map(Value::Str),
        any::<i64>().prop_map(Value::Int)
    ]
}

fn state_strategy() -> impl Strategy<Value = CloneState> {
    (0u32..8, pre_strategy()).prop_map(|(num_q, rem_pre)| CloneState { num_q, rem_pre })
}

fn node_query_strategy() -> impl Strategy<Value = NodeQuery> {
    (
        prop::collection::vec(
            (
                "[a-z][a-z0-9]{0,3}",
                0u8..3,
                prop::option::of(expr_strategy()),
            ),
            1..4,
        ),
        prop::option::of(expr_strategy()),
        prop::collection::vec(("[a-z]{1,4}", "[a-z]{1,6}"), 0..4),
    )
        .prop_map(|(vars, where_cond, select)| NodeQuery {
            vars: vars
                .into_iter()
                .map(|(name, kind, cond)| VarDecl {
                    name,
                    kind: match kind {
                        0 => RelKind::Document,
                        1 => RelKind::Anchor,
                        _ => RelKind::Relinfon,
                    },
                    cond,
                })
                .collect(),
            where_cond,
            select,
        })
}

fn stage_strategy() -> impl Strategy<Value = Stage> {
    (pre_strategy(), "[a-z][a-z0-9]{0,3}", node_query_strategy())
        .prop_map(|(pre, doc_var, query)| Stage::new(pre, doc_var, query))
}

fn message_strategy() -> impl Strategy<Value = Message> {
    let id = ("[a-z]{1,8}", "[a-z.]{1,12}", 1u16..9999, any::<u64>()).prop_map(
        |(user, host, port, query_num)| QueryId {
            user: user.into(),
            host: host.into(),
            port,
            query_num,
        },
    );
    let clone = (
        id.clone(),
        prop::collection::vec(url_strategy(), 0..4),
        pre_strategy(),
        prop::collection::vec(stage_strategy(), 0..3),
        0u32..5,
        0u32..10,
    )
        .prop_map(|(id, dest_nodes, rem_pre, stages, stage_offset, hops)| {
            Message::Query(QueryClone {
                ack_host: id.host.clone(),
                ack_port: id.port,
                id,
                dest_nodes,
                rem_pre,
                stages: stages.into(),
                stage_offset,
                hops,
            })
        });
    let report = (
        id.clone(),
        "[a-z.]{1,12}",
        0u64..u64::MAX,
        prop::collection::vec(
            (
                url_strategy(),
                state_strategy(),
                0u8..5,
                prop::collection::vec(
                    (
                        0u32..4,
                        prop::collection::vec(
                            prop::collection::vec(value_strategy(), 0..3)
                                .prop_map(|values| ResultRow { values }),
                            0..3,
                        ),
                    )
                        .prop_map(|(stage, rows)| StageRows { stage, rows }),
                    0..3,
                ),
                prop::collection::vec(
                    (url_strategy(), state_strategy())
                        .prop_map(|(node, state)| ChtEntry { node, state }),
                    0..3,
                ),
            )
                .prop_map(|(node, state, disp, results, new_entries)| NodeReport {
                    node,
                    state,
                    disposition: match disp {
                        0 => Disposition::Answered,
                        1 => Disposition::PureRouted,
                        2 => Disposition::DeadEnd,
                        3 => Disposition::Duplicate,
                        _ => Disposition::Rewritten,
                    },
                    results,
                    new_entries,
                }),
            0..4,
        ),
    )
        .prop_map(|(id, origin, seq, reports)| {
            Message::Report(ResultReport {
                id,
                origin: origin.into(),
                seq,
                reports,
            })
        });
    let fetch =
        (url_strategy(), "[a-z.]{1,10}", 1u16..9999).prop_map(|(url, reply_host, reply_port)| {
            Message::Fetch(FetchRequest {
                url,
                reply_host: reply_host.into(),
                reply_port,
            })
        });
    let fetch_reply = (url_strategy(), prop::option::of(".{0,100}"))
        .prop_map(|(url, html)| Message::FetchReply(FetchResponse { url, html }));
    prop_oneof![clone, report, fetch, fetch_reply]
}

/// Runs `f` on a thread of its own: a decoder whose memo has seen nothing.
fn fresh<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().unwrap())
}

/// How a frame is damaged before it is read: not at all (kinds 0–2), one
/// byte flipped as chaos's `Corrupt` fault flips it (3), cut short (4),
/// or followed by garbage (5).
fn damage(frame: &mut Vec<u8>, kind: u8, at: f64, garbage: &[u8]) {
    let (len, pos) = (frame.len(), ((frame.len() as f64) * at) as usize);
    match kind {
        3 if len > 0 => frame[pos % len] ^= 0xff,
        4 => frame.truncate(pos),
        5 => frame.extend_from_slice(garbage),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The decode memo changes no outcome: one long-lived decoder reads a
    /// stream drawn, with repeats, from a few messages, some frames
    /// damaged, and decodes each exactly as a fresh decoder does — equal
    /// messages, or both errors.
    #[test]
    fn a_long_lived_decoder_reads_what_a_fresh_one_does(
        pool in prop::collection::vec(message_strategy(), 1..5),
        stream in prop::collection::vec(
            (0usize..8, 0u8..6, 0.0f64..1.0, prop::collection::vec(any::<u8>(), 1..8)),
            1..24,
        ),
    ) {
        for (pick, kind, at, garbage) in stream {
            let mut frame = encode_message(&pool[pick % pool.len()]);
            damage(&mut frame, kind, at, &garbage);
            let memoized = decode_message(&frame);
            prop_assert_eq!(memoized, fresh(|| decode_message(&frame)));
        }
    }

    /// The codec is prefix-free, which the memo's prefix match relies on:
    /// a PRE or stage list followed by any bytes decodes to itself and
    /// consumes exactly its own encoding.
    #[test]
    fn pre_and_stage_list_encodings_are_prefix_free(
        pre in pre_strategy(),
        stages in prop::collection::vec(stage_strategy(), 0..3),
        suffix in prop::collection::vec(any::<u8>(), 0..16),
    ) {
        let stages: Arc<[Stage]> = stages.into();
        let (mut e_pre, mut e_stages) = (Vec::new(), Vec::new());
        pre.encode(&mut e_pre);
        stages.encode(&mut e_stages);
        e_pre.extend_from_slice(&suffix);
        e_stages.extend_from_slice(&suffix);
        let (back_pre, back_stages) = fresh(|| {
            let (mut a, mut b) = (e_pre.as_slice(), e_stages.as_slice());
            ((Pre::decode(&mut a), a.len()), (Arc::<[Stage]>::decode(&mut b), b.len()))
        });
        prop_assert_eq!(back_pre, (Ok(pre), suffix.len()));
        prop_assert_eq!(back_stages, (Ok(stages), suffix.len()));
    }

    /// Every protocol message round-trips exactly.
    #[test]
    fn any_message_round_trips(msg in message_strategy()) {
        let bytes = encode_message(&msg);
        let back = decode_message(&bytes).expect("decode");
        prop_assert_eq!(back, msg);
    }

    /// Truncating an encoded message at any point yields an error, not a
    /// panic or a silent partial decode.
    #[test]
    fn truncation_always_errors(msg in message_strategy(), cut_fraction in 0.0f64..1.0) {
        let bytes = encode_message(&msg);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        if cut < bytes.len() {
            prop_assert!(decode_message(&bytes[..cut]).is_err());
        }
    }

    /// Arbitrary byte soup never panics the decoder.
    #[test]
    fn decoder_is_total_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = decode_message(&bytes);
    }

    /// Single-byte corruption either errors or decodes to a *valid*
    /// message (never panics, never reads out of bounds).
    #[test]
    fn bitflip_is_safe(msg in message_strategy(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = encode_message(&msg);
        if bytes.is_empty() {
            return Ok(());
        }
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= 1 << bit;
        if let Ok(decoded) = decode_message(&bytes) {
            // A successful decode yields a *stable* value: URLs inside
            // may have normalized (so re-encoding can differ from the
            // corrupted bytes), but one more round trip is the identity.
            let reencoded = encode_message(&decoded);
            let again = decode_message(&reencoded).expect("re-encode of a valid message decodes");
            prop_assert_eq!(again, decoded);
        }
    }

    /// A URL is written straight into the frame, and the frame holds
    /// exactly what its rendered string would have encoded to.
    #[test]
    fn url_encodes_as_its_display_string(url in url_strategy(), frag in "[a-z]{0,5}") {
        let url = url.resolve(&format!("#{frag}")).unwrap();
        let (mut direct, mut rendered) = (vec![0xAA], vec![0xAA]);
        url.encode(&mut direct);
        url.to_string().encode(&mut rendered);
        prop_assert_eq!(direct, rendered);
    }

    /// Sharing is not on the wire: a clone holding the tail another clone
    /// holds (one `Arc`, two owners) encodes like one holding a freshly
    /// built list of equal stages.
    #[test]
    fn shared_stage_tail_encodes_as_a_fresh_list(msg in message_strategy(), skip in 0usize..3) {
        let Message::Query(clone) = msg else { return Ok(()); };
        let tail: Arc<[_]> = clone.stages[skip.min(clone.stages.len())..].into();
        let fresh: Vec<_> = tail.iter().cloned().collect();
        let sibling = QueryClone { stages: tail.clone(), ..clone.clone() };
        let shared = QueryClone { stages: tail, ..clone.clone() };
        let rebuilt = QueryClone { stages: fresh.into(), ..clone };
        prop_assert_eq!(&shared, &sibling);
        prop_assert_eq!(
            encode_message(&Message::Query(shared)),
            encode_message(&Message::Query(rebuilt))
        );
    }
}
