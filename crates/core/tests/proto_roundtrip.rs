//! Wire-format coverage of the v-command protocol: every `VCommand`
//! variant (and both `VResponse` arms) must survive a JSON round trip
//! byte-for-byte, and malformed payloads must surface as parse errors,
//! never panics. `to_json` writes JSON directly; it must stay byte for
//! byte what rendering the payload's `serde_json::Value` tree gives.

use std::fmt::Debug;

use ksim::workload::{build, WorkloadConfig};
use proptest::prelude::*;
use vbridge::LatencyProfile;
use vgraph::{diff, Graph, Item, ViewInst};
use visualinux::proto::{VCommand, VResponse, VERSION};
use visualinux::{figures, Session};
use vpanels::{PaneId, SplitDir};

fn sample_graph() -> Graph {
    let mut g = Graph::new();
    let (a, _) = g.intern(0x1000, "Task", "task_struct", 0x40);
    let (b, _) = g.intern(0x2000, "Task", "task_struct", 0x40);
    g.get_mut(a).views.push(ViewInst {
        name: "default".into(),
        items: vec![
            vgraph::Item::Text {
                name: "pid".into(),
                value: "1".into(),
                raw: Some(1),
            },
            vgraph::Item::Link {
                name: "next".into(),
                target: b,
            },
        ],
    });
    g.roots.push(a);
    g
}

fn mutated_graph() -> Graph {
    let mut g = sample_graph();
    let id = g.roots[0];
    if let vgraph::Item::Text { value, raw, .. } = &mut g.get_mut(id).views[0].items[0] {
        *value = "2".into();
        *raw = Some(2);
    }
    g
}

/// Every wire variant under test, one constructor per `VCommand` arm.
fn all_commands() -> Vec<(&'static str, VCommand)> {
    let base = sample_graph();
    let delta = diff::diff(&base, &mutated_graph());
    vec![
        (
            "vplot",
            VCommand::Vplot {
                graph: base,
                source: "plot @root".into(),
            },
        ),
        (
            "vctrl_apply",
            VCommand::VctrlApply {
                pane: PaneId(3),
                viewql: "a = SELECT task_struct FROM *\nUPDATE a WITH collapsed: true".into(),
            },
        ),
        (
            "vctrl_split",
            VCommand::VctrlSplit {
                pane: PaneId(1),
                dir: SplitDir::Horizontal,
            },
        ),
        ("vctrl_focus", VCommand::VctrlFocus { addr: 0xffff_8880 }),
        (
            "vchat",
            VCommand::Vchat {
                pane: PaneId(0),
                message: "shrink idle tasks".into(),
            },
        ),
        (
            "vplot_request",
            VCommand::VplotRequest {
                viewcl: "define T as Box<task_struct> [ Text pid ]".into(),
            },
        ),
        (
            "vplot_delta",
            VCommand::VplotDelta {
                source: "plot @root".into(),
                seq: 7,
                delta,
            },
        ),
        (
            "vack",
            VCommand::Vack {
                source: "plot @root".into(),
                seq: 7,
                proto: VERSION,
            },
        ),
        (
            "vattach",
            VCommand::Vattach {
                session: "replay-03".into(),
            },
        ),
    ]
}

#[test]
fn every_vcommand_variant_round_trips() {
    let cmds = all_commands();
    // Exhaustiveness guard: adding a VCommand variant must extend this
    // test. The match below fails to compile on a new variant.
    for (_, c) in &cmds {
        match c {
            VCommand::Vplot { .. }
            | VCommand::VctrlApply { .. }
            | VCommand::VctrlSplit { .. }
            | VCommand::VctrlFocus { .. }
            | VCommand::Vchat { .. }
            | VCommand::VplotRequest { .. }
            | VCommand::VplotDelta { .. }
            | VCommand::Vack { .. }
            | VCommand::Vattach { .. } => {}
        }
    }
    for (tag, cmd) in cmds {
        let json = cmd.to_json();
        assert!(
            json.contains(&format!("\"command\":\"{tag}\"")),
            "{tag}: tag missing in {json}"
        );
        let back = VCommand::from_json(&json).unwrap_or_else(|e| panic!("{tag}: {e}"));
        // Serialization is deterministic, so a byte-identical re-encode
        // proves the round trip lost nothing.
        assert_eq!(back.to_json(), json, "{tag}: round trip changed bytes");
    }
}

#[test]
fn vack_carries_the_protocol_version_and_defaults_for_old_peers() {
    // The current revision round-trips through the stamped field.
    const { assert!(VERSION >= 2, "binary framing shipped at revision 2") };
    let ack = VCommand::Vack {
        source: "plot @root".into(),
        seq: 3,
        proto: VERSION,
    };
    let json = ack.to_json();
    assert!(
        json.contains(&format!("\"proto\":{VERSION}")),
        "version stamp missing in {json}"
    );
    let VCommand::Vack { proto, .. } = VCommand::from_json(&json).unwrap() else {
        panic!("variant changed in flight");
    };
    assert_eq!(proto, VERSION);
    // Pre-stamping peers omit the field entirely; serde defaults it to 0
    // so the serving side can tell "old client" from any real revision.
    let legacy = "{\"command\":\"vack\",\"source\":\"plot @root\",\"seq\":3}";
    let VCommand::Vack { source, seq, proto } = VCommand::from_json(legacy).unwrap() else {
        panic!("legacy ack no longer parses");
    };
    assert_eq!((source.as_str(), seq, proto), ("plot @root", 3, 0));
}

#[test]
fn delta_payload_survives_the_wire_semantically() {
    let base = sample_graph();
    let new = mutated_graph();
    let cmd = VCommand::VplotDelta {
        source: "plot @root".into(),
        seq: 1,
        delta: diff::diff(&base, &new),
    };
    let back = VCommand::from_json(&cmd.to_json()).unwrap();
    let VCommand::VplotDelta { seq, delta, .. } = back else {
        panic!("variant changed in flight");
    };
    assert_eq!(seq, 1);
    let rebuilt = diff::apply(&base, &delta).unwrap();
    assert_eq!(rebuilt.to_json(), new.to_json());
}

#[test]
fn responses_round_trip() {
    for resp in [
        VResponse::Ok {
            pane: Some(PaneId(2)),
            synthesized: Some("UPDATE a WITH collapsed: true".into()),
        },
        VResponse::Ok {
            pane: None,
            synthesized: None,
        },
        VResponse::Err {
            message: "no such pane".into(),
        },
    ] {
        let json = resp.to_json();
        let back = VResponse::from_json(&json).unwrap();
        assert_eq!(back.to_json(), json);
    }
}

#[test]
fn malformed_json_is_an_error_not_a_panic() {
    for bad in [
        "",
        "{",
        "not json at all",
        "42",
        "[]",
        "{}",                                // no command tag
        "{\"command\":\"no_such_command\"}", // unknown tag
        "{\"command\":\"vack\"}",            // missing fields
        "{\"command\":\"vctrl_focus\",\"addr\":\"not a number\"}",
        "{\"command\":\"vplot_delta\",\"source\":\"s\",\"seq\":1,\"delta\":{\"base_len\":\"x\"}}",
        // Routing frames: a vattach must carry a string session key.
        "{\"command\":\"vattach\"}",
        "{\"command\":\"vattach\",\"session\":42}",
        "{\"command\":\"vattach\",\"session\":null}",
        "{\"command\":\"vattach\",\"session\":[\"a\"]}",
    ] {
        assert!(
            VCommand::from_json(bad).is_err(),
            "accepted malformed payload: {bad:?}"
        );
    }
    assert!(VResponse::from_json("{\"status\":\"nope\"}").is_err());
}

/// `json` (what `to_json` wrote for `x`) equals the value-tree rendering
/// of `x`, and parses back into `x`.
fn assert_codec_agrees<T: serde::Serialize + PartialEq + Debug>(
    what: &str,
    x: &T,
    json: String,
    parse: fn(&str) -> serde_json::Result<T>,
) {
    let tree = serde_json::to_string(&serde_json::to_value(x).unwrap()).unwrap();
    assert!(
        json == tree,
        "{what}: direct encoding differs from the value tree"
    );
    let back = parse(&json).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert!(back == *x, "{what}: round trip changed the value");
}

fn check_command(what: &str, cmd: &VCommand) {
    assert_codec_agrees(what, cmd, cmd.to_json(), VCommand::from_json);
}

fn check_response(what: &str, resp: &VResponse) {
    assert_codec_agrees(what, resp, resp.to_json(), VResponse::from_json);
}

#[test]
fn direct_encoding_matches_the_value_tree_for_every_figure() {
    for (pname, profile) in [
        ("gdb_qemu", LatencyProfile::gdb_qemu()),
        ("kgdb_rpi400", LatencyProfile::kgdb_rpi400()),
    ] {
        let mut s = Session::builder(build(&WorkloadConfig::default()))
            .profile(profile)
            .attach()
            .unwrap();
        let figs = figures::all();
        let before: Vec<Graph> = figs
            .iter()
            .map(|fig| s.extract(fig.viewcl).expect(fig.id).0)
            .collect();
        let roots = s.roots.clone();
        s.stop_event(|img| {
            ksim::tick::tick(img, &roots, 1);
        })
        .unwrap();
        for (i, (fig, base)) in figs.iter().zip(before).enumerate() {
            let what = |arm: &str| format!("{pname}/{}/{arm}", fig.id);
            let (after, _) = s.extract(fig.viewcl).expect(fig.id);
            let delta = diff::diff(&base, &after);
            let source = fig.viewcl.to_string();
            check_command(
                &what("vplot"),
                &VCommand::Vplot {
                    graph: base,
                    source: source.clone(),
                },
            );
            check_command(
                &what("vplot_delta"),
                &VCommand::VplotDelta {
                    source: source.clone(),
                    seq: 1,
                    delta,
                },
            );
            check_command(
                &what("vplot_request"),
                &VCommand::VplotRequest {
                    viewcl: source.clone(),
                },
            );
            check_command(
                &what("vack"),
                &VCommand::Vack {
                    source,
                    seq: 1,
                    proto: VERSION,
                },
            );
            check_response(
                &what("ok"),
                &VResponse::Ok {
                    pane: Some(PaneId(i as u32)),
                    synthesized: Some(fig.title.to_string()),
                },
            );
            check_response(
                &what("err"),
                &VResponse::Err {
                    message: format!("{}: {}", fig.id, fig.title),
                },
            );
        }
    }
}

/// Characters that stress the string codec: printable ASCII, control
/// characters, the three characters JSON may escape, and 2-byte, 3-byte
/// and astral UTF-8.
fn wire_char() -> BoxedStrategy<char> {
    let code = |range: std::ops::Range<u32>| {
        range.prop_map(|c| char::from_u32(c).expect("no surrogates in range"))
    };
    prop_oneof![
        code(0x20..0x7f),
        code(0..0x20),
        (0usize..3).prop_map(|i| ['"', '\\', '/'][i]),
        code(0x80..0x800),
        code(0x800..0xd800),
        code(0x10000..0x110000),
    ]
    .boxed()
}

fn wire_string() -> BoxedStrategy<String> {
    proptest::collection::vec(wire_char(), 0..24)
        .prop_map(|cs| cs.into_iter().collect())
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hostile_strings_survive_the_codec(
        label in wire_string(),
        value in wire_string(),
        source in wire_string(),
    ) {
        let mut g = Graph::new();
        let (a, _) = g.intern(0x1000, label.as_str(), "task_struct", 0x40);
        g.get_mut(a).views.push(ViewInst {
            name: label.as_str().into(),
            items: vec![Item::Text {
                name: "comm".into(),
                value: value.clone(),
                raw: None,
            }],
        });
        g.roots.push(a);
        check_command("vplot", &VCommand::Vplot { graph: g, source: source.clone() });
        check_command("vplot_request", &VCommand::VplotRequest { viewcl: source });
        check_response("err", &VResponse::Err { message: value });
    }
}

/// A correctness test, not a timing one: a parser that re-scanned the
/// input per character would take minutes here.
#[test]
fn a_one_mib_viewcl_source_round_trips() {
    let line = "define T as Box<task_struct> [ Text pid ] // \"é☃😀\\\t\n";
    let viewcl = line.repeat((1 << 20) / line.len() + 1);
    assert!(viewcl.len() >= 1 << 20);
    check_command("1 MiB vplot_request", &VCommand::VplotRequest { viewcl });
}

// ------------------------------------------------------------- decoding --

/// A frame of the corpus: a command, or a reply.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Command,
    Response,
}

/// Every request, ack and full `vplot` of the 21 figures, the `vplot_delta`
/// of each over 20 tick stops, and both `VResponse` arms: the frames a
/// serving loop decodes. Built once for the tests that share it.
fn corpus() -> &'static [(Kind, String)] {
    static CORPUS: std::sync::OnceLock<Vec<(Kind, String)>> = std::sync::OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut s = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::free())
            .attach()
            .unwrap();
        let figs = figures::all();
        let mut frames = Vec::new();
        let mut last: Vec<Graph> = Vec::new();
        for fig in &figs {
            let source = fig.viewcl.to_string();
            let (graph, _) = s.extract(fig.viewcl).expect(fig.id);
            for cmd in [
                VCommand::VplotRequest {
                    viewcl: source.clone(),
                },
                VCommand::Vack {
                    source: source.clone(),
                    seq: 20,
                    proto: VERSION,
                },
                VCommand::Vplot {
                    graph: graph.clone(),
                    source,
                },
            ] {
                frames.push((Kind::Command, cmd.to_json()));
            }
            last.push(graph);
        }
        let roots = s.roots.clone();
        for stop in 1..=20u64 {
            s.stop_event(|img| {
                ksim::tick::tick(img, &roots, 1);
            })
            .unwrap();
            for (fig, base) in figs.iter().zip(last.iter_mut()) {
                let (after, _) = s.extract(fig.viewcl).expect(fig.id);
                let delta = VCommand::VplotDelta {
                    source: fig.viewcl.to_string(),
                    seq: stop,
                    delta: diff::diff(base, &after),
                };
                frames.push((Kind::Command, delta.to_json()));
                *base = after;
            }
        }
        for resp in [
            VResponse::Ok {
                pane: Some(PaneId(3)),
                synthesized: Some("UPDATE a WITH collapsed: true".into()),
            },
            VResponse::Err {
                message: "ack for seq 4, last shipped 5; resyncing".into(),
            },
        ] {
            frames.push((Kind::Response, resp.to_json()));
        }
        frames
    })
}

/// `frame` decoded directly, as `from_json` does, and through the
/// reference: the parsed value tree, then `deserialize_value`.
fn decode_both<T: serde::Deserialize>(frame: &str) -> (Result<T, String>, Result<T, String>) {
    let direct = serde_json::from_str::<T>(frame).map_err(|e| e.to_string());
    let tree = serde_json::from_str::<serde_json::Value>(frame)
        .and_then(serde_json::from_value::<T>)
        .map_err(|e| e.to_string());
    (direct, tree)
}

/// Both decoders give the same value, or fail with the same message;
/// returns whether they decoded it.
fn assert_decoders_agree(kind: Kind, frame: &str) -> bool {
    match kind {
        Kind::Command => {
            let (direct, tree) = decode_both::<VCommand>(frame);
            assert!(
                direct == tree,
                "{frame:.300}\ndirect {direct:.300?}\ntree   {tree:.300?}"
            );
            direct.is_ok()
        }
        Kind::Response => {
            let (direct, tree) = decode_both::<VResponse>(frame);
            assert!(
                direct == tree,
                "{frame:.300}\ndirect {direct:?}\ntree   {tree:?}"
            );
            direct.is_ok()
        }
    }
}

#[test]
fn direct_decoding_matches_the_value_tree_for_every_figure() {
    let frames = corpus();
    assert_eq!(frames.len(), 21 * 3 + 21 * 20 + 2);
    for (kind, frame) in frames {
        assert!(assert_decoders_agree(*kind, frame), "{frame:.200}");
    }
}

/// Values of every kind, a few of them nested, for mutations to insert.
const FILLERS: [&str; 9] = [
    "null",
    "true",
    "7",
    "-1.5",
    "\"x\"",
    "[]",
    "{}",
    "[1,\"a\",{}]",
    "{\"k\":[null,{\"j\":false}]}",
];

/// A container's members as `(key, JSON)` pairs; an array's have no key.
type Members = Vec<(Option<String>, String)>;

/// `v` as JSON, with the `target`-th container (in pre-order) rewritten
/// by `edit` from its members.
fn render_edited(
    v: &serde_json::Value,
    target: usize,
    seen: &mut usize,
    edit: &dyn Fn(&mut Members),
    out: &mut String,
) {
    use serde_json::Value;
    let members: Vec<(Option<&String>, &Value)> = match v {
        Value::Array(items) => items.iter().map(|x| (None, x)).collect(),
        Value::Object(m) => m.iter().map(|(k, x)| (Some(k), x)).collect(),
        scalar => {
            out.push_str(&serde_json::to_string(scalar).unwrap());
            return;
        }
    };
    let here = *seen;
    *seen += 1;
    let mut parts: Members = members
        .into_iter()
        .map(|(k, x)| {
            let mut text = String::new();
            render_edited(x, target, seen, edit, &mut text);
            (k.cloned(), text)
        })
        .collect();
    if here == target {
        edit(&mut parts);
    }
    let object = matches!(v, Value::Object(_));
    out.push(if object { '{' } else { '[' });
    for (i, (k, text)) in parts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(k) = k {
            out.push_str(&serde_json::to_string(k).unwrap());
            out.push(':');
        }
        out.push_str(text);
    }
    out.push(if object { '}' } else { ']' });
}

fn containers(v: &serde_json::Value) -> usize {
    match v {
        serde_json::Value::Array(items) => 1 + items.iter().map(containers).sum::<usize>(),
        serde_json::Value::Object(m) => 1 + m.iter().map(|(_, x)| containers(x)).sum::<usize>(),
        _ => 0,
    }
}

/// `frame` with one mutation of kind `how`, placed by `a` and `b`.
fn mutate(frame: &str, how: u8, a: u64, b: u64) -> String {
    let at = |n: usize| frame.floor_char_boundary(a as usize % (n + 1));
    match how {
        0 => frame[..at(frame.len())].to_string(),
        1 => {
            // Replace an ASCII byte with a byte JSON gives meaning to.
            const BYTES: &[u8] = b"{}[]\":,\\0159eE.+- ntfu";
            let mut bytes = frame.as_bytes().to_vec();
            let start = a as usize % bytes.len();
            if let Some(i) = (start..bytes.len()).find(|&i| bytes[i].is_ascii()) {
                bytes[i] = BYTES[b as usize % BYTES.len()];
            }
            String::from_utf8(bytes).expect("only an ASCII byte changed")
        }
        2 => {
            let i = at(frame.len());
            let ws = [" ", "\t", "\n", "\r"][b as usize % 4];
            format!("{}{ws}{}", &frame[..i], &frame[i..])
        }
        _ => {
            let tree: serde_json::Value = serde_json::from_str(frame).expect("corpus frames parse");
            let target = a as usize % containers(&tree);
            let filler = FILLERS[b as usize % FILLERS.len()].to_string();
            let deep = if b.is_multiple_of(2) {
                format!("{}{}", "[".repeat(130), "]".repeat(130))
            } else {
                format!("{}1{}", "{\"d\":".repeat(130), "}".repeat(130))
            };
            let edit = |parts: &mut Members| {
                let keyed = parts.first().is_some_and(|(k, _)| k.is_some());
                let j = (b as usize / 7) % parts.len().max(1);
                match how {
                    3 => parts.reverse(),
                    4 if !parts.is_empty() => {
                        let (k, v) = parts[j].clone();
                        let v = if b.is_multiple_of(3) {
                            v
                        } else {
                            filler.clone()
                        };
                        parts.push((k, v));
                    }
                    6 if !parts.is_empty() => parts[j].1 = filler.clone(),
                    7 if !parts.is_empty() => parts[j].1 = deep.clone(),
                    _ => {
                        let k = keyed.then(|| "zz_unknown".to_string());
                        let j = (b as usize / 7) % (parts.len() + 1);
                        parts.insert(j, (k, filler.clone()));
                    }
                }
            };
            let mut out = String::new();
            render_edited(&tree, target, &mut 0, &edit, &mut out);
            out
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    // Truncation, byte flips, inserted whitespace, reordered,
    // duplicated and unknown keys, a value swapped for another kind,
    // and nesting past the limit: whatever the frame, the direct
    // decoder gives what the value tree gives, or fails with its
    // message.
    #[test]
    fn direct_decoding_matches_the_value_tree_under_mutation(
        pick in any::<u64>(),
        how in 0u8..8,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let frames = corpus();
        let (kind, frame) = &frames[pick as usize % frames.len()];
        assert_decoders_agree(*kind, &mutate(frame, how, a, b));
    }
}

/// Run `f` on a thread with the default 2 MiB stack.
fn on_a_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .expect("no stack overflow");
}

#[test]
fn frames_at_the_nesting_limit_decode_on_a_small_stack() {
    on_a_small_stack(|| {
        let mut g = sample_graph();
        let id = g.roots[0];
        g.get_mut(id).attrs.set("deep", serde_json::Value::Null);
        let frame = VCommand::Vplot {
            graph: g,
            source: "plot @root".into(),
        }
        .to_json();
        // The command, its graph, the box list, the box, its attrs and
        // their `extra` open six levels; 122 arrays reach the limit.
        let nest = |n: usize| {
            frame.replace(
                "\"deep\":null",
                &format!("\"deep\":{}{}", "[".repeat(n), "]".repeat(n)),
            )
        };
        let VCommand::Vplot { graph, .. } = VCommand::from_json(&nest(122)).unwrap() else {
            panic!("variant changed in flight");
        };
        let deep = &graph.get(graph.roots[0]).attrs.extra["deep"];
        assert_eq!(serde_json::to_string(deep).unwrap().len(), 2 * 122);
        let err = VCommand::from_json(&nest(123)).unwrap_err().to_string();
        assert!(err.starts_with("recursion limit exceeded at byte"), "{err}");

        // A session of 64 panes, split down the `second` spine as pushes
        // split it: its layout nests as deep as layouts get.
        let mut s = vpanels::Session::new(sample_graph());
        for _ in 1..vpanels::MAX_PANES {
            let last = s.layout.last_leaf();
            s.split(last, SplitDir::Horizontal, Graph::new()).unwrap();
        }
        let restored = vpanels::Session::load(&s.save()).expect("a full session loads");
        assert_eq!(restored.layout, s.layout);
    });
}
