//! A full `vplot` measured without encoding it. `proto::vplot_json`
//! writes the command from a borrowed graph and must be byte for byte
//! `VCommand::Vplot { .. }.to_json()`; `proto::vplot_json_len` counts
//! it without writing and must equal its length exactly, because the
//! engine decides between a delta and a full plot on that count alone,
//! and sizes the encoded plot by it. Checked over random graphs with
//! hostile strings and extreme numbers, and over every figure under
//! both latency profiles, at two workload seeds, across 20 tick stops,
//! where `proto::vplot_delta_json` must also write each stop's delta,
//! given as the delta or as its pre-encoded `proto::Json` (as an engine
//! holds a record's step), byte for byte as
//! `VCommand::VplotDelta { .. }.to_json()` does.
//!
//! An engine measures a pane patched from the one it served before by
//! difference: that plot's length plus `Graph::json_len_change`, the
//! length change of the boxes the two graphs do not share. That must
//! equal `vplot_json_len` too, over random pairs of equal box count and
//! roots, and over every figure a cached session patches across 20
//! tick stops at two seeds.

use std::collections::BTreeMap;
use std::sync::Arc;

use ksim::workload::{build, WorkloadConfig};
use proptest::prelude::*;
use vbridge::{CacheConfig, LatencyProfile};
use vgraph::{Attrs, BoxId, BoxNode, ContainerKind, Graph, Item, ViewInst};
use visualinux::proto::{vplot_delta_json, vplot_json, vplot_json_len, Json, VCommand};
use visualinux::{figures, Session};

fn check(graph: &Graph, source: &str) {
    let len = vplot_json_len(graph, source);
    let json = vplot_json(graph, source, len);
    let want = VCommand::Vplot {
        graph: graph.clone(),
        source: source.to_string(),
    }
    .to_json();
    assert!(json == want, "vplot_json differs from VCommand::to_json");
    assert_eq!(len, json.len());
}

/// Printable ASCII, `"`, `\`, every control byte, and 2-, 3- and 4-byte
/// UTF-8.
fn hostile_char() -> BoxedStrategy<char> {
    let code = |range: std::ops::Range<u32>| {
        range.prop_map(|c| char::from_u32(c).expect("no surrogates in range"))
    };
    prop_oneof![
        code(0x20..0x7f),
        code(0..0x20),
        (0usize..3).prop_map(|i| ['"', '\\', '\u{7f}'][i]),
        code(0x80..0x800),
        code(0x800..0xd800),
        code(0x10000..0x110000),
    ]
    .boxed()
}

fn hostile_string() -> BoxedStrategy<String> {
    proptest::collection::vec(hostile_char(), 0..12)
        .prop_map(|cs| cs.into_iter().collect())
        .boxed()
}

fn name() -> BoxedStrategy<Arc<str>> {
    hostile_string().prop_map(Arc::from).boxed()
}

/// Integers at both ends of their range, and some in between.
fn extreme_u64() -> BoxedStrategy<u64> {
    prop_oneof![
        (0usize..4).prop_map(|i| [0, 1, u64::MAX - 1, u64::MAX][i]),
        any::<u64>(),
        0u64..1000,
    ]
    .boxed()
}

fn raw() -> BoxedStrategy<Option<i64>> {
    prop_oneof![
        Just(None),
        (0usize..4).prop_map(|i| Some([i64::MIN, -1, 0, i64::MAX][i])),
        any::<i64>().prop_map(Some),
    ]
    .boxed()
}

/// JSON values nested three levels deep: arrays and objects of scalars.
fn json_value() -> BoxedStrategy<serde_json::Value> {
    use serde_json::{Map, Number, Value};
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(|n| Value::Number(Number::from_i64(n))),
        any::<u64>().prop_map(|n| Value::Number(Number::from_u64(n))),
        (any::<i32>(), 1u32..1000)
            .prop_map(|(n, d)| Value::Number(Number::from_f64(f64::from(n) / f64::from(d)))),
        hostile_string().prop_map(Value::String),
    ];
    leaf.prop_recursive(3, 32, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            proptest::collection::vec((hostile_string(), inner), 0..4).prop_map(|entries| {
                let mut m = Map::new();
                for (k, v) in entries {
                    m.insert(k, v);
                }
                Value::Object(m)
            }),
        ]
    })
}

fn attrs() -> BoxedStrategy<Attrs> {
    let opt_string = || prop_oneof![Just(None), hostile_string().prop_map(Some)];
    (
        opt_string(),
        any::<bool>(),
        any::<bool>(),
        opt_string(),
        proptest::collection::vec((hostile_string(), json_value()), 0..3),
    )
        .prop_map(|(view, trimmed, collapsed, direction, extra)| Attrs {
            view,
            trimmed,
            collapsed,
            direction,
            extra: extra.into_iter().collect::<BTreeMap<_, _>>(),
        })
        .boxed()
}

fn item() -> BoxedStrategy<Item> {
    prop_oneof![
        (name(), hostile_string(), raw()).prop_map(|(name, value, raw)| Item::Text {
            name,
            value,
            raw
        }),
        (name(), any::<u32>()).prop_map(|(name, t)| Item::Link {
            name,
            target: BoxId(t),
        }),
        name().prop_map(|name| Item::NullLink { name }),
        (
            name(),
            any::<bool>(),
            proptest::collection::vec(any::<u32>(), 0..4),
            attrs()
        )
            .prop_map(|(name, set, members, attrs)| Item::Container {
                name,
                kind: if set {
                    ContainerKind::Set
                } else {
                    ContainerKind::Sequence
                },
                members: members.into_iter().map(BoxId).collect(),
                attrs,
            }),
    ]
    .boxed()
}

/// A box's fields, its id assigned by position when the graph is built.
type BoxParts = (
    Arc<str>,
    Arc<str>,
    u64,
    u64,
    Vec<(Arc<str>, Vec<Item>)>,
    Attrs,
);

fn box_parts() -> BoxedStrategy<BoxParts> {
    (
        name(),
        name(),
        extreme_u64(),
        extreme_u64(),
        proptest::collection::vec((name(), proptest::collection::vec(item(), 0..4)), 0..3),
        attrs(),
    )
        .boxed()
}

fn graph() -> BoxedStrategy<Graph> {
    (
        proptest::collection::vec(box_parts(), 0..6),
        proptest::collection::vec(any::<u32>(), 0..3),
    )
        .prop_map(|(parts, roots)| {
            let boxes = (0..)
                .zip(parts)
                .map(|(i, (label, ctype, addr, size, views, attrs))| BoxNode {
                    id: BoxId(i),
                    label,
                    ctype,
                    addr,
                    size,
                    views: views
                        .into_iter()
                        .map(|(name, items)| ViewInst { name, items })
                        .collect(),
                    attrs,
                })
                .collect();
            Graph::from_parts(boxes, roots.into_iter().map(BoxId).collect())
        })
        .boxed()
}

/// A graph and a copy that shares its boxes and roots but at the
/// positions `mask` names, which hold the boxes of another random graph
/// there, if it has one.
fn graph_pair() -> BoxedStrategy<(Graph, Graph)> {
    (graph(), graph(), any::<u8>())
        .prop_map(|(g, other, mask)| {
            let boxes: Vec<Arc<BoxNode>> = (0..)
                .zip(g.boxes())
                .map(
                    |(i, b)| match other.boxes().get(i).filter(|_| mask >> i & 1 == 1) {
                        Some(swapped) => Arc::clone(swapped),
                        None => Arc::clone(b),
                    },
                )
                .collect();
            let copy = Graph::from_parts(boxes, g.roots.clone());
            (g, copy)
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn measured_length_and_borrowed_bytes_match_the_command(
        g in graph(),
        source in hostile_string(),
    ) {
        check(&g, &source);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_length_by_difference_is_the_length(pair in graph_pair(), source in hostile_string()) {
        let (base, new) = pair;
        let unshared = (base.boxes().iter().zip(new.boxes()))
            .filter(|(a, b)| !Arc::ptr_eq(a, b))
            .count();
        match new.json_len_change(&base) {
            Some(change) => {
                let base_len = vplot_json_len(&base, &source);
                prop_assert_eq!(base_len.checked_add_signed(change), Some(vplot_json_len(&new, &source)));
            }
            None => prop_assert!(unshared * 2 > new.len(), "{} of {} boxes differ", unshared, new.len()),
        }
    }
}

#[test]
fn every_patched_figure_measures_exactly_by_difference_across_tick_stops() {
    let figs = figures::all();
    let mut by_difference = 0;
    for seed in [1, 42] {
        let config = WorkloadConfig {
            seed,
            ..WorkloadConfig::default()
        };
        let mut s = Session::builder(build(&config))
            .profile(LatencyProfile::kgdb_rpi400())
            .cache(CacheConfig::default())
            .attach()
            .unwrap();
        let roots = s.roots.clone();
        let mut last: Vec<(Arc<Graph>, usize)> = Vec::new();
        for stop in 0..=20u64 {
            if stop > 0 {
                let roots = roots.clone();
                s.stop_event(move |img| {
                    ksim::tick::tick(img, &roots, stop);
                })
                .unwrap();
            }
            let walked: Vec<(Arc<Graph>, usize)> = figs
                .iter()
                .map(|fig| {
                    let graph = s.extract_shared(fig.viewcl).expect(fig.id).0;
                    let len = vplot_json_len(&graph, fig.viewcl);
                    (graph, len)
                })
                .collect();
            for ((fig, (graph, len)), (base, base_len)) in figs.iter().zip(&walked).zip(&last) {
                if let Some(change) = graph.json_len_change(base) {
                    assert_eq!(
                        base_len.checked_add_signed(change),
                        Some(*len),
                        "{}",
                        fig.id
                    );
                    by_difference += usize::from(!Arc::ptr_eq(graph, base));
                }
            }
            last = walked;
        }
    }
    // fig3-4 and fig7-1 are patched after every tick.
    assert!(by_difference >= 2 * 20 * 2, "{by_difference} patched panes");
}

#[test]
fn an_empty_graph_and_source_measure_exactly() {
    check(&Graph::new(), "");
}

#[test]
fn every_figure_measures_exactly_across_tick_stops() {
    let figs = figures::all();
    for seed in [1, 42] {
        for profile in [LatencyProfile::gdb_qemu(), LatencyProfile::kgdb_rpi400()] {
            let config = WorkloadConfig {
                seed,
                ..WorkloadConfig::default()
            };
            let mut s = Session::builder(build(&config))
                .profile(profile)
                .attach()
                .unwrap();
            let roots = s.roots.clone();
            let mut last: Vec<Graph> = Vec::new();
            for stop in 0..=20u64 {
                if stop > 0 {
                    let roots = roots.clone();
                    s.stop_event(move |img| {
                        ksim::tick::tick(img, &roots, stop);
                    })
                    .unwrap();
                }
                let graphs: Vec<Graph> = figs
                    .iter()
                    .map(|fig| s.extract(fig.viewcl).expect(fig.id).0)
                    .collect();
                for (i, (fig, graph)) in figs.iter().zip(&graphs).enumerate() {
                    check(graph, fig.viewcl);
                    if let Some(base) = last.get(i) {
                        let delta = vgraph::diff::diff(base, graph);
                        let json = vplot_delta_json(&delta, fig.viewcl, stop);
                        let encoded =
                            vplot_delta_json(&Json::of(&delta), &Json::of(fig.viewcl), stop);
                        let want = VCommand::VplotDelta {
                            source: fig.viewcl.to_string(),
                            seq: stop,
                            delta,
                        }
                        .to_json();
                        assert!(
                            json == want,
                            "vplot_delta_json differs from VCommand::to_json"
                        );
                        assert!(
                            encoded == want,
                            "vplot_delta_json of the encoded step differs from VCommand::to_json"
                        );
                    }
                }
                last = graphs;
            }
        }
    }
}
