//! Malformed-frame fuzzing of the framing layer: whatever bytes arrive
//! — truncated length prefixes, oversized declared lengths, mid-frame
//! closes, garbage, version-skewed handshakes — the decoder must answer
//! with a *positioned* [`FrameError`], never a panic, never a hang, and
//! must never mis-frame a valid stream no matter how it is chunked.

use proptest::prelude::*;
use visualinux::proto::{VCommand, VResponse, VERSION};
use vserve::framing::{
    accept_frame, hello_frame, negotiate_server, parse_hello, parse_verdict, reject_frame,
    BinaryFraming, DecodeBuf, FrameError, MAX_FRAME,
};
use vserve::{byte_pair, Io, ServeConfig, Server, SingleSession, WireClient, WireConfig, WirePump};

/// JSON-ish payloads, including empty ones, newlines and multi-byte
/// UTF-8: a length prefix carries any payload.
fn payload_strategy() -> BoxedStrategy<String> {
    prop_oneof![
        Just(String::new()),
        Just("{\"command\":\"vack\",\"source\":\"s\",\"seq\":1}".to_string()),
        (0usize..64).prop_map(|n| "x".repeat(n)),
        (1usize..8).prop_map(|n| "héllo→🜃".repeat(n)),
        (0usize..8).prop_map(|n| "line\n\r\n".repeat(n)),
        (0u64..u64::MAX).prop_map(|n| format!("{{\"seq\":{n}}}")),
    ]
    .boxed()
}

/// Drain `buf`, bounding the iteration count so a decoder that stops
/// making progress fails the test instead of hanging it.
fn drain(buf: &mut DecodeBuf, out: &mut Vec<String>) -> Result<(), FrameError> {
    for _ in 0..100_000 {
        match BinaryFraming.decode(buf)? {
            Some(p) => out.push(p),
            None => return Ok(()),
        }
    }
    panic!("decoder made no terminal progress over {} bytes", buf.len());
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64 })]

    // Valid streams decode to exactly the encoded payloads, however
    // the bytes are chunked on arrival.
    #[test]
    fn round_trip_survives_arbitrary_chunking(
        payloads in proptest::collection::vec(payload_strategy(), 0..12),
        chunk in 1usize..97,
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            BinaryFraming.encode(p, &mut wire);
        }
        let mut buf = DecodeBuf::new();
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            buf.extend(piece);
            if let Err(e) = drain(&mut buf, &mut got) {
                return Err(TestCaseError::Fail(e.to_string()));
            }
        }
        if BinaryFraming.finish(&buf).is_err() {
            return Err(TestCaseError::Fail("dirty finish".into()));
        }
        prop_assert_eq!(got, payloads);
    }

    // Cutting a valid stream anywhere yields a prefix of the payloads
    // and either a clean finish (cut on a frame boundary) or a
    // positioned truncation — never a panic, never a wrong payload.
    #[test]
    fn mid_frame_close_truncates_with_position(
        payloads in proptest::collection::vec(payload_strategy(), 1..8),
        cut_seed in 0usize..10_000,
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            BinaryFraming.encode(p, &mut wire);
        }
        let cut = cut_seed % (wire.len() + 1);
        let mut buf = DecodeBuf::new();
        buf.extend(&wire[..cut]);
        let mut got = Vec::new();
        if drain(&mut buf, &mut got).is_err() {
            // A cut cannot invent garbage in a valid prefix.
            return Err(TestCaseError::Fail("decode error on prefix".into()));
        }
        prop_assert!(got.len() <= payloads.len());
        prop_assert_eq!(&got[..], &payloads[..got.len()]);
        match BinaryFraming.finish(&buf) {
            Ok(()) => prop_assert!(buf.is_empty()),
            Err(FrameError::Truncated { at, have, .. }) => {
                prop_assert!(have > 0);
                // The truncation points inside the bytes that arrived.
                prop_assert!((at as usize) < cut);
            }
            Err(e) => return Err(TestCaseError::Fail(e.to_string())),
        }
    }

    // Any declared length over the 64 MiB cap is an `Oversize` at the
    // prefix's stream offset, regardless of preceding valid frames, and
    // before any of the declared payload is buffered.
    #[test]
    fn oversized_declared_lengths_are_positioned(
        preamble in proptest::collection::vec(payload_strategy(), 0..4),
        excess in 1u64..=(u32::MAX as u64 - MAX_FRAME as u64),
    ) {
        let mut wire = Vec::new();
        for p in &preamble {
            BinaryFraming.encode(p, &mut wire);
        }
        let at = wire.len() as u64;
        let max = MAX_FRAME as u64;
        let declared = max + excess;
        wire.extend_from_slice(&(declared as u32).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut buf = DecodeBuf::new();
        buf.extend(&wire);
        let mut got = Vec::new();
        let err = match drain(&mut buf, &mut got) {
            Err(e) => e,
            Ok(()) => return Err(TestCaseError::Fail("oversize accepted".into())),
        };
        prop_assert_eq!(&got, &preamble);
        prop_assert_eq!(err, FrameError::Oversize { at, declared, max });
    }

    // Arbitrary garbage never panics or hangs the decoder: every byte
    // sequence terminates in frames, "need more", or a positioned error.
    #[test]
    fn arbitrary_bytes_never_panic_or_hang(
        bytes in proptest::collection::vec(0u8..=255, 0..512),
        chunk in 1usize..64,
    ) {
        let mut buf = DecodeBuf::new();
        let mut got = Vec::new();
        let mut failed = None;
        for piece in bytes.chunks(chunk) {
            buf.extend(piece);
            if let Err(e) = drain(&mut buf, &mut got) {
                failed = Some(e);
                break;
            }
        }
        let fin = failed.map(Err).unwrap_or_else(|| BinaryFraming.finish(&buf));
        if let Err(e) = fin {
            // Positioned within the bytes that actually arrived.
            let at = match &e {
                FrameError::Oversize { at, .. }
                | FrameError::Garbage { at, .. }
                | FrameError::Truncated { at, .. } => *at,
                FrameError::VersionSkew { .. } => {
                    return Err(TestCaseError::Fail("skew without a handshake".into()))
                }
            };
            prop_assert!((at as usize) <= bytes.len());
            prop_assert!(!e.to_string().is_empty());
        }
    }

    // Every non-matching announced version is rejected with a skew
    // naming both versions, on both ends of the handshake.
    #[test]
    fn version_skew_is_loud_on_both_ends(theirs in 0u16..u16::MAX) {
        if theirs == VERSION {
            return Err(TestCaseError::Reject("not a skew".into()));
        }
        let (err, reject) = match negotiate_server(theirs) {
            Err(both) => both,
            Ok(_) => return Err(TestCaseError::Fail(format!("v{theirs} accepted"))),
        };
        let msg = err.to_string();
        prop_assert!(msg.contains(&format!("v{VERSION}")));
        prop_assert!(msg.contains(&format!("v{theirs}")));
        // The client decodes the reject frame into the mirrored skew.
        let mut buf = DecodeBuf::new();
        buf.extend(&reject);
        let err = match parse_verdict(&mut buf, theirs) {
            Err(e) => e,
            other => return Err(TestCaseError::Fail(format!("verdict: {other:?}"))),
        };
        prop_assert_eq!(err, FrameError::VersionSkew { ours: theirs, theirs: VERSION });
    }

    // A hello chunked at any boundary parses incrementally; corrupting
    // any single byte of its magic is positioned garbage that names the
    // hello and the version.
    #[test]
    fn hello_frames_parse_incrementally_and_reject_bad_magic(
        split in 0usize..8,
        at_byte in 0usize..4,
    ) {
        let hello = hello_frame(VERSION);
        let mut buf = DecodeBuf::new();
        buf.extend(&hello[..split]);
        match parse_hello(&mut buf) {
            Ok(None) => {}
            other => return Err(TestCaseError::Fail(format!("partial hello: {other:?}"))),
        }
        buf.extend(&hello[split..]);
        prop_assert_eq!(parse_hello(&mut buf), Ok(Some(VERSION)));

        let mut bad = hello;
        bad[at_byte] ^= 0x20;
        let mut buf = DecodeBuf::new();
        buf.extend(&bad);
        match parse_hello(&mut buf) {
            Err(FrameError::Garbage { at: 0, what }) => {
                prop_assert!(what.contains("VWHI hello"), "{}", what);
                prop_assert!(what.contains(&format!("v{VERSION}")), "{}", what);
            }
            other => return Err(TestCaseError::Fail(format!("bad magic: {other:?}"))),
        }
    }
}

/// A scripted server that answers the hello with arbitrary bytes: the
/// blocking client must error (positioned, both-versions-named for
/// skew) — never hang — for every verdict shape.
#[test]
fn client_handshake_survives_hostile_verdicts() {
    let hostile: Vec<(Vec<u8>, &str)> = vec![
        (reject_frame(7, VERSION).to_vec(), "version skew"),
        (accept_frame(VERSION + 1).to_vec(), "version skew"),
        (b"XXXXXXXX".to_vec(), "verdict frame"),
        (b"VWOK".to_vec(), "closed during the wire handshake"),
        (Vec::new(), "closed during the wire handshake"),
    ];
    for (verdict, want) in hostile {
        let (client_io, mut server_io) = byte_pair(16);
        let server = std::thread::spawn(move || {
            // Read (and discard) the hello, then send the scripted bytes
            // and close.
            let mut seen = 0usize;
            let mut chunk = [0u8; 64];
            while seen < 8 {
                match server_io.read(&mut chunk) {
                    Ok(0) => break,
                    Ok(n) => seen += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::yield_now()
                    }
                    Err(e) => panic!("{e}"),
                }
            }
            let mut done = 0;
            while done < verdict.len() {
                match server_io.write(&verdict[done..]) {
                    Ok(n) => done += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::yield_now()
                    }
                    Err(e) => panic!("{e}"),
                }
            }
        });
        let err = WireClient::binary(Box::new(client_io))
            .err()
            .unwrap_or_else(|| panic!("handshake accepted {want:?}"));
        let msg = err.to_string();
        assert!(msg.contains(want), "verdict {want:?}: got {msg}");
        server.join().unwrap();
    }
}

/// Hostile JSON and ViewCL at the engine boundary, over the binary
/// wire: a frame nested far past the JSON parser's depth limit, a
/// multi-megabyte type-mismatched field, program text nested far past
/// the ViewCL and C-expression parsers' depth limits, a multi-megabyte
/// malformed C expression, and a pushed graph whose only box links to a
/// box it does not have each earn a small error reply — no stack
/// overflow, no error that echoes the payload, no graph that would
/// panic a later `REACHABLE` — and the engine keeps answering a sibling
/// connection.
#[test]
fn hostile_json_earns_small_errors_and_siblings_stay_served() {
    let (tx, rx) = std::sync::mpsc::channel();
    let engine = std::thread::spawn(move || {
        let session = visualinux::Session::builder(ksim::workload::build(
            &ksim::workload::WorkloadConfig::default(),
        ))
        .profile(vbridge::LatencyProfile::free())
        .attach()
        .unwrap();
        let mut server = Server::new(
            session,
            ServeConfig {
                exit_when_idle: false,
                ..ServeConfig::default()
            },
        );
        tx.send(server.handle()).unwrap();
        server.run();
        server.stats()
    });
    let handle = rx.recv().unwrap();
    let pump = WirePump::new(
        Box::new(SingleSession::new(handle.clone())),
        WireConfig::default(),
    );
    let ph = pump.handle();
    let pump_thread = std::thread::spawn(move || pump.run());
    let connect = || {
        let (client_io, srv_io) = byte_pair(64);
        ph.add(Box::new(srv_io)).unwrap();
        WireClient::binary(Box::new(client_io)).unwrap()
    };
    let mut hostile = connect();
    let mut sibling = connect();

    let head = "{\"command\":\"vplot_request\",\"viewcl\":";
    // 20 KB: 10,000 nested arrays. The command object is level 1, so
    // the 128th `[` opens level 129, one past the limit.
    let deep = format!("{head}{}{}}}", "[".repeat(10_000), "]".repeat(10_000));
    let too_deep_at = head.len() + 127;
    // 2 MB: a number array where the source string belongs.
    let wide = format!("{head}[{}1]}}", "1,".repeat(1 << 20));
    let plot = |viewcl: String| VCommand::VplotRequest { viewcl }.to_json();
    // 20 KB: one `${…}` in 10,000 parentheses. The expression is level
    // 1, so level 129 starts inside the 128th `(`, at byte 128.
    let parens = plot(format!(
        "x = ${{{}1{}}}\nplot @x",
        "(".repeat(10_000),
        ")".repeat(10_000)
    ));
    // 270 KB: 10,000 nested switch arms. The 128th switch's scrutinee
    // opens level 129.
    let arm = "switch ${1} { case ${1}: ";
    let switches = plot(format!(
        "x = {}${{1}}{}\nplot @x",
        arm.repeat(10_000),
        " }".repeat(10_000)
    ));
    let too_deep_arm = "x = ".len() + 127 * arm.len() + "switch ".len();
    // 2 MB: one malformed C expression.
    let malformed = plot(format!("x = ${{{} $}}\nplot @x", "x".repeat(2 << 20)));
    // ~400 B: a pushed graph whose one box links to box 99.
    let mut graph = vgraph::Graph::new();
    let (task, _) = graph.intern(0x1000, "Task", "task_struct", 64);
    graph.get_mut(task).views.push(vgraph::ViewInst {
        name: "default".into(),
        items: vec![vgraph::Item::Link {
            name: "next".into(),
            target: vgraph::BoxId(99),
        }],
    });
    graph.roots.push(task);
    let dangling = VCommand::Vplot {
        graph,
        source: String::new(),
    }
    .to_json();
    let cases = [
        (
            "10,000-deep",
            deep,
            format!("recursion limit exceeded at byte {too_deep_at}"),
        ),
        (
            "2 MB mismatch",
            wide,
            "viewcl: expected string, got array".to_string(),
        ),
        (
            "10,000 parentheses",
            parens,
            "at byte 128: nesting deeper than 128 levels".to_string(),
        ),
        (
            "10,000 switch arms",
            switches,
            format!("at byte {too_deep_arm} (line 1): nesting deeper than 128 levels"),
        ),
        (
            "2 MB malformed expression",
            malformed,
            format!("at byte {}: unexpected character `$`", (2 << 20) + 1),
        ),
        (
            "a link to a missing box",
            dangling,
            "box 0, item `next`: no box 99 in a graph of 1".to_string(),
        ),
    ];
    let fig = visualinux::figures::by_id("fig3-4").unwrap();
    let request = VCommand::VplotRequest {
        viewcl: fig.viewcl.to_string(),
    };
    for (what, frame, want) in cases {
        hostile.send_payload(&frame).unwrap();
        let reply = hostile.recv().unwrap().expect("the engine answers");
        assert!(reply.len() < 1024, "{what}: {} B error reply", reply.len());
        match VResponse::from_json(&reply) {
            Ok(VResponse::Err { message }) => {
                assert!(message.contains(&want), "{what}: {message}")
            }
            other => panic!("{what}: expected an error reply, got {other:?}"),
        }
        sibling.send(&request).unwrap();
        let plot = sibling.recv().unwrap();
        let plot = plot.expect("the sibling is still served");
        assert!(
            plot.starts_with("{\"command\":\"vplot"),
            "{what}: sibling got {plot:.80}"
        );
    }

    drop(hostile);
    drop(sibling);
    handle.shutdown();
    let stats = engine.join().unwrap();
    ph.shutdown();
    let wire = pump_thread.join().unwrap();
    wire.reconcile().expect("wire books balance");
    stats.reconcile().expect("engine books balance");
    assert_eq!((stats.requests, stats.errors), (12, 6), "{stats:?}");
}

/// Frames whose cost is in values the engine has no use for, over the
/// binary wire: a pushed graph whose one `attrs.extra` value is a
/// 400,000-key object, an ack carrying an unknown 40,000-key object and
/// one carrying an unknown 8M-element array, a program with a
/// three-byte character where a token belongs, and a 2 MB malformed
/// number where the program belongs. Each earns a reply under 256 bytes
/// within a second (the 16 MB array within four: a debug build checks
/// it byte by byte on its way through the in-process wire), and a
/// sibling connection stays served.
#[test]
fn wide_values_are_answered_in_time_and_siblings_stay_served() {
    let (tx, rx) = std::sync::mpsc::channel();
    let engine = std::thread::spawn(move || {
        let session = visualinux::Session::builder(ksim::workload::build(
            &ksim::workload::WorkloadConfig::default(),
        ))
        .profile(vbridge::LatencyProfile::free())
        .attach()
        .unwrap();
        let mut server = Server::new(
            session,
            ServeConfig {
                exit_when_idle: false,
                ..ServeConfig::default()
            },
        );
        tx.send(server.handle()).unwrap();
        server.run();
        server.stats()
    });
    let handle = rx.recv().unwrap();
    let pump = WirePump::new(
        Box::new(SingleSession::new(handle.clone())),
        WireConfig::default(),
    );
    let ph = pump.handle();
    let pump_thread = std::thread::spawn(move || pump.run());
    let connect = || {
        let (client_io, srv_io) = byte_pair(64);
        ph.add(Box::new(srv_io)).unwrap();
        WireClient::binary(Box::new(client_io)).unwrap()
    };
    let mut hostile = connect();
    let mut sibling = connect();

    let object = |keys: usize| {
        let members: Vec<String> = (0..keys).map(|i| format!("\"{i}\":0")).collect();
        format!("{{{}}}", members.join(","))
    };
    let mut graph = vgraph::Graph::new();
    let (task, _) = graph.intern(0x1000, "Task", "task_struct", 64);
    graph
        .get_mut(task)
        .attrs
        .set("wide", serde_json::Value::Null);
    graph.roots.push(task);
    let push = VCommand::Vplot {
        graph,
        source: String::new(),
    }
    .to_json()
    .replace("\"wide\":null", &format!("\"wide\":{}", object(400_000)));
    let ack = |junk: String| {
        format!("{{\"command\":\"vack\",\"source\":\"s\",\"seq\":1,\"junk\":{junk}}}")
    };
    // The error quotes the first 64 bytes of the number.
    let number_error = format!("bad number `{}…` at byte 36", "1.".repeat(32));
    let cases = [
        ("a 400,000-key extra value", push, None, 1.0),
        (
            "an unknown 40,000-key object",
            ack(object(40_000)),
            Some("ack for unknown plot `s`"),
            1.0,
        ),
        (
            "an unknown 8M-element array",
            ack(format!("[{}0]", "0,".repeat(8 << 20))),
            Some("ack for unknown plot `s`"),
            4.0,
        ),
        (
            "a three-byte character",
            VCommand::VplotRequest {
                viewcl: "x = ☃".into(),
            }
            .to_json(),
            Some("at byte 4 (line 1): unexpected character `☃`"),
            1.0,
        ),
        (
            "a 2 MB malformed number",
            format!(
                "{{\"command\":\"vplot_request\",\"viewcl\":{}1}}",
                "1.".repeat(1 << 20)
            ),
            Some(number_error.as_str()),
            1.0,
        ),
    ];
    let fig = visualinux::figures::by_id("fig3-4").unwrap();
    let request = VCommand::VplotRequest {
        viewcl: fig.viewcl.to_string(),
    };
    for (what, frame, want, seconds) in cases {
        let sent = std::time::Instant::now();
        hostile.send_payload(&frame).unwrap();
        let reply = hostile.recv().unwrap().expect("the engine answers");
        let took = sent.elapsed();
        assert!(took.as_secs_f64() < seconds, "{what}: answered in {took:?}");
        assert!(reply.len() < 256, "{what}: {} B reply", reply.len());
        match (VResponse::from_json(&reply), want) {
            (Ok(VResponse::Ok { .. }), None) => {}
            (Ok(VResponse::Err { message }), Some(want)) => {
                assert!(message.contains(want), "{what}: {message}")
            }
            (other, _) => panic!("{what}: unexpected reply {other:?}"),
        }
        sibling.send(&request).unwrap();
        let plot = sibling
            .recv()
            .unwrap()
            .expect("the sibling is still served");
        assert!(
            plot.starts_with("{\"command\":\"vplot"),
            "{what}: sibling got {plot:.80}"
        );
    }

    drop(hostile);
    drop(sibling);
    handle.shutdown();
    let stats = engine.join().unwrap();
    ph.shutdown();
    pump_thread
        .join()
        .unwrap()
        .reconcile()
        .expect("wire books balance");
    stats.reconcile().expect("engine books balance");
}

/// Every helper the session registers (`visualinux::helpers`), called
/// from one `vplot_request` each with the extreme integers 0, -1,
/// `i64::MIN`, `i64::MAX` and `u64::MAX` in every integer argument: the
/// engine answers each with a plot whose text shows the helper's value
/// or its error, or with an error reply, and never panics, even where a
/// debug build checks its arithmetic; a sibling connection stays served
/// after each.
#[test]
fn every_helper_survives_extreme_arguments_and_siblings_stay_served() {
    let (tx, rx) = std::sync::mpsc::channel();
    let engine = std::thread::spawn(move || {
        let session = visualinux::Session::builder(ksim::workload::build(
            &ksim::workload::WorkloadConfig::default(),
        ))
        .profile(vbridge::LatencyProfile::free())
        .attach()
        .unwrap();
        let mut server = Server::new(
            session,
            ServeConfig {
                exit_when_idle: false,
                ..ServeConfig::default()
            },
        );
        tx.send(server.handle()).unwrap();
        server.run();
        server.stats()
    });
    let handle = rx.recv().unwrap();
    let pump = WirePump::new(
        Box::new(SingleSession::new(handle.clone())),
        WireConfig::default(),
    );
    let ph = pump.handle();
    let pump_thread = std::thread::spawn(move || pump.run());
    let connect = || {
        let (client_io, srv_io) = byte_pair(64);
        ph.add(Box::new(srv_io)).unwrap();
        WireClient::binary(Box::new(client_io)).unwrap()
    };
    let mut hostile = connect();
    let mut sibling = connect();

    // Each helper and its arguments; `{}` is the extreme integer.
    let helpers = [
        ("cpu_rq", "{}"),
        ("task_state", "{}"),
        ("mte_to_node", "{}"),
        ("mte_node_type", "{}"),
        ("mte_is_leaf", "{}"),
        ("xa_is_node", "{}"),
        ("ma_slot_check", "{}"),
        ("mt_node_max", "{}"),
        ("mte_parent", "{}"),
        ("per_cpu_ptr", "{}, {}, {}"),
        ("timer_base_of", "{}"),
        ("rcu_data_of", "{}"),
        ("xa_to_node", "{}"),
        ("find_vma", "{}, {}"),
        ("fname_eq", "{}, \"x\""),
        ("zone_of", "{}, {}"),
        ("pfn_of_page", "{}"),
        ("i_mapping_of", "{}"),
        ("sem_base", "{}"),
        ("ntohs", "{}"),
        ("ip4_str", "{}"),
    ];
    let registry = visualinux::helpers::registry();
    let mut registered: Vec<&str> = registry.names().collect();
    let mut cased: Vec<&str> = helpers.iter().map(|(name, _)| *name).collect();
    registered.sort_unstable();
    cased.sort_unstable();
    assert_eq!(cased, registered, "a case per registered helper");
    let extremes = [
        "0",
        "-1",
        "(-9223372036854775807 - 1)",
        "0x7fffffffffffffff",
        "0xffffffffffffffff",
    ];
    let fig = visualinux::figures::by_id("fig3-4").unwrap();
    let request = VCommand::VplotRequest {
        viewcl: fig.viewcl.to_string(),
    };
    let mut errors = 0;
    for (helper, args) in helpers {
        let texts: Vec<String> = extremes
            .iter()
            .enumerate()
            .map(|(i, x)| format!("    Text v{i}: ${{{helper}({})}}\n", args.replace("{}", x)))
            .collect();
        let viewcl = format!("x = Box Probe [\n{}]\nplot @x\n", texts.concat());
        hostile.send(&VCommand::VplotRequest { viewcl }).unwrap();
        let reply = hostile.recv().unwrap().expect("the engine answers");
        match VCommand::from_json(&reply) {
            Ok(VCommand::Vplot { graph, .. }) => {
                let probe = graph.get(graph.roots[0]);
                let items = &probe.views[0].items;
                assert_eq!(items.len(), extremes.len(), "{helper}");
                for item in items {
                    match item {
                        vgraph::Item::Text { value, .. } => {
                            errors += usize::from(value.starts_with("<error"))
                        }
                        other => panic!("{helper}: {other:?}"),
                    }
                }
            }
            _ => match VResponse::from_json(&reply) {
                Ok(VResponse::Err { .. }) => errors += extremes.len(),
                other => panic!("{helper}: unexpected reply {other:?}"),
            },
        }
        sibling.send(&request).unwrap();
        let plot = sibling
            .recv()
            .unwrap()
            .expect("the sibling is still served");
        assert!(
            plot.starts_with("{\"command\":\"vplot"),
            "{helper}: sibling got {plot:.80}"
        );
    }
    // 45 of the 105 calls name a CPU, an address or an object the
    // image does not hold, or overflow an address sum; the others
    // compute a value (`ntohs`, the maple tree's bit helpers, …).
    assert_eq!(errors, 45, "errors of 105 calls");

    drop(hostile);
    drop(sibling);
    handle.shutdown();
    let stats = engine.join().unwrap();
    ph.shutdown();
    pump_thread
        .join()
        .unwrap()
        .reconcile()
        .expect("wire books balance");
    stats.reconcile().expect("engine books balance");
    assert_eq!(stats.requests, 42, "{stats:?}");
}
