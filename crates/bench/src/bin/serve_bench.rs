//! `serve_bench` — throughput of the concurrent pane server (vserve)
//! and the session fleet (vfleet).
//!
//! Default mode: N clients (default 4) hammer one shared server with the
//! full figure corpus across several stop events: round 0 ships full
//! plots, later rounds exercise delta sync. Real wall-clock, per latency
//! profile (the profiles only shape virtual time, but they also shape
//! payload mix via identical graphs — both are reported).
//!
//! Fleet mode (`--fleet`): the corpus is recorded once into a `.vrec`
//! capture, then served twice — by a single-engine fleet (baseline) and
//! by an N-engine fleet of identical replay sessions in one share
//! group. Because identical captures share walks (and tape spans, and
//! generation steps), aggregate throughput must scale ≥ 2x over the
//! baseline; the run exits non-zero otherwise (the CI regression gate).
//! Fleet runs use their own per-engine client count
//! (`--fleet-clients`, default 2): the load generators share this
//! machine with the engines, so piling on clients measures scheduler
//! contention, not engine scaling. They also step their own number of
//! stops unless `--stops` is given ([`FLEET_STOPS`]): at the default
//! mode's 3 stops each side lasts 20–35 ms, too short for the ratio of
//! two throughputs to settle on a shared host.
//!
//! Soak mode (`--soak`): 256 binary-framed wire connections (default;
//! `--soak-clients`) hammer one evented `WirePump` + engine with the
//! figure corpus, without and with a deliberately *stalled* client
//! that queues the whole corpus and never reads a reply, in
//! [`SOAK_PAIRS`] pairs of runs. The pump must cap the zombie's lane
//! (`WireStats::stalled_skips > 0`) and the median run's healthy
//! aggregate req/s with the zombie must stay within 10% of the median
//! zombie-free run's; the soak exits non-zero otherwise (the CI `wire`
//! gate).
//!
//! ```text
//! cargo run -p bench --bin serve_bench              # 4 clients, 3 stops
//! cargo run -p bench --bin serve_bench -- --clients 8 --stops 5
//! cargo run -p bench --bin serve_bench -- --fleet --engines 4 --fleet-clients 2
//! cargo run -p bench --bin serve_bench -- --soak --soak-clients 256
//! ```
//!
//! Emits `BENCH_serve.json` (override with `$BENCH_SERVE_OUT`) with
//! requests/sec, per-request p50/p95 wall-clock latency, the worst
//! single client's p95/max latency, coalesce rate, and
//! delta_bytes_saved per profile — plus, under `--fleet`, the
//! baseline/fleet comparison with aggregate req/s and scaling, and,
//! under `--soak`, the baseline/stalled comparison with per-run
//! `WireStats`. Exits non-zero if any `ServeStats`/`FleetStats` fail
//! to reconcile, or if a fleet/soak gate is missed.

use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Instant;

use bench::TablePrinter;
use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, Capture, LatencyProfile};
use vfleet::{Fleet, FleetConfig, FleetStats};
use visualinux::proto::{VCommand, VERSION};
use visualinux::{figures, Session, SessionSpec};
use vserve::framing::{hello_frame, parse_verdict, BinaryFraming, DecodeBuf};
use vserve::{
    byte_pair, Io, Replica, ServeConfig, ServeStats, Server, ServerHandle, SingleSession,
    WireClient, WireConfig, WirePump, WireStats,
};

/// How much faster an N-engine replay fleet must aggregate over one
/// engine for the run to pass.
const FLEET_SCALING_GATE: f64 = 2.0;

/// Stop events the default mode steps unless `--stops` says otherwise.
const STOPS: usize = 3;

/// Stop events a fleet run steps unless `--stops` says otherwise: each
/// side then serves 8,106 or 32,424 requests, about a second of steady
/// state. At 48 stops one run in eleven still missed the gate.
const FLEET_STOPS: usize = 192;

/// How much healthy aggregate throughput may drop when one stalled
/// client joins the soak (`--soak`) before the run fails.
const SOAK_DEGRADATION_GATE: f64 = 0.10;

/// Requests each healthy soak client makes per run unless
/// `--soak-frames` says otherwise: a run then lasts about half a second.
const SOAK_FRAMES: usize = 200;

/// Runs with and without the stalled client that a soak alternates,
/// each pair in the other order than the pair before. On a shared
/// 2-vCPU host one run's throughput moves by about 8% whether it lasts
/// half a second or two, so one pair's degradation reads anywhere from
/// -20% to +25%; the medians of this many runs per kind agree within a
/// few points, in 35-50 s.
const SOAK_PAIRS: usize = 30;

struct ProfileResult {
    name: &'static str,
    clients: usize,
    stops: usize,
    elapsed_s: f64,
    stats: ServeStats,
    /// Per-plot-request wall-clock latencies, one vector per client.
    per_client_ns: Vec<Vec<u64>>,
}

/// The p-th percentile (nearest-rank) of a sorted latency sample.
fn percentile_ms(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

/// Pooled + per-client-worst-case latency figures from per-client
/// samples. Pooled percentiles hide a single starved client; the worst
/// client's own p95/max is what that client actually experienced.
struct Latencies {
    p50_ms: f64,
    p95_ms: f64,
    worst_client_p95_ms: f64,
    worst_client_max_ms: f64,
}

fn latencies(per_client_ns: &[Vec<u64>]) -> Latencies {
    let mut pooled: Vec<u64> = per_client_ns.iter().flatten().copied().collect();
    pooled.sort_unstable();
    let mut worst_p95 = 0.0f64;
    let mut worst_max = 0.0f64;
    for client in per_client_ns {
        let mut sorted = client.clone();
        sorted.sort_unstable();
        worst_p95 = worst_p95.max(percentile_ms(&sorted, 95.0));
        worst_max = worst_max.max(percentile_ms(&sorted, 100.0));
    }
    Latencies {
        p50_ms: percentile_ms(&pooled, 50.0),
        p95_ms: percentile_ms(&pooled, 95.0),
        worst_client_p95_ms: worst_p95,
        worst_client_max_ms: worst_max,
    }
}

/// One profile's row in `BENCH_serve.json`.
#[derive(serde::Serialize)]
struct ProfileDoc {
    profile: &'static str,
    clients: usize,
    stops: usize,
    elapsed_s: f64,
    requests: u64,
    requests_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    worst_client_p95_ms: f64,
    worst_client_max_ms: f64,
    coalesce_rate: f64,
    delta_bytes_saved: u64,
    stats: ServeStats,
}

/// One fleet run (baseline or N engines) in `BENCH_serve.json`.
#[derive(serde::Serialize)]
struct FleetRunDoc {
    engines: usize,
    clients_per_engine: usize,
    requests: u64,
    elapsed_s: f64,
    requests_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    worst_client_p95_ms: f64,
    worst_client_max_ms: f64,
    stats: FleetStats,
}

/// The `--fleet` comparison in `BENCH_serve.json`.
#[derive(serde::Serialize)]
struct FleetDoc {
    stops: usize,
    baseline: FleetRunDoc,
    fleet: FleetRunDoc,
    /// fleet req/s over baseline req/s.
    scaling: f64,
    scaling_gate: f64,
}

/// One soak run (with or without the stalled client) in
/// `BENCH_serve.json`.
#[derive(serde::Serialize)]
struct SoakRunDoc {
    healthy_clients: usize,
    stalled_clients: usize,
    requests: u64,
    elapsed_s: f64,
    requests_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    worst_client_p95_ms: f64,
    worst_client_max_ms: f64,
    wire: WireStats,
}

/// The `--soak` comparison in `BENCH_serve.json`: the median run of
/// each kind.
#[derive(serde::Serialize)]
struct SoakDoc {
    frames_per_client: usize,
    runs_per_kind: usize,
    baseline: SoakRunDoc,
    stalled: SoakRunDoc,
    /// Fractional healthy-throughput drop with the stalled client in.
    degradation: f64,
    degradation_gate: f64,
}

/// The whole `BENCH_serve.json` document.
#[derive(serde::Serialize)]
struct BenchDoc {
    bench: &'static str,
    clients: usize,
    stops: usize,
    figures: usize,
    profiles: Vec<ProfileDoc>,
    #[serde(skip_serializing_if = "Option::is_none")]
    fleet: Option<FleetDoc>,
    #[serde(skip_serializing_if = "Option::is_none")]
    soak: Option<SoakDoc>,
}

fn run_profile(
    name: &'static str,
    profile: LatencyProfile,
    clients: usize,
    stops: usize,
) -> ProfileResult {
    let figs = Arc::new(figures::all());
    let (_, _, roots) = build(&WorkloadConfig::default()).finish();

    let (tx, rx) = mpsc::channel();
    let engine = thread::spawn(move || {
        let session = Session::builder(build(&WorkloadConfig::default()))
            .profile(profile)
            .cache(CacheConfig::default())
            .attach()
            .unwrap();
        let mut server = Server::new(session, ServeConfig::default());
        tx.send(server.handle()).unwrap();
        server.run();
        server.stats()
    });
    let handle: ServerHandle = rx.recv().unwrap();

    // Connect everyone up front so the idle-exit engine outlives the
    // fastest client, then rendezvous between rounds so stop events are
    // strictly ordered after every client's round-k replies.
    let conns: Vec<_> = (0..clients).map(|_| handle.connect()).collect();
    let barrier = Arc::new(Barrier::new(clients));
    let started = Instant::now();
    let workers: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(i, conn)| {
            let figs = figs.clone();
            let barrier = barrier.clone();
            let handle = handle.clone();
            let roots = roots.clone();
            thread::spawn(move || {
                let mut replica = Replica::new();
                let mut latencies_ns = Vec::new();
                for round in 0..=stops as u64 {
                    for fig in figs.iter() {
                        let sent = Instant::now();
                        conn.send(&VCommand::VplotRequest {
                            viewcl: fig.viewcl.to_string(),
                        })
                        .expect("send");
                        let line = conn.recv().expect("reply");
                        latencies_ns.push(sent.elapsed().as_nanos() as u64);
                        replica.apply_line(&line).expect("apply");
                        if let Some(ack) = replica.ack(fig.viewcl) {
                            conn.send(&ack).expect("ack");
                            conn.recv().expect("ack reply");
                        }
                    }
                    barrier.wait();
                    if round < stops as u64 {
                        if i == 0 {
                            let roots = roots.clone();
                            handle
                                .stop_event(move |img| {
                                    ksim::tick::tick(img, &roots, round + 1);
                                })
                                .expect("stop event");
                        }
                        barrier.wait();
                    }
                }
                conn.close();
                latencies_ns
            })
        })
        .collect();
    let per_client_ns: Vec<Vec<u64>> = workers
        .into_iter()
        .map(|w| w.join().expect("client"))
        .collect();
    let elapsed_s = started.elapsed().as_secs_f64();
    let stats = engine.join().expect("engine");
    ProfileResult {
        name,
        clients,
        stops,
        elapsed_s,
        stats,
        per_client_ns,
    }
}

/// Record the full corpus x (stops + 1) generations into an in-memory
/// capture, in the exact order fleet clients will request it. Recorded
/// without the snapshot cache: every read goes to the tape, so replay
/// walks carry their full weight — the cost the share group exists to
/// eliminate.
fn record_corpus(stops: usize) -> Capture {
    let mut s = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::kgdb_rpi400())
        .record("serve_bench.vrec")
        .attach()
        .expect("record session");
    for round in 0..=stops as u64 {
        if round > 0 {
            let roots = s.roots.clone();
            s.stop_event(|img| {
                ksim::tick::tick(img, &roots, round);
            })
            .expect("live stop");
        }
        for fig in figures::all() {
            s.extract(fig.viewcl).expect("record extract");
        }
    }
    s.capture().expect("capture")
}

struct FleetRunResult {
    engines: usize,
    clients_per_engine: usize,
    elapsed_s: f64,
    stats: FleetStats,
    per_client_ns: Vec<Vec<u64>>,
}

/// Serve the recorded corpus from `engines` identical replay sessions,
/// `clients_per_engine` clients each, with lock-step rounds and fleet
/// ticks between them.
fn run_fleet(
    cap: &Capture,
    engines: usize,
    clients_per_engine: usize,
    stops: usize,
) -> FleetRunResult {
    let figs = Arc::new(figures::all());
    // Clients pipeline a whole round before draining replies, so the
    // queues must hold one full corpus per client — otherwise a client
    // blocked mid-batch and an engine blocked on that client's full
    // outbox would starve each other.
    let fleet = Arc::new(Fleet::new(FleetConfig {
        max_resident: engines,
        serve: ServeConfig {
            request_queue: clients_per_engine * figs.len() + 8,
            client_queue: figs.len() + 8,
            ..ServeConfig::default()
        },
    }));
    for e in 0..engines {
        fleet
            .add_session(&format!("replay-{e}"), SessionSpec::replay(cap.clone()))
            .expect("register");
    }
    let conns: Vec<_> = (0..engines)
        .flat_map(|e| {
            let fleet = &fleet;
            (0..clients_per_engine)
                .map(move |_| fleet.connect(&format!("replay-{e}")).expect("connect"))
        })
        .collect();

    let total = conns.len();
    let barrier = Arc::new(Barrier::new(total));
    let started = Instant::now();
    let workers: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(i, conn)| {
            let figs = figs.clone();
            let barrier = barrier.clone();
            let fleet = fleet.clone();
            thread::spawn(move || {
                // Lightweight load generator: receive the payload bytes
                // but skip the client-side replica apply — the fleet
                // runs measure serving throughput, and parsing on the
                // load-generator thread would serialize with the engines
                // on this machine. Each round is pipelined (batch-send,
                // then drain): a synchronous round trip per request
                // would measure scheduler ping-pong, not serving.
                let mut latencies_ns = Vec::new();
                for round in 0..=stops as u64 {
                    let mut sent_at = Vec::with_capacity(figs.len());
                    for fig in figs.iter() {
                        sent_at.push(Instant::now());
                        conn.send(&VCommand::VplotRequest {
                            viewcl: fig.viewcl.to_string(),
                        })
                        .expect("send");
                    }
                    for sent in sent_at {
                        let line = conn.recv().expect("reply");
                        latencies_ns.push(sent.elapsed().as_nanos() as u64);
                        assert!(
                            line.starts_with("{\"command\":\"vplot"),
                            "unexpected reply: {line}"
                        );
                    }
                    barrier.wait();
                    if round < stops as u64 {
                        if i == 0 {
                            fleet.tick_all(round + 1).expect("tick");
                        }
                        barrier.wait();
                    }
                }
                drop(conn);
                latencies_ns
            })
        })
        .collect();
    let per_client_ns: Vec<Vec<u64>> = workers
        .into_iter()
        .map(|w| w.join().expect("client"))
        .collect();
    let elapsed_s = started.elapsed().as_secs_f64();
    let stats = fleet.shutdown();
    FleetRunResult {
        engines,
        clients_per_engine,
        elapsed_s,
        stats,
        per_client_ns,
    }
}

struct SoakRunResult {
    healthy: usize,
    stalled: usize,
    requests: u64,
    elapsed_s: f64,
    per_client_ns: Vec<Vec<u64>>,
    wire: WireStats,
    stats: ServeStats,
}

/// Soak the evented wire pump: `healthy` binary-framed clients each
/// walk the figure corpus `frames + 1` requests deep, synchronously,
/// while `stalled` extra clients queue the whole corpus several times
/// over and then never read a byte of their replies. The pump must cap
/// each stalled lane (a few buffered chunks, then `outbuf_limit`, then
/// admission control) and keep round-robining the healthy lanes —
/// aggregate healthy throughput is the measure.
fn run_soak(healthy: usize, stalled: usize, frames: usize) -> SoakRunResult {
    let viewcls: Vec<String> = figures::all()
        .iter()
        .map(|f| f.viewcl.to_string())
        .collect();
    let (tx, rx) = mpsc::channel();
    let engine = thread::spawn(move || {
        let session = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::free())
            .cache(CacheConfig::default())
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
    let handle: ServerHandle = rx.recv().unwrap();
    let pump = WirePump::new(
        Box::new(SingleSession::new(handle.clone())),
        WireConfig {
            // Low enough that a stalled client's plot replies (one
            // corpus of full plots is ~225 KiB) hit the cap — the stall
            // path proper, not just admission control.
            outbuf_limit: 96 << 10,
            ..WireConfig::default()
        },
    );
    let ph = pump.handle();
    let pump_thread = thread::spawn(move || pump.run());

    // Warm the walk memo identically in both runs before the clock
    // starts: the stalled client queues the whole corpus, so without
    // this it would pre-pay the 21 walks only in the stalled run and
    // bias the baseline comparison.
    let warm = handle.connect();
    for viewcl in &viewcls {
        warm.send(&VCommand::VplotRequest {
            viewcl: viewcl.clone(),
        })
        .expect("warmup send");
        warm.recv().expect("warmup reply");
    }
    warm.close();

    // The stalled clients first: a manual binary handshake, then four
    // passes over the whole figure corpus batched into a *single*
    // write, then silence — not one reply byte is ever read. Batching
    // matters: once the lane stalls the pump stops reading it, so a
    // zombie must never again depend on its sends draining. Keep the
    // io handles alive so the lanes stay open (and stalled) all run.
    // The tiny byte channel means a couple of reply chunks fit, then
    // the pump's writes would block, its lane out-buffer fills to the
    // cap, and the stall machinery takes over.
    let zombies: Vec<Box<dyn Io>> = (0..stalled)
        .map(|_| {
            let (mut io, srv_io) = byte_pair(2);
            ph.add(Box::new(srv_io)).expect("pump add");
            let mut done = 0;
            let hello = hello_frame(VERSION);
            while done < hello.len() {
                match io.write(&hello[done..]) {
                    Ok(n) => done += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::yield_now(),
                    Err(e) => panic!("stalled hello: {e}"),
                }
            }
            let mut verdict = DecodeBuf::new();
            let mut chunk = [0u8; 64];
            loop {
                match parse_verdict(&mut verdict, VERSION) {
                    Ok(Some(())) => break,
                    Ok(None) => {}
                    Err(e) => panic!("stalled handshake: {e}"),
                }
                match io.read(&mut chunk) {
                    Ok(0) => panic!("pump closed the stalled lane during handshake"),
                    Ok(n) => verdict.extend(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::yield_now(),
                    Err(e) => panic!("stalled verdict: {e}"),
                }
            }
            let mut bulk = Vec::new();
            for i in 0..4 * viewcls.len() {
                let cmd = VCommand::VplotRequest {
                    viewcl: viewcls[i % viewcls.len()].clone(),
                };
                BinaryFraming.encode(&cmd.to_json(), &mut bulk);
            }
            let mut done = 0;
            while done < bulk.len() {
                match io.write(&bulk[done..]) {
                    Ok(n) => done += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => thread::yield_now(),
                    Err(e) => panic!("stalled bulk send: {e}"),
                }
            }
            Box::new(io) as Box<dyn Io>
        })
        .collect();

    // 256 wire connections do not get 256 OS threads: on a small (even
    // single-core) runner, thread thrash — not the pump — would
    // dominate and starve everything. A few worker threads each
    // multiplex a slice of connections, batch-sending a round and then
    // draining it, so every connection still keeps a request in flight
    // concurrently and the pump still juggles `healthy` live lanes.
    let threads = healthy.min(8);
    // The bench thread joins the rendezvous too, so the clock starts
    // when the last handshake lands, not when the spawn loop ends.
    let barrier = Arc::new(Barrier::new(threads + 1));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let conns = healthy / threads + usize::from(t < healthy % threads);
            let ios: Vec<_> = (0..conns)
                .map(|_| {
                    let (io, srv_io) = byte_pair(64);
                    ph.add(Box::new(srv_io)).expect("pump add");
                    io
                })
                .collect::<Vec<_>>();
            let viewcls = viewcls.clone();
            let barrier = barrier.clone();
            thread::spawn(move || {
                let mut clients: Vec<WireClient> = ios
                    .into_iter()
                    .map(|io| WireClient::binary(Box::new(io)).expect("handshake"))
                    .collect();
                barrier.wait();
                let mut latencies_ns: Vec<Vec<u64>> = vec![Vec::new(); clients.len()];
                for i in 0..=frames {
                    let viewcl = &viewcls[i % viewcls.len()];
                    let round = Instant::now();
                    for c in clients.iter_mut() {
                        c.send(&VCommand::VplotRequest {
                            viewcl: viewcl.clone(),
                        })
                        .expect("send");
                    }
                    for (c, lat) in clients.iter_mut().zip(latencies_ns.iter_mut()) {
                        let reply = c.recv().expect("recv").expect("plot reply");
                        assert!(reply.contains("vplot"), "{reply}");
                        lat.push(round.elapsed().as_nanos() as u64);
                    }
                }
                latencies_ns
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    let per_client_ns: Vec<Vec<u64>> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("healthy client"))
        .collect();
    let elapsed_s = started.elapsed().as_secs_f64();

    drop(zombies);
    handle.shutdown();
    let stats = engine.join().expect("engine");
    ph.shutdown();
    let wire = pump_thread.join().expect("pump");
    SoakRunResult {
        healthy,
        stalled,
        requests: (healthy * (frames + 1)) as u64,
        elapsed_s,
        per_client_ns,
        wire,
        stats,
    }
}

fn soak_run_doc(r: &SoakRunResult) -> SoakRunDoc {
    let lat = latencies(&r.per_client_ns);
    SoakRunDoc {
        healthy_clients: r.healthy,
        stalled_clients: r.stalled,
        requests: r.requests,
        elapsed_s: r.elapsed_s,
        requests_per_sec: r.requests as f64 / r.elapsed_s,
        p50_ms: lat.p50_ms,
        p95_ms: lat.p95_ms,
        worst_client_p95_ms: lat.worst_client_p95_ms,
        worst_client_max_ms: lat.worst_client_max_ms,
        wire: r.wire,
    }
}

fn fleet_run_doc(r: &FleetRunResult) -> FleetRunDoc {
    let lat = latencies(&r.per_client_ns);
    FleetRunDoc {
        engines: r.engines,
        clients_per_engine: r.clients_per_engine,
        requests: r.stats.engine.requests,
        elapsed_s: r.elapsed_s,
        requests_per_sec: r.stats.engine.requests as f64 / r.elapsed_s,
        p50_ms: lat.p50_ms,
        p95_ms: lat.p95_ms,
        worst_client_p95_ms: lat.worst_client_p95_ms,
        worst_client_max_ms: lat.worst_client_max_ms,
        stats: r.stats,
    }
}

fn main() {
    let mut clients = 4usize;
    let mut stops = None;
    let mut fleet_mode = false;
    let mut engines = 4usize;
    let mut fleet_clients = 2usize;
    let mut soak_mode = false;
    let mut soak_clients = 256usize;
    let mut soak_frames = SOAK_FRAMES;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--soak" => soak_mode = true,
            "--soak-clients" => {
                soak_clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--soak-clients N")
            }
            "--soak-frames" => {
                soak_frames = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--soak-frames N")
            }
            "--clients" => {
                clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--clients N")
            }
            "--stops" => {
                let n = args.next().and_then(|v| v.parse().ok());
                stops = Some(n.expect("--stops N"));
            }
            "--fleet" => fleet_mode = true,
            "--engines" => {
                engines = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--engines N")
            }
            "--fleet-clients" => {
                fleet_clients = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--fleet-clients N")
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: \
                     serve_bench [--clients N] [--stops N] [--fleet] [--engines N] \
                     [--fleet-clients N] [--soak] [--soak-clients N] [--soak-frames N]"
                );
                std::process::exit(2);
            }
        }
    }

    let fleet_stops = stops.unwrap_or(FLEET_STOPS);
    let stops = stops.unwrap_or(STOPS);
    println!(
        "serve_bench: {clients} clients x {} figures x {stops} stop events\n",
        figures::all().len()
    );
    let results = [
        run_profile("gdb_qemu", LatencyProfile::gdb_qemu(), clients, stops),
        run_profile("kgdb_rpi400", LatencyProfile::kgdb_rpi400(), clients, stops),
    ];

    let t = TablePrinter::new(&[13, 9, 11, 9, 9, 9, 10, 9, 11, 13]);
    t.row(
        &[
            "profile",
            "requests",
            "req/s",
            "p50-ms",
            "p95-ms",
            "worst-ms",
            "walks",
            "coalesce",
            "deltas",
            "bytes saved",
        ]
        .map(String::from),
    );
    t.sep();
    let mut profiles = Vec::new();
    let mut failed = false;
    for r in &results {
        let s = &r.stats;
        if let Err(e) = s.reconcile() {
            eprintln!("{}: ServeStats do not reconcile: {e}", r.name);
            failed = true;
        }
        let rps = s.requests as f64 / r.elapsed_s;
        let lat = latencies(&r.per_client_ns);
        t.row(&[
            r.name.to_string(),
            s.requests.to_string(),
            format!("{rps:.0}"),
            format!("{:.2}", lat.p50_ms),
            format!("{:.2}", lat.p95_ms),
            format!("{:.2}", lat.worst_client_max_ms),
            s.walks.to_string(),
            format!("{:.1}%", s.coalesce_rate() * 100.0),
            s.deltas_sent.to_string(),
            s.delta_bytes_saved.to_string(),
        ]);
        profiles.push(ProfileDoc {
            profile: r.name,
            clients: r.clients,
            stops: r.stops,
            elapsed_s: r.elapsed_s,
            requests: s.requests,
            requests_per_sec: rps,
            p50_ms: lat.p50_ms,
            p95_ms: lat.p95_ms,
            worst_client_p95_ms: lat.worst_client_p95_ms,
            worst_client_max_ms: lat.worst_client_max_ms,
            coalesce_rate: s.coalesce_rate(),
            delta_bytes_saved: s.delta_bytes_saved,
            stats: *s,
        });
    }
    t.sep();

    let fleet = if fleet_mode {
        println!("\nrecording the corpus capture for the fleet runs...");
        let cap = record_corpus(fleet_stops);
        println!("fleet baseline: 1 engine x {fleet_clients} clients x {fleet_stops} stop events");
        let baseline = run_fleet(&cap, 1, fleet_clients, fleet_stops);
        println!("fleet run: {engines} engines x {fleet_clients} clients each");
        let big = run_fleet(&cap, engines, fleet_clients, fleet_stops);
        for (name, r) in [("baseline", &baseline), ("fleet", &big)] {
            if let Err(e) = r.stats.reconcile() {
                eprintln!("{name}: FleetStats do not reconcile: {e}");
                failed = true;
            }
        }
        let bdoc = fleet_run_doc(&baseline);
        let fdoc = fleet_run_doc(&big);
        let scaling = fdoc.requests_per_sec / bdoc.requests_per_sec;
        println!(
            "\nfleet: {} req/s over baseline {} req/s -> scaling {scaling:.2}x \
             (gate {FLEET_SCALING_GATE:.1}x); shared hits {}, walks {}",
            fdoc.requests_per_sec as u64,
            bdoc.requests_per_sec as u64,
            fdoc.stats.engine.shared_hits,
            fdoc.stats.engine.walks,
        );
        if scaling < FLEET_SCALING_GATE {
            eprintln!("fleet scaling {scaling:.2}x under the {FLEET_SCALING_GATE:.1}x gate");
            failed = true;
        }
        Some(FleetDoc {
            stops: fleet_stops,
            baseline: bdoc,
            fleet: fdoc,
            scaling,
            scaling_gate: FLEET_SCALING_GATE,
        })
    } else {
        None
    };

    let soak = if soak_mode {
        println!(
            "\nsoak: {soak_clients} healthy wire clients, {SOAK_PAIRS} runs without and \
             {SOAK_PAIRS} with 1 stalled client"
        );
        // `runs[k]`: the runs with `k` stalled clients.
        let mut runs: [Vec<SoakRunResult>; 2] = Default::default();
        for pair in 0..SOAK_PAIRS {
            for stalled in [pair % 2, 1 - pair % 2] {
                let r = run_soak(soak_clients, stalled, soak_frames);
                let name = ["soak baseline", "soak"][stalled];
                if let Err(e) = r.wire.reconcile() {
                    eprintln!("{name}: WireStats do not reconcile: {e}");
                    failed = true;
                }
                if let Err(e) = r.stats.reconcile() {
                    eprintln!("{name}: ServeStats do not reconcile: {e}");
                    failed = true;
                }
                if stalled == 1 && r.wire.stalled_skips == 0 {
                    eprintln!("soak: the stalled client never tripped the stall cap");
                    failed = true;
                }
                runs[stalled].push(r);
            }
        }
        let [bdoc, sdoc] = runs.map(|mut kind| {
            kind.sort_by(|a, b| a.elapsed_s.total_cmp(&b.elapsed_s));
            soak_run_doc(&kind[kind.len() / 2])
        });
        let degradation = 1.0 - sdoc.requests_per_sec / bdoc.requests_per_sec;
        println!(
            "soak: healthy {} req/s with the stalled client vs {} req/s without, \
             medians of {SOAK_PAIRS} runs -> degradation {:.1}% (gate {:.0}%); \
             {} stalled-lane skips",
            sdoc.requests_per_sec as u64,
            bdoc.requests_per_sec as u64,
            degradation * 100.0,
            SOAK_DEGRADATION_GATE * 100.0,
            sdoc.wire.stalled_skips,
        );
        if degradation > SOAK_DEGRADATION_GATE {
            eprintln!(
                "soak degradation {:.1}% over the {:.0}% gate",
                degradation * 100.0,
                SOAK_DEGRADATION_GATE * 100.0
            );
            failed = true;
        }
        Some(SoakDoc {
            frames_per_client: soak_frames,
            runs_per_kind: SOAK_PAIRS,
            baseline: bdoc,
            stalled: sdoc,
            degradation,
            degradation_gate: SOAK_DEGRADATION_GATE,
        })
    } else {
        None
    };

    let out = std::env::var("BENCH_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    let doc = BenchDoc {
        bench: "serve",
        clients,
        stops,
        figures: figures::all().len(),
        profiles,
        fleet,
        soak,
    };
    std::fs::write(&out, serde_json::to_string_pretty(&doc).expect("encode")).expect("write");
    println!("\nwrote {out}");
    if failed {
        std::process::exit(1);
    }
}
