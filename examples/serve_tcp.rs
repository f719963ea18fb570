//! Serve the VCommand protocol over TCP — the visualizer-facing
//! endpoint of the paper's §4.2 message flow, backed by a
//! `vserve::Server` behind the evented `WirePump`.
//!
//! The socket speaks one wire format: a client opens with the binary
//! hello (`WireClient::binary`) and gets length-prefixed frames after a
//! version handshake. A peer whose first bytes are anything else — a
//! newline-JSON client, say — gets one JSON error line naming the hello
//! and the protocol version, and is closed. All connections are driven
//! by a single poll thread with per-client fair queuing — no thread per
//! connection.
//!
//! ```text
//! cargo run --example serve_tcp                        # smoke run, then exit
//! cargo run --example serve_tcp -- --hold 0.0.0.0:9000 # keep serving
//! ```
//!
//! The run is self-demonstrating: after binding, the example connects
//! an in-process binary-framed smoke client over the same TCP surface,
//! requests a figure twice around a stop event, prints what came back
//! (a full plot, then a delta), then sends a newline-JSON request on
//! the very same port and prints the refusal it gets. Without `--hold`
//! it then shuts the server down gracefully and exits, which is what
//! the CI smoke run relies on.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use ksim::workload::{build, WorkloadConfig};
use vbridge::{CacheConfig, LatencyProfile};
use visualinux::proto::VCommand;
use visualinux::Session;
use vserve::{
    Replica, ReplicaEvent, ServeConfig, Server, SingleSession, StreamIo, WireClient, WireConfig,
    WirePump,
};

/// A nonblocking TCP stream as a pump lane / client codec substrate.
fn tcp_io(stream: TcpStream) -> std::io::Result<StreamIo<TcpStream>> {
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    Ok(StreamIo::new(stream))
}

fn main() -> std::io::Result<()> {
    let mut hold = false;
    let mut addr = "127.0.0.1:0".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--hold" {
            hold = true;
        } else {
            addr = arg;
        }
    }
    let listener = TcpListener::bind(&addr)?;
    let addr = listener.local_addr()?;
    println!(
        "vserve: listening on {addr} (binary framed wire v{}; a peer without the VWHI hello is refused)",
        visualinux::proto::VERSION
    );

    let session = Session::builder(build(&WorkloadConfig::default()))
        .profile(LatencyProfile::gdb_qemu())
        .cache(CacheConfig::default())
        .attach()
        .unwrap();
    let mut server = Server::new(
        session,
        ServeConfig {
            exit_when_idle: false, // keep serving between connections
            ..ServeConfig::default()
        },
    );
    let handle = server.handle();

    // One evented pump drives every connection from a single thread.
    let pump = WirePump::new(
        Box::new(SingleSession::new(handle.clone())),
        WireConfig::default(),
    );
    let ph = pump.handle();
    let pump_thread = std::thread::spawn(move || pump.run());

    // Acceptor: hands sockets to the pump and goes back to accepting.
    let accept_handle = ph.clone();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let Ok(io) = tcp_io(stream) else { continue };
            if accept_handle.add(Box::new(io)).is_err() {
                break; // pump shut down
            }
        }
    });

    // Smoke client: prove the endpoint works end to end — handshake,
    // full plot, delta — over the binary framing.
    let smoke = std::thread::spawn(move || {
        let done = handle.clone();
        let fig = visualinux::figures::by_id("fig3-4").expect("figure exists");
        // The workload build is deterministic, so a fresh build yields
        // the same task addresses the server's image holds.
        let (_, _, roots) = build(&WorkloadConfig::default()).finish();
        let stream = TcpStream::connect(addr).expect("connect to ourselves");
        let io = tcp_io(stream).expect("nonblocking socket");
        let mut client = WireClient::binary(Box::new(io)).expect("wire handshake");
        println!("smoke: negotiated wire v{}", visualinux::proto::VERSION);
        let mut replica = Replica::new();
        let request = VCommand::VplotRequest {
            viewcl: fig.viewcl.to_string(),
        };

        for round in 0..2u64 {
            client.send(&request).expect("send");
            let reply = client.recv().expect("recv").expect("reply");
            match replica.apply_line(&reply).expect("protocol") {
                ReplicaEvent::Full { .. } => {
                    println!(
                        "smoke: round {round}: full plot, {} boxes, {} bytes",
                        replica.graph(fig.viewcl).unwrap().len(),
                        reply.len()
                    );
                }
                ReplicaEvent::Delta { summary, .. } => {
                    println!(
                        "smoke: round {round}: delta, {} bytes ({} boxes changed, {} texts)",
                        reply.len(),
                        summary.boxes_changed,
                        summary.texts_changed
                    );
                }
                ReplicaEvent::Response(r) => println!("smoke: round {round}: {r:?}"),
            }
            if round == 0 {
                // Let the kernel "run" so the second request has a delta
                // worth shipping.
                let roots = roots.clone();
                handle
                    .stop_event(move |img| {
                        ksim::tick::tick(img, &roots, 1);
                    })
                    .expect("stop event");
            }
        }

        // A newline-JSON peer opens without the hello: the same port
        // answers it with one JSON error line and closes.
        let mut stale = TcpStream::connect(addr).expect("connect (no hello)");
        stale
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        let line = VCommand::VctrlFocus { addr: 0 }.to_json();
        stale
            .write_all(format!("{line}\n").as_bytes())
            .expect("send a JSON line");
        let mut refusal = String::new();
        stale
            .read_to_string(&mut refusal)
            .expect("the refusal, then the close");
        assert!(refusal.contains("VWHI hello"), "{refusal}");
        print!("smoke: a peer without the hello is refused: {refusal}");

        if !hold {
            done.shutdown();
        }
    });

    // The engine owns the session and must run on this thread.
    server.run();
    smoke.join().expect("smoke client");
    ph.shutdown();
    let wire = pump_thread.join().expect("pump");
    println!(
        "wire: {} lanes ({} with a hello, {} refused), {} frames in / {} out, {} sweeps",
        wire.accepted,
        wire.hello_binary,
        wire.decode_errors,
        wire.frames_in,
        wire.frames_out,
        wire.sweeps
    );
    wire.reconcile().expect("wire books balance");
    Ok(())
}
