//! The wire wakes on arrival. A `WirePump` parks between sweeps that
//! move nothing, and whatever arrives unparks it: a connection, a
//! client's bytes, the close of its intake, and the engine's ring once
//! it has idled with replies still queued. A `WireClient` over a
//! `ChanIo` waits on its receive queue the same way. So with
//! `idle_sleep` at 10 s, every exchange below still completes well
//! inside a 2 s deadline; a pump or client that slept out its idle time
//! would miss every one. A TCP `StreamIo` cannot signal, and still
//! completes under the default `idle_sleep`: the polled fallback.

use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use ksim::workload::{build, WorkloadConfig};
use vbridge::LatencyProfile;
use visualinux::proto::VCommand;
use visualinux::{figures, Session};
use vserve::{
    byte_pair, Io, PumpHandle, Replica, ServeConfig, ServeStats, Server, ServerHandle,
    SingleSession, StreamIo, WireClient, WireConfig, WirePump, WireStats,
};

const DEADLINE: Duration = Duration::from_secs(2);

/// An engine on its own thread (the session is single-threaded) and a
/// pump over it with `cfg`.
struct Rig {
    handle: ServerHandle,
    engine: thread::JoinHandle<ServeStats>,
    pump: PumpHandle,
    pump_thread: thread::JoinHandle<WireStats>,
}

fn rig(cfg: WireConfig) -> Rig {
    let (tx, rx) = mpsc::channel();
    let engine = thread::spawn(move || {
        let session = Session::builder(build(&WorkloadConfig::default()))
            .profile(LatencyProfile::free())
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
    let pump = WirePump::new(Box::new(SingleSession::new(handle.clone())), cfg);
    let ph = pump.handle();
    let pump_thread = thread::spawn(move || pump.run());
    Rig {
        handle,
        engine,
        pump: ph,
        pump_thread,
    }
}

/// One `vplot_request` and its reply, then the `vack` and its reply,
/// each under its own `DEADLINE`.
fn exchange(client: &mut WireClient, replica: &mut Replica, viewcl: &str) {
    client
        .send(&VCommand::VplotRequest {
            viewcl: viewcl.to_string(),
        })
        .expect("send request");
    let reply = client
        .recv_deadline(Instant::now() + DEADLINE)
        .expect("the plot arrives before the deadline")
        .expect("a reply, not the end of the stream");
    replica.apply_line(&reply).expect("the reply applies");
    client
        .send(&replica.ack(viewcl).expect("a mirrored plot"))
        .expect("send ack");
    let ack = client
        .recv_deadline(Instant::now() + DEADLINE)
        .expect("the ack's reply arrives before the deadline")
        .expect("a reply, not the end of the stream");
    assert!(ack.contains("\"status\":\"ok\""), "ack refused: {ack}");
}

#[test]
fn a_parked_pump_wakes_for_every_arrival_and_for_its_shutdown() {
    let rig = rig(WireConfig {
        idle_sleep: Duration::from_secs(10),
        ..WireConfig::default()
    });
    let (ours, theirs) = byte_pair(64);
    rig.pump.add(Box::new(theirs)).unwrap();
    let t0 = Instant::now();
    let mut client = WireClient::binary(Box::new(ours)).expect("handshake");
    assert!(t0.elapsed() < DEADLINE, "handshake took {:?}", t0.elapsed());

    let figs = figures::all();
    let mut replica = Replica::new();
    for i in 0..50 {
        exchange(&mut client, &mut replica, figs[i % figs.len()].viewcl);
    }

    // The client leaves; its close wakes the pump, which drops the lane
    // and parks again with nothing to do.
    drop(client);
    thread::sleep(Duration::from_millis(100));
    // Closing the intake must unpark it: it returns at once instead of
    // after its 10 s idle time.
    let t1 = Instant::now();
    rig.pump.shutdown();
    let wire = rig.pump_thread.join().unwrap();
    assert!(
        t1.elapsed() < DEADLINE,
        "pump shutdown took {:?}",
        t1.elapsed()
    );
    rig.handle.shutdown();
    let serve = rig.engine.join().unwrap();
    wire.reconcile().expect("wire books balance");
    serve.reconcile().expect("engine books balance");
    assert_eq!((serve.plot_requests, serve.acks), (50, 50));
    assert_eq!(wire.frames_in, 100);
}

/// Every figure requested before any reply is read: more frames than a
/// lane admits at once (`ServeConfig::client_queue`), so the engine runs
/// dry mid-burst with the rest held at the pump. Its ring once idle
/// lets the pump ship the replies and admit the rest; a burst whose
/// replies waited on `idle_sleep` would miss the deadline.
#[test]
fn a_pipelined_burst_past_the_admission_window_completes() {
    let rig = rig(WireConfig {
        idle_sleep: Duration::from_secs(10),
        ..WireConfig::default()
    });
    let (ours, theirs) = byte_pair(64);
    rig.pump.add(Box::new(theirs)).unwrap();
    let mut client = WireClient::binary(Box::new(ours)).expect("handshake");
    let figs = figures::all();
    assert!(figs.len() > ServeConfig::default().client_queue);
    let mut replica = Replica::new();
    for round in 0..3 {
        for f in &figs {
            client
                .send(&VCommand::VplotRequest {
                    viewcl: f.viewcl.to_string(),
                })
                .expect("send request");
        }
        for f in &figs {
            let reply = client
                .recv_deadline(Instant::now() + DEADLINE)
                .unwrap_or_else(|e| panic!("round {round}, `{}`: {e}", f.id))
                .expect("a reply, not the end of the stream");
            replica.apply_line(&reply).expect("the reply applies");
        }
    }

    drop(client);
    rig.pump.shutdown();
    let wire = rig.pump_thread.join().unwrap();
    rig.handle.shutdown();
    let serve = rig.engine.join().unwrap();
    wire.reconcile().expect("wire books balance");
    serve.reconcile().expect("engine books balance");
    assert_eq!(serve.plot_requests, 3 * figs.len() as u64);
}

/// A socket cannot signal the pump, so the pump polls it every
/// `idle_sleep`, and the client backs off between reads.
#[test]
fn a_tcp_stream_io_still_completes_an_exchange_by_polling() {
    fn tcp_io(stream: TcpStream) -> Box<dyn Io> {
        stream.set_nodelay(true).unwrap();
        stream.set_nonblocking(true).unwrap();
        Box::new(StreamIo::new(stream))
    }
    let rig = rig(WireConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (accepted, _) = listener.accept().unwrap();
    rig.pump.add(tcp_io(accepted)).unwrap();
    let mut client = WireClient::binary(tcp_io(stream)).expect("handshake");
    let mut replica = Replica::new();
    exchange(&mut client, &mut replica, figures::all()[0].viewcl);

    drop(client);
    rig.pump.shutdown();
    let wire = rig.pump_thread.join().unwrap();
    rig.handle.shutdown();
    let serve = rig.engine.join().unwrap();
    wire.reconcile().expect("wire books balance");
    serve.reconcile().expect("engine books balance");
    assert_eq!((serve.plot_requests, serve.acks), (1, 1));
}
