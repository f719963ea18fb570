//! The byte-stream seam under the framing layer, plus the blocking
//! client codec.
//!
//! [`Io`] is deliberately tiny: nonblocking `read`/`write` over raw
//! bytes, plus two provided hooks for transports that can signal the
//! arrival of bytes (a waker for the pump, a bounded wait for the
//! client). Everything protocol-shaped lives a layer up in
//! [`crate::framing`]; everything scheduling-shaped lives in
//! [`crate::evented`]. Two implementations ship:
//!
//! * [`ChanIo`] — an in-process byte channel over the same [`Bounded`]
//!   queues the server uses everywhere, created in connected pairs by
//!   [`byte_pair`]. The test/bench counterpart of a socketpair: real
//!   chunked byte streams (frames split and coalesce arbitrarily), real
//!   backpressure, no kernel.
//! * [`StreamIo`] — adapts any `Read + Write` stream already switched to
//!   nonblocking mode (e.g. `TcpStream::set_nonblocking(true)`);
//!   `examples/serve_tcp.rs` binds it to real sockets.
//!
//! [`WireClient`] is the client-side codec: a blocking
//! send/receive-one-payload loop of [`BinaryFraming`] over an `Io`,
//! after the hello/accept handshake. Server-side connections are driven
//! by the evented [`crate::WirePump`] instead — one poll thread, many
//! clients.

use std::io;
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use visualinux::proto::{VCommand, VERSION};

use crate::framing::{
    hello_frame, parse_verdict, BinaryFraming, DecodeBuf, HANDSHAKE_LEN, MAX_FRAME,
};
use crate::queue::{Bounded, TryPush, Wake};
use crate::ServeError;

/// A nonblocking byte stream. `read` returning `Ok(0)` means the peer
/// closed; either direction signals "nothing to do right now" with
/// [`io::ErrorKind::WouldBlock`], which callers must treat as retry —
/// never as failure. `read` and `write` must not block.
pub trait Io: Send {
    /// Read available bytes into `buf`. `Ok(0)` = end of stream.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;
    /// Write bytes from `buf`; may accept fewer than offered.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize>;

    /// Unpark `waker` whenever bytes arrive or the peer closes, so the
    /// [`crate::WirePump`] polling this stream can park between sweeps.
    /// The default does nothing: a stream that cannot signal (a socket
    /// behind [`StreamIo`]) is polled at least every
    /// [`crate::WireConfig::idle_sleep`].
    fn set_waker(&mut self, _waker: Thread) {}

    /// Wait a short, bounded while for bytes after `read` returned
    /// `WouldBlock`; returning early, even with nothing to read, is
    /// fine. `spins` counts the waits since bytes last arrived. The
    /// default yields, then sleeps 100 µs at a time: the polled backoff
    /// a stream that cannot signal needs.
    fn wait_readable(&mut self, spins: &mut u32) {
        backoff(spins);
    }
}

/// Largest chunk a [`ChanIo`] write moves at once.
const CHAN_CHUNK: usize = 64 * 1024;

/// Longest one [`ChanIo::wait_readable`] waits, so a reader's deadline
/// is overshot by at most this much.
const CHAN_WAIT: Duration = Duration::from_millis(5);

/// One end of an in-process byte channel (see [`byte_pair`]). Bytes
/// written on one end come out of the other's `read`, chunked
/// arbitrarily — exactly the re-assembly discipline a socket demands.
/// Dropping an end closes both directions (the peer reads EOF after a
/// drain, its writes fail).
pub struct ChanIo {
    rx: Arc<Bounded<Vec<u8>>>,
    tx: Arc<Bounded<Vec<u8>>>,
    /// Partially consumed inbound chunk.
    chunk: Vec<u8>,
    off: usize,
}

/// Two connected [`ChanIo`] ends; each direction buffers at most
/// `depth` chunks before exerting backpressure (writes WouldBlock).
pub fn byte_pair(depth: usize) -> (ChanIo, ChanIo) {
    let a = Arc::new(Bounded::new(depth));
    let b = Arc::new(Bounded::new(depth));
    (
        ChanIo {
            rx: a.clone(),
            tx: b.clone(),
            chunk: Vec::new(),
            off: 0,
        },
        ChanIo {
            rx: b,
            tx: a,
            chunk: Vec::new(),
            off: 0,
        },
    )
}

impl ChanIo {
    /// Close both directions now (also done on drop).
    pub fn close(&self) {
        self.rx.close();
        self.tx.close();
    }
}

impl Drop for ChanIo {
    fn drop(&mut self) {
        self.close();
    }
}

impl Io for ChanIo {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.off >= self.chunk.len() {
            match self.rx.try_pop() {
                Some(c) => {
                    self.chunk = c;
                    self.off = 0;
                }
                None if self.rx.is_closed() => return Ok(0),
                None => return Err(io::ErrorKind::WouldBlock.into()),
            }
        }
        let n = buf.len().min(self.chunk.len() - self.off);
        buf[..n].copy_from_slice(&self.chunk[self.off..self.off + n]);
        self.off += n;
        Ok(n)
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        // Copy the chunk only once the queue has room for it: a stalled
        // lane is retried on every pump sweep.
        let n = buf.len().min(CHAN_CHUNK);
        match self.tx.try_push_with(|| buf[..n].to_vec()) {
            Ok(()) => Ok(n),
            Err(TryPush::Full(_)) => Err(io::ErrorKind::WouldBlock.into()),
            Err(TryPush::Closed(_)) => Err(io::ErrorKind::BrokenPipe.into()),
        }
    }

    fn set_waker(&mut self, waker: Thread) {
        self.rx.set_waker(waker, Wake::OnPush);
    }

    /// Waits on the receive queue itself, so a chunk the peer writes
    /// wakes the reader at once.
    fn wait_readable(&mut self, _spins: &mut u32) {
        self.rx.wait_ready(CHAN_WAIT);
    }
}

/// [`Io`] over any `Read + Write` stream that is *already* in
/// nonblocking mode (`TcpStream::set_nonblocking(true)`); transient
/// `Interrupted` errors are retried internally.
pub struct StreamIo<S> {
    inner: S,
}

impl<S> StreamIo<S> {
    /// Wrap a nonblocking stream.
    pub fn new(inner: S) -> StreamIo<S> {
        StreamIo { inner }
    }

    /// The wrapped stream.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }
}

impl<S: io::Read + io::Write + Send> Io for StreamIo<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }

    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            match self.inner.write(buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => return other,
            }
        }
    }
}

/// Spin-then-sleep backoff for the blocking client loops.
fn backoff(spins: &mut u32) {
    *spins += 1;
    if *spins < 64 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(100));
    }
}

/// The blocking client-side codec: [`BinaryFraming`] over one [`Io`],
/// with payload-at-a-time `send`/`recv`. Construct with
/// [`WireClient::binary`], whose hello/accept handshake pins [`VERSION`]
/// — a skew fails loudly naming both versions before any payload moves.
pub struct WireClient {
    io: Box<dyn Io>,
    inbuf: DecodeBuf,
    outbuf: Vec<u8>,
}

impl WireClient {
    /// A binary-framed client: performs the hello/accept handshake at
    /// [`VERSION`] and fails with a both-versions-named protocol error
    /// on skew.
    pub fn binary(io: Box<dyn Io>) -> Result<WireClient, ServeError> {
        WireClient::binary_with_version(io, VERSION)
    }

    /// [`WireClient::binary`] announcing an arbitrary version — how the
    /// test suite manufactures version-skew handshakes.
    pub fn binary_with_version(io: Box<dyn Io>, version: u16) -> Result<WireClient, ServeError> {
        let mut c = WireClient {
            io,
            inbuf: DecodeBuf::new(),
            outbuf: Vec::new(),
        };
        c.outbuf.extend_from_slice(&hello_frame(version));
        c.flush()?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut spins = 0;
        loop {
            match parse_verdict(&mut c.inbuf, version) {
                Ok(Some(())) => return Ok(c),
                Ok(None) => {}
                Err(e) => return Err(ServeError::Protocol(e.to_string())),
            }
            if !c.fill(&mut spins)? && c.inbuf.len() < HANDSHAKE_LEN {
                return Err(ServeError::Protocol(
                    "stream closed during the wire handshake".into(),
                ));
            }
            if Instant::now() >= deadline {
                return Err(ServeError::Protocol("wire handshake timed out".into()));
            }
        }
    }

    /// Send one serialized payload (blocking until the bytes are out).
    /// A payload past [`MAX_FRAME`] is an error: no server would take
    /// the frame.
    pub fn send_payload(&mut self, payload: &str) -> Result<(), ServeError> {
        if payload.len() > MAX_FRAME {
            return Err(ServeError::Protocol(format!(
                "a {}-byte payload exceeds the {MAX_FRAME}-byte frame cap",
                payload.len()
            )));
        }
        BinaryFraming.encode(payload, &mut self.outbuf);
        self.flush()
    }

    /// Send one command.
    pub fn send(&mut self, cmd: &VCommand) -> Result<(), ServeError> {
        self.send_payload(&cmd.to_json())
    }

    /// Receive the next payload; blocks. `Ok(None)` on clean end of
    /// stream; a mid-frame close or framing error is a positioned
    /// protocol error.
    pub fn recv(&mut self) -> Result<Option<String>, ServeError> {
        self.recv_deadline(Instant::now() + Duration::from_secs(60))
    }

    /// [`WireClient::recv`] with an explicit deadline.
    pub fn recv_deadline(&mut self, deadline: Instant) -> Result<Option<String>, ServeError> {
        let mut spins = 0;
        loop {
            match BinaryFraming.decode(&mut self.inbuf) {
                Ok(Some(p)) => return Ok(Some(p)),
                Ok(None) => {}
                Err(e) => return Err(ServeError::Protocol(e.to_string())),
            }
            if !self.fill(&mut spins)? {
                // EOF: a clean frame boundary ends the stream gracefully.
                return match BinaryFraming.finish(&self.inbuf) {
                    Ok(()) => Ok(None),
                    Err(e) => Err(ServeError::Protocol(e.to_string())),
                };
            }
            if Instant::now() >= deadline {
                return Err(ServeError::Protocol("recv timed out".into()));
            }
        }
    }

    /// Read once into the decode buffer. `Ok(false)` = end of stream;
    /// WouldBlock waits for bytes ([`Io::wait_readable`]) and reports
    /// `Ok(true)` with nothing read.
    fn fill(&mut self, spins: &mut u32) -> Result<bool, ServeError> {
        let mut chunk = [0u8; 16 * 1024];
        match self.io.read(&mut chunk) {
            Ok(0) => Ok(false),
            Ok(n) => {
                self.inbuf.extend(&chunk[..n]);
                *spins = 0;
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                self.io.wait_readable(spins);
                Ok(true)
            }
            Err(e) => Err(ServeError::Protocol(format!("wire read failed: {e}"))),
        }
    }

    /// Push the whole out-buffer to the stream, blocking with backoff.
    fn flush(&mut self) -> Result<(), ServeError> {
        let mut spins = 0;
        let mut done = 0;
        while done < self.outbuf.len() {
            match self.io.write(&self.outbuf[done..]) {
                Ok(0) => return Err(ServeError::Closed),
                Ok(n) => {
                    done += n;
                    spins = 0;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => backoff(&mut spins),
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => return Err(ServeError::Closed),
                Err(e) => return Err(ServeError::Protocol(format!("wire write failed: {e}"))),
            }
        }
        self.outbuf.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_pair_moves_chunked_bytes_both_ways() {
        let (mut a, mut b) = byte_pair(4);
        assert_eq!(a.write(b"hello").unwrap(), 5);
        let mut buf = [0u8; 2];
        assert_eq!(b.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf, b"he");
        let mut rest = [0u8; 8];
        assert_eq!(b.read(&mut rest).unwrap(), 3);
        assert_eq!(&rest[..3], b"llo");
        assert!(matches!(
            b.read(&mut rest),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock
        ));
        b.write(b"pong").unwrap();
        assert_eq!(a.read(&mut rest).unwrap(), 4);
    }

    #[test]
    fn byte_pair_close_gives_eof_after_drain_and_fails_writes() {
        let (mut a, mut b) = byte_pair(4);
        a.write(b"tail").unwrap();
        drop(a);
        let mut buf = [0u8; 8];
        assert_eq!(b.read(&mut buf).unwrap(), 4, "queued bytes still drain");
        assert_eq!(b.read(&mut buf).unwrap(), 0, "then EOF");
        assert!(matches!(
            b.write(b"late"),
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe
        ));
    }

    #[test]
    fn byte_pair_backpressures_with_wouldblock() {
        let (mut a, _b) = byte_pair(1);
        assert!(a.write(b"x").is_ok());
        assert!(matches!(
            a.write(b"y"),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock
        ));
    }

    #[test]
    fn wire_clients_handshake_and_exchange_payloads_over_a_pair() {
        let (a, b) = byte_pair(64);
        // Server half of the handshake, scripted by hand.
        let server = std::thread::spawn(move || {
            let mut io: Box<dyn Io> = Box::new(b);
            let mut buf = DecodeBuf::new();
            let mut chunk = [0u8; 1024];
            let mut spins = 0;
            let theirs = loop {
                if let Some(v) = crate::framing::parse_hello(&mut buf).unwrap() {
                    break v;
                }
                match io.read(&mut chunk) {
                    Ok(n) => buf.extend(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => backoff(&mut spins),
                    Err(e) => panic!("{e}"),
                }
            };
            let write_all = |io: &mut Box<dyn Io>, out: &[u8]| {
                let mut spins = 0;
                let mut done = 0;
                while done < out.len() {
                    match io.write(&out[done..]) {
                        Ok(n) => done += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => backoff(&mut spins),
                        Err(e) => panic!("{e}"),
                    }
                }
            };
            let verdict = crate::framing::negotiate_server(theirs).unwrap();
            write_all(&mut io, &verdict);
            let f = BinaryFraming;
            // Echo one frame back.
            let payload = loop {
                if let Some(p) = f.decode(&mut buf).unwrap() {
                    break p;
                }
                match io.read(&mut chunk) {
                    Ok(n) => buf.extend(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => backoff(&mut spins),
                    Err(e) => panic!("{e}"),
                }
            };
            let mut out = Vec::new();
            f.encode(&format!("echo:{payload}"), &mut out);
            write_all(&mut io, &out);
        });
        let mut c = WireClient::binary(Box::new(a)).unwrap();
        c.send_payload("ping").unwrap();
        assert_eq!(c.recv().unwrap().as_deref(), Some("echo:ping"));
        // A payload no server would take never reaches the stream.
        let err = c.send_payload(&"x".repeat(MAX_FRAME + 1)).unwrap_err();
        assert!(err.to_string().contains("frame cap"), "{err}");
        server.join().unwrap();
    }
}
