//! Message transports: in-process channels and localhost TCP.

use crate::codec;
use crate::error::NetError;
use crate::message::Message;
use bytes::BytesMut;
use crossbeam::channel::{unbounded, Receiver, Sender};
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// A bidirectional, blocking message pipe.
///
/// Implementations must be usable from one thread at a time; the lockstep
/// protocol never needs concurrent send/recv on one endpoint.
pub trait Transport {
    /// Sends one message.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if the peer is gone, or an I/O /
    /// codec error for socket transports.
    fn send(&mut self, msg: Message) -> Result<(), NetError>;

    /// Receives the next message, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if the peer is gone.
    fn recv(&mut self) -> Result<Message, NetError>;
}

/// In-process transport endpoint backed by crossbeam channels (no
/// serialization), used by the lockstep tests; campaigns call
/// `run_mission` directly and use no transport.
#[derive(Debug)]
pub struct InProcTransport {
    tx: Sender<Message>,
    rx: Receiver<Message>,
}

impl InProcTransport {
    /// Creates a connected pair of endpoints.
    pub fn pair() -> (InProcTransport, InProcTransport) {
        let (atx, arx) = unbounded();
        let (btx, brx) = unbounded();
        (
            InProcTransport { tx: atx, rx: brx },
            InProcTransport { tx: btx, rx: arx },
        )
    }
}

impl Transport for InProcTransport {
    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        self.tx.send(msg).map_err(|_| NetError::Disconnected)
    }

    fn recv(&mut self) -> Result<Message, NetError> {
        self.rx.recv().map_err(|_| NetError::Disconnected)
    }
}

/// TCP transport endpoint: length-prefixed frames over a socket, the
/// faithful reproduction of CARLA's client/server link.
///
/// Generic over the byte stream so tests can inject fault-carrying
/// `Read`/`Write` impls; production code uses the [`TcpStream`] default.
/// Besides the lockstep [`Transport`] impl it frames *any* serde value
/// via [`TcpTransport::send_value`] / [`TcpTransport::recv_value`] — the
/// campaign service's request/reply enums ride the same wire format.
#[derive(Debug)]
pub struct TcpTransport<S = TcpStream> {
    stream: S,
    inbox: BytesMut,
    outbox: BytesMut,
}

impl TcpTransport<TcpStream> {
    /// Wraps a connected stream.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if `TCP_NODELAY` cannot be set (lockstep
    /// latency would otherwise be dominated by Nagle's algorithm).
    pub fn new(stream: TcpStream) -> Result<Self, NetError> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport::from_stream(stream))
    }

    /// Connects to a listening server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> Result<Self, NetError> {
        Self::new(TcpStream::connect(addr)?)
    }
}

impl<S: Read + Write> TcpTransport<S> {
    /// Wraps any byte stream without socket-specific setup (used by tests
    /// to inject fault-carrying streams).
    pub fn from_stream(stream: S) -> Self {
        TcpTransport {
            stream,
            inbox: BytesMut::with_capacity(64 * 1024),
            outbox: BytesMut::with_capacity(64 * 1024),
        }
    }

    /// Frames and sends one serde value.
    ///
    /// `ErrorKind::Interrupted` (EINTR — a signal landing during the
    /// blocking write) is retried: it means "nothing happened", never
    /// "the connection broke", so propagating it would kill a healthy
    /// connection mid-frame and desync the peer.
    ///
    /// # Errors
    ///
    /// [`NetError::Codec`] for unserializable or oversized payloads
    /// (nothing is written), [`NetError::Disconnected`] when the peer is
    /// gone, [`NetError::Io`] for other socket failures.
    pub fn send_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), NetError> {
        self.outbox.clear();
        codec::encode_value(value, &mut self.outbox)?;
        let mut rest: &[u8] = &self.outbox;
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Receives and decodes the next framed serde value, blocking until a
    /// complete frame arrives.
    ///
    /// Like [`TcpTransport::send_value`], `ErrorKind::Interrupted` reads
    /// are retried instead of propagated.
    ///
    /// # Errors
    ///
    /// [`NetError::Disconnected`] on EOF or peer hangup,
    /// [`NetError::Codec`] on malformed frames, [`NetError::Io`] for
    /// other socket failures.
    pub fn recv_value<T: Deserialize>(&mut self) -> Result<T, NetError> {
        self.recv_value_within(codec::MAX_FRAME)
    }

    /// [`TcpTransport::recv_value`] for a frame of at most `cap` payload
    /// bytes: a longer length prefix fails with [`NetError::Codec`] as
    /// soon as it arrives, before any of its payload is read.
    ///
    /// The inbox grows only by the bytes that arrive, one read window of
    /// `READ_CHUNK` (16 KiB) at a time, so a length prefix alone never
    /// sizes it.
    ///
    /// # Errors
    ///
    /// As [`TcpTransport::recv_value`].
    pub fn recv_value_within<T: Deserialize>(&mut self, cap: usize) -> Result<T, NetError> {
        loop {
            if let Some(msg) = codec::decode_value(&mut self.inbox, cap)? {
                return Ok(msg);
            }
            // Read straight into the accumulation buffer: `read` fills
            // `inbox`'s own tail, so bytes land exactly where `decode`
            // consumes them — no intermediate stack chunk and no second
            // copy on the wire path.
            let filled = self.inbox.len();
            self.inbox.resize(filled + READ_CHUNK, 0);
            let n = loop {
                match self.stream.read(&mut self.inbox[filled..]) {
                    Ok(n) => break n,
                    // EINTR mid-frame: the read transferred nothing and
                    // the connection is fine — retry with the same window.
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => {
                        // Restore the buffer to exactly the received bytes
                        // before propagating, or decode would see garbage
                        // next call.
                        self.inbox.truncate(filled);
                        return Err(e.into());
                    }
                }
            };
            self.inbox.truncate(filled + n);
            if n == 0 {
                return Err(NetError::Disconnected);
            }
        }
    }
}

impl<S: Read + Write> Transport for TcpTransport<S> {
    fn send(&mut self, msg: Message) -> Result<(), NetError> {
        self.send_value(&msg)
    }

    fn recv(&mut self) -> Result<Message, NetError> {
        self.recv_value()
    }
}

/// Read-window granularity for [`TcpTransport::recv_value`].
const READ_CHUNK: usize = 16 * 1024;

#[cfg(test)]
mod tests {
    use super::*;
    use avfi_sim::physics::VehicleControl;
    use std::io;
    use std::net::TcpListener;
    use std::thread;

    fn ctrl(frame: u64) -> Message {
        Message::Control {
            frame,
            control: VehicleControl::new(0.1, 0.9, 0.0),
        }
    }

    #[test]
    fn inproc_roundtrip() {
        let (mut a, mut b) = InProcTransport::pair();
        a.send(ctrl(1)).unwrap();
        assert_eq!(b.recv().unwrap(), ctrl(1));
        b.send(Message::Shutdown).unwrap();
        assert_eq!(a.recv().unwrap(), Message::Shutdown);
    }

    #[test]
    fn inproc_disconnect_detected() {
        let (mut a, b) = InProcTransport::pair();
        drop(b);
        assert!(matches!(a.send(ctrl(1)), Err(NetError::Disconnected)));
        assert!(matches!(a.recv(), Err(NetError::Disconnected)));
    }

    #[test]
    fn tcp_roundtrip_localhost() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            // Echo 10 messages back.
            for _ in 0..10 {
                let m = t.recv().unwrap();
                t.send(m).unwrap();
            }
        });
        let mut c = TcpTransport::connect(&addr.to_string()).unwrap();
        for i in 0..10 {
            c.send(ctrl(i)).unwrap();
            assert_eq!(c.recv().unwrap(), ctrl(i));
        }
        server.join().unwrap();
    }

    #[test]
    fn tcp_large_observation_frame_roundtrip() {
        // Observation frames exceed one read window, so this exercises the
        // direct-into-inbox accumulation across several reads.
        use avfi_sim::scenario::{Scenario, TownSpec};
        use avfi_sim::world::World;
        let mut w = World::from_scenario(&Scenario::builder(TownSpec::grid(2, 2)).seed(3).build());
        let msg = Message::Observation(Box::new(w.observe()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            for _ in 0..3 {
                let m = t.recv().unwrap();
                t.send(m).unwrap();
            }
        });
        let mut c = TcpTransport::connect(&addr.to_string()).unwrap();
        for _ in 0..3 {
            c.send(msg.clone()).unwrap();
            assert_eq!(c.recv().unwrap(), msg);
        }
        server.join().unwrap();
    }

    #[test]
    fn tcp_disconnect_detected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(stream);
        });
        let mut c = TcpTransport::connect(&addr.to_string()).unwrap();
        server.join().unwrap();
        assert!(matches!(c.recv(), Err(NetError::Disconnected)));
    }

    /// A stream that interrupts: every other `read` / `write` call fails
    /// with `ErrorKind::Interrupted` (EINTR), and the calls that do
    /// succeed move a single byte — the worst-case signal storm.
    struct InterruptingStream {
        /// Bytes served to `read`.
        incoming: Vec<u8>,
        read_pos: usize,
        /// Bytes accepted from `write`.
        written: Vec<u8>,
        ops: usize,
        reads_interrupted: usize,
        writes_interrupted: usize,
    }

    impl InterruptingStream {
        fn serving(incoming: Vec<u8>) -> Self {
            InterruptingStream {
                incoming,
                read_pos: 0,
                written: Vec::new(),
                ops: 0,
                reads_interrupted: 0,
                writes_interrupted: 0,
            }
        }
    }

    impl Read for InterruptingStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.ops += 1;
            if self.ops % 2 == 1 {
                self.reads_interrupted += 1;
                return Err(io::Error::new(ErrorKind::Interrupted, "EINTR"));
            }
            if self.read_pos >= self.incoming.len() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.incoming[self.read_pos];
            self.read_pos += 1;
            Ok(1)
        }
    }

    impl Write for InterruptingStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.ops += 1;
            if self.ops % 2 == 1 {
                self.writes_interrupted += 1;
                return Err(io::Error::new(ErrorKind::Interrupted, "EINTR"));
            }
            if buf.is_empty() {
                return Ok(0);
            }
            self.written.push(buf[0]);
            Ok(1)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Regression (EINTR retry, recv path): a signal landing mid-frame
    /// must not kill a healthy connection — every interrupted read is
    /// retried until the frame completes.
    #[test]
    fn recv_retries_interrupted_reads_mid_frame() {
        let mut wire = BytesMut::new();
        codec::encode_value(&ctrl(99), &mut wire).unwrap();
        let mut t = TcpTransport::from_stream(InterruptingStream::serving(wire.to_vec()));
        assert_eq!(t.recv().unwrap(), ctrl(99));
        assert!(
            t.stream.reads_interrupted >= wire.len(),
            "every other read was an EINTR ({} interrupts for {} bytes)",
            t.stream.reads_interrupted,
            wire.len()
        );
        // The connection stays usable: EOF after the frame is a clean
        // disconnect, not a mid-frame failure.
        assert!(matches!(t.recv(), Err(NetError::Disconnected)));
    }

    /// Regression (EINTR retry, send path): interrupted writes are
    /// retried and the emitted frame is byte-perfect despite the storm.
    #[test]
    fn send_retries_interrupted_writes_mid_frame() {
        let mut t = TcpTransport::from_stream(InterruptingStream::serving(Vec::new()));
        t.send(ctrl(7)).unwrap();
        let mut expected = BytesMut::new();
        codec::encode_value(&ctrl(7), &mut expected).unwrap();
        assert_eq!(t.stream.written, expected.to_vec());
        assert!(t.stream.writes_interrupted >= expected.len());
    }

    /// A stream that serves `incoming` in reads of any size and records
    /// the largest buffer it was offered.
    struct RecordingStream {
        incoming: Vec<u8>,
        read_pos: usize,
        largest_read: usize,
    }

    impl Read for RecordingStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_read = self.largest_read.max(buf.len());
            let n = buf.len().min(self.incoming.len() - self.read_pos);
            buf[..n].copy_from_slice(&self.incoming[self.read_pos..self.read_pos + n]);
            self.read_pos += n;
            Ok(n)
        }
    }

    impl Write for RecordingStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn recording(incoming: Vec<u8>) -> TcpTransport<RecordingStream> {
        TcpTransport::from_stream(RecordingStream {
            incoming,
            read_pos: 0,
            largest_read: 0,
        })
    }

    /// A 4-byte prefix that claims a 64 MiB frame, followed by 100 KB and
    /// a hangup, is read in windows of `READ_CHUNK`: the prefix never
    /// sizes the inbox.
    #[test]
    fn a_length_prefix_alone_does_not_size_the_inbox() {
        let mut wire = (codec::MAX_FRAME as u32).to_le_bytes().to_vec();
        wire.extend(std::iter::repeat_n(b' ', 100_000));
        let mut t = recording(wire);
        assert!(matches!(
            t.recv_value::<Message>(),
            Err(NetError::Disconnected)
        ));
        assert!(
            t.stream.largest_read <= READ_CHUNK,
            "read offered {} bytes",
            t.stream.largest_read
        );
        assert_eq!(t.inbox.len(), 4 + 100_000);
    }

    /// A legitimate 1 MiB frame still decodes, through the same windows.
    #[test]
    fn a_one_mib_frame_decodes_in_read_chunks() {
        let value = "x".repeat(1 << 20);
        let mut wire = BytesMut::new();
        codec::encode_value(&value, &mut wire).unwrap();
        let mut t = recording(wire.to_vec());
        assert_eq!(t.recv_value::<String>().unwrap(), value);
        assert!(t.stream.largest_read <= READ_CHUNK);
    }

    /// Non-EINTR errors still propagate from the value paths.
    struct FailingStream(ErrorKind);

    impl Read for FailingStream {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Err(io::Error::new(self.0, "injected"))
        }
    }

    impl Write for FailingStream {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(self.0, "injected"))
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn hard_errors_are_not_retried() {
        let mut t = TcpTransport::from_stream(FailingStream(ErrorKind::PermissionDenied));
        assert!(matches!(t.recv(), Err(NetError::Io(_))));
        assert!(matches!(t.send(ctrl(1)), Err(NetError::Io(_))));
        // Abortive hangup kinds surface as the routine Disconnected signal.
        let mut t = TcpTransport::from_stream(FailingStream(ErrorKind::ConnectionReset));
        assert!(matches!(t.recv(), Err(NetError::Disconnected)));
        assert!(matches!(t.send(ctrl(1)), Err(NetError::Disconnected)));
    }

    #[test]
    fn generic_values_roundtrip_over_tcp() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            let v: Vec<u64> = t.recv_value().unwrap();
            t.send_value(&v.iter().sum::<u64>()).unwrap();
        });
        let mut c = TcpTransport::connect(&addr.to_string()).unwrap();
        c.send_value(&vec![1u64, 2, 3]).unwrap();
        let sum: u64 = c.recv_value().unwrap();
        assert_eq!(sum, 6);
        server.join().unwrap();
    }
}
