//! Non-blocking connection front-end: a few I/O threads multiplex every
//! client socket instead of two threads per connection.
//!
//! Each I/O thread owns a set of non-blocking sockets and sleeps in one
//! blocking `poll(2)` ([`crate::sys`]) until something it owns is ready:
//! a connection it is reading from has bytes (`POLLIN`), a connection
//! with unwritten replies can take more (`POLLOUT`), the listener has a
//! new client (thread 0 only), or its *doorbell* rings. The doorbell is
//! a Unix socket pair; one byte written to it wakes the thread. It rings
//! when a worker queues a reply ([`ReplyTx::send`]), when the acceptor
//! hands the thread a new stream, and when the server shuts down. No
//! step waits on a timeout to make progress.
//!
//! A woken thread reads every ready socket until it is drained, splits
//! complete lines, dispatches them to the server's request handler,
//! drains each connection's response channel into its write buffer and
//! writes until `WouldBlock`. Dispatch never runs solver work: it
//! parses, answers cache hits at once (see [`crate::server`]), and
//! enqueues misses, so admission control and deadlines are unchanged. A
//! hit's reply is written in the same pass that read its request.
//!
//! Thread 0 additionally owns the listener and deals new connections
//! round-robin across the pool. Responses travel through one mpsc
//! channel per connection, preserving the out-of-order reply contract
//! (workers answer jobs at their own pace; clients match on `id`).
//!
//! Lifecycle: a connection is dropped once its peer is gone — read EOF
//! or error — *and* every response owed to it has been written. The
//! owed-responses condition falls out of channel semantics: the
//! connection's own sender is dropped at EOF, every admitted job holds a
//! sender clone until answered, so `try_recv` returning `Disconnected`
//! with an empty write buffer means nothing is outstanding. On shutdown
//! the server joins its workers first (all responses are then in the
//! channels), then [`IoPool::stop`] flips the exit flag and rings every
//! doorbell, and each I/O thread performs a final blocking flush before
//! closing its sockets.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::{self, JoinHandle, ThreadId};
use std::time::Duration;

use crate::protocol::{encode_response_line, Response};
use crate::sys::{self, PollFd, POLLIN, POLLOUT};

/// Parsed-line handler supplied by the server: dispatch one request
/// line, sending any responses through the connection's channel.
pub(crate) type Dispatch = Arc<dyn Fn(&str, &ReplyTx) + Send + Sync>;

/// Wakes one I/O thread out of its `poll`: a connected Unix socket
/// pair, both ends non-blocking. The pair lives as long as any clone,
/// so a ring never writes to a closed socket.
#[derive(Clone)]
pub(crate) struct Doorbell(Arc<Bell>);

struct Bell {
    rx: UnixStream,
    tx: UnixStream,
    /// The I/O thread the bell wakes, once it runs.
    owner: OnceLock<ThreadId>,
}

impl Doorbell {
    fn new() -> io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Doorbell(Arc::new(Bell {
            rx,
            tx,
            owner: OnceLock::new(),
        })))
    }

    /// Wake the owning thread. A ring from that thread itself is
    /// skipped: it checks every channel later in its current pass. A
    /// full socket buffer means a wake is already pending, so a failed
    /// write loses nothing.
    fn ring(&self) {
        if self.0.owner.get() != Some(&thread::current().id()) {
            let _ = (&self.0.tx).write(&[1]);
        }
    }

    /// Consume every pending ring.
    fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.0.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// The sending side of one connection's response channel. A send, and
/// the drop that may leave the channel disconnected, each ring the
/// doorbell of the I/O thread that owns the connection.
#[derive(Clone)]
pub(crate) struct ReplyTx {
    /// `None` only while dropping.
    tx: Option<mpsc::Sender<Response>>,
    bell: Doorbell,
}

impl Drop for ReplyTx {
    fn drop(&mut self) {
        // Disconnect first, then wake: the owner must find the channel
        // closed when it looks, or it would sleep on a finished
        // connection.
        self.tx = None;
        self.bell.ring();
    }
}

impl ReplyTx {
    /// Queue `resp` for the connection and wake its I/O thread. A reply
    /// to a connection that is already gone is dropped.
    pub(crate) fn send(&self, resp: Response) {
        if let Some(tx) = &self.tx {
            if tx.send(resp).is_ok() {
                self.bell.ring();
            }
        }
    }
}

/// Per-pass read chunk; connections buffer partial lines across passes.
const READ_CHUNK: usize = 16 * 1024;

/// One multiplexed client connection.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet split into complete lines.
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already searched for a newline (none there), so
    /// a long line arriving in many reads is scanned once.
    scanned: usize,
    /// Encoded responses not yet fully written.
    wbuf: Vec<u8>,
    /// Prefix of `wbuf` already written to the socket.
    wpos: usize,
    /// The connection's own response sender; dropped at read-EOF so
    /// that `rx` disconnects once the last in-flight job answers.
    tx: Option<ReplyTx>,
    rx: mpsc::Receiver<Response>,
    /// `poll` reported an event since the last read drained the
    /// socket; a new connection starts ready.
    ready: bool,
    dead: bool,
}

impl Conn {
    /// Wrap `stream` for the poll loop whose doorbell is `bell`.
    fn new(stream: TcpStream, bell: Doorbell) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        // Replies are whole lines written at once; Nagle's algorithm
        // would hold one back until the client ACKs the previous one,
        // which a delayed-ACK client does only after tens of ms.
        stream.set_nodelay(true)?;
        let (tx, rx) = mpsc::channel();
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            wpos: 0,
            tx: Some(ReplyTx { tx: Some(tx), bell }),
            rx,
            ready: true,
            dead: false,
        })
    }

    /// The `poll` events this connection waits for: input while it is
    /// still reading, output while replies are unwritten. With neither,
    /// only a reply (through the doorbell) can give it work.
    fn interest(&self) -> i16 {
        let mut events = 0;
        if self.tx.is_some() {
            events |= POLLIN;
        }
        if self.wpos < self.wbuf.len() {
            events |= POLLOUT;
        }
        events
    }

    /// One non-blocking pass: read, dispatch, drain, write. Sets `dead`
    /// once the connection is finished.
    fn poll(&mut self, dispatch: &Dispatch, exiting: bool) {
        // Read until drained, then hand every complete line to the
        // dispatcher. Partial trailing lines stay buffered. The exit
        // pass reads regardless, so late lines get "shutting down".
        if self.tx.is_some() && (self.ready || exiting) {
            self.ready = false;
            let mut eof = false;
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        if n < READ_CHUNK {
                            // Drained for now; `poll` is level-triggered,
                            // so later bytes (or EOF) mark us ready again.
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Peer reset: nothing we still owe is deliverable.
                        self.dead = true;
                        return;
                    }
                }
            }
            self.dispatch_lines(dispatch);
            if eof {
                // Half-close: stop reading, keep writing what we owe.
                self.tx = None;
            }
        }

        // Drain finished responses into the write buffer.
        let mut disconnected = false;
        loop {
            match self.rx.try_recv() {
                Ok(resp) => self
                    .wbuf
                    .extend_from_slice(encode_response_line(&resp).as_bytes()),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }

        // Write until WouldBlock.
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.wpos == self.wbuf.len() && self.wpos > 0 {
            self.wbuf.clear();
            self.wpos = 0;
        }

        if disconnected && self.wbuf.is_empty() {
            // Reader closed, no job holds a sender and everything is
            // written: the connection is complete.
            self.dead = true;
        } else if exiting {
            // Workers are already joined, so everything owed is in
            // `wbuf` by now. One blocking flush, then close.
            let _ = self.stream.set_nonblocking(false);
            if self.wpos < self.wbuf.len() {
                let _ = self.stream.write_all(&self.wbuf[self.wpos..]);
            }
            let _ = self.stream.flush();
            self.dead = true;
        }
    }

    /// Dispatch every complete line in `rbuf`, searching only bytes not
    /// searched before, and keep the partial tail. A line that is not
    /// UTF-8 is answered with one protocol error, like any other line
    /// that does not parse.
    fn dispatch_lines(&mut self, dispatch: &Dispatch) {
        let Some(tx) = &self.tx else { return };
        let mut start = 0;
        while let Some(off) = self.rbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            let nl = self.scanned + off;
            match std::str::from_utf8(&self.rbuf[start..nl]) {
                Ok(text) => {
                    let text = text.trim();
                    if !text.is_empty() {
                        dispatch(text, tx);
                    }
                }
                Err(_) => tx.send(Response::Error {
                    id: String::new(),
                    error: "request line is not valid UTF-8".to_string(),
                }),
            }
            start = nl + 1;
            self.scanned = start;
        }
        self.rbuf.drain(..start);
        self.scanned = self.rbuf.len();
    }
}

/// The running I/O threads and what it takes to stop them.
pub(crate) struct IoPool {
    exit: Arc<AtomicBool>,
    bells: Vec<Doorbell>,
    threads: Vec<JoinHandle<()>>,
}

impl IoPool {
    /// Spawn `threads` poll loops, with thread 0 accepting from
    /// `listener` and dealing streams round-robin across the pool.
    pub(crate) fn spawn(
        listener: TcpListener,
        threads: usize,
        dispatch: Dispatch,
    ) -> io::Result<Self> {
        let threads = threads.max(1);
        let exit = Arc::new(AtomicBool::new(false));
        let bells = (0..threads)
            .map(|_| Doorbell::new())
            .collect::<io::Result<Vec<_>>>()?;
        let (senders, receivers): (Vec<_>, Vec<_>) =
            (0..threads).map(|_| mpsc::channel::<TcpStream>()).unzip();
        let hand_off: Vec<(mpsc::Sender<TcpStream>, Doorbell)> =
            senders.into_iter().zip(bells.iter().cloned()).collect();
        let mut listener = Some(listener);
        let handles = receivers
            .into_iter()
            .zip(bells.iter().cloned())
            .map(|(injector, bell)| {
                let acceptor = listener.take().map(|l| (l, hand_off.clone()));
                let exit = Arc::clone(&exit);
                let dispatch = Arc::clone(&dispatch);
                thread::spawn(move || io_loop(acceptor, injector, bell, &exit, &dispatch))
            })
            .collect();
        Ok(IoPool {
            exit,
            bells,
            threads: handles,
        })
    }

    /// Flip the exit flag, wake every thread and join them. Each flushes
    /// what it owes and closes its sockets; call this only once no
    /// worker can still reply.
    pub(crate) fn stop(self) {
        self.exit.store(true, Ordering::SeqCst);
        for bell in &self.bells {
            bell.ring();
        }
        for handle in self.threads {
            let _ = handle.join();
        }
    }
}

/// The listener plus, per I/O thread, where to hand a new stream and
/// the doorbell that tells the thread it is there.
type Acceptor = (TcpListener, Vec<(mpsc::Sender<TcpStream>, Doorbell)>);

fn io_loop(
    mut acceptor: Option<Acceptor>,
    injector: mpsc::Receiver<TcpStream>,
    bell: Doorbell,
    exit: &AtomicBool,
    dispatch: &Dispatch,
) {
    bell.0.owner.get_or_init(|| thread::current().id());
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut next = 0usize;
    loop {
        // Sleep until a slot is ready: the doorbell, the listener
        // (thread 0 until exit), or a connection. Every source of work
        // is one of these, so a pass never needs a second look.
        fds.clear();
        fds.push(PollFd::new(&bell.0.rx, POLLIN));
        if let Some((listener, _)) = &acceptor {
            fds.push(PollFd::new(listener, POLLIN));
        }
        let base = fds.len();
        fds.extend(conns.iter().map(|c| PollFd::new(&c.stream, c.interest())));
        if sys::poll(&mut fds, None).is_err() {
            // Cannot happen with valid slots; never spin on it.
            thread::sleep(Duration::from_millis(1));
        }
        if fds[0].ready() {
            bell.drain();
        }
        for (conn, fd) in conns.iter_mut().zip(&fds[base..]) {
            conn.ready |= fd.ready();
        }

        // Latch the flag once per pass so every connection gets exactly
        // one final-flush pass after it flips.
        let exiting = exit.load(Ordering::SeqCst);

        if exiting {
            acceptor = None;
        } else if let Some((listener, hand_off)) = &acceptor {
            if fds[1].ready() {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let (to, bell) = &hand_off[next % hand_off.len()];
                            if to.send(stream).is_ok() {
                                bell.ring();
                            }
                            next += 1;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            acceptor = None;
                            break;
                        }
                    }
                }
            }
        }

        while let Ok(stream) = injector.try_recv() {
            if let Ok(conn) = Conn::new(stream, bell.clone()) {
                conns.push(conn);
            }
        }

        for conn in &mut conns {
            conn.poll(dispatch, exiting);
        }
        conns.retain(|c| !c.dead);

        if exiting && conns.is_empty() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A connected pair: the daemon side wrapped as a [`Conn`] and the
    /// client side as a plain blocking stream.
    fn conn_pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        let conn = Conn::new(server, Doorbell::new().expect("doorbell")).expect("conn");
        (conn, client)
    }

    /// Poll `conn` until `done` holds (bounded, so a bug fails the test
    /// rather than hanging it).
    fn pass_until(conn: &mut Conn, dispatch: &Dispatch, done: impl Fn(&Conn) -> bool) {
        for _ in 0..2000 {
            conn.ready = true;
            conn.poll(dispatch, false);
            if done(conn) {
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
        panic!("connection never reached the expected state");
    }

    #[test]
    fn a_long_line_in_many_reads_is_scanned_once() {
        let (mut conn, mut client) = conn_pair();
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let dispatch: Dispatch = {
            let lines = Arc::clone(&lines);
            Arc::new(move |line, _| lines.lock().unwrap().push(line.to_string()))
        };
        let body = "x".repeat(40_000);
        let mut sent = 0;
        for piece in body.as_bytes().chunks(4_000) {
            client.write_all(piece).unwrap();
            sent += piece.len();
            pass_until(&mut conn, &dispatch, |c| c.rbuf.len() == sent);
            // Every byte buffered so far was searched, none will be again.
            assert_eq!(conn.scanned, sent);
        }
        assert!(lines.lock().unwrap().is_empty(), "no newline yet");
        client.write_all(b"\nnext").unwrap();
        pass_until(&mut conn, &dispatch, |c| c.rbuf == b"next");
        assert_eq!(conn.scanned, 4);
        assert_eq!(*lines.lock().unwrap(), vec![body]);
    }

    #[test]
    fn a_line_that_is_not_utf8_gets_exactly_one_error() {
        let (mut conn, mut client) = conn_pair();
        let lines = Arc::new(Mutex::new(Vec::<String>::new()));
        let dispatch: Dispatch = {
            let lines = Arc::clone(&lines);
            Arc::new(move |line, _| lines.lock().unwrap().push(line.to_string()))
        };
        client
            .write_all(b"{\"op\":\xff\xfe}\n{\"op\":\"stats\"}\n")
            .unwrap();
        pass_until(&mut conn, &dispatch, |c| {
            c.wbuf.is_empty() && lines.lock().unwrap().len() == 1
        });
        assert_eq!(*lines.lock().unwrap(), vec!["{\"op\":\"stats\"}"]);
        client
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut reply = Vec::new();
        let mut byte = [0u8; 1];
        while matches!(client.read(&mut byte), Ok(1)) {
            reply.push(byte[0]);
        }
        let reply = String::from_utf8(reply).unwrap();
        assert_eq!(reply.lines().count(), 1, "{reply}");
        assert!(reply.contains("\"status\":\"error\""), "{reply}");
        assert!(reply.contains("not valid UTF-8"), "{reply}");
    }
}
