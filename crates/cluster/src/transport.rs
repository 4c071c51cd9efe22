//! Framed TCP transport: one [`FramedConn`] per socket, bounded timeouts
//! on every read and write, byte counters, a deterministic
//! fault-injection shim, and the fabric's two connection paths:
//! `ConnPool` for every outbound call, `Server` for every inbound one.
//!
//! The fabric is std-only: plain `TcpStream`s on loopback (or any
//! network), thread-per-connection on the accepting side. Every
//! connection gets explicit read/write timeouts, so a dead peer costs a
//! bounded wait — never a hang — and the caller maps the typed
//! [`TransportError`] to a retriable `NodeUnavailable`.
//!
//! Fault injection ([`FaultPlan`]) is symmetric: a *sent* frame can be
//! silently dropped (the peer's read times out), delayed, or the socket
//! torn down mid-conversation; a *received* frame can be swallowed after
//! full receipt or delayed before delivery; and periodic **partition
//! windows** black out both directions at once, so the endpoint looks
//! alive at the TCP layer but exchanges nothing. Every schedule is a pure
//! function of the plan's seed and the connection's index, so a failing
//! run replays exactly.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::ClusterError;
use crate::lock_clean;
use crate::retry::splitmix64;
use crate::wire::{decode_message, encode_frame, Message, WireError, MAX_PAYLOAD};

/// Transport-level failures, distinct from protocol-level [`WireError`]s
/// (which are also surfaced here once bytes arrive but do not parse).
#[derive(Debug)]
pub enum TransportError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// The peer closed the connection (EOF mid-protocol).
    Closed,
    /// No full frame arrived within the read timeout.
    TimedOut,
    /// Bytes arrived but did not parse.
    Wire(WireError),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "io error: {e}"),
            TransportError::Closed => write!(f, "peer closed the connection"),
            TransportError::TimedOut => write!(f, "timed out waiting for a frame"),
            TransportError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        TransportError::Wire(e)
    }
}

/// Bytes moved through a set of connections (an endpoint shares one
/// counter pair across all its sockets).
#[derive(Debug, Default)]
pub struct WireCounters {
    /// Bytes written.
    pub sent: AtomicU64,
    /// Bytes read.
    pub recv: AtomicU64,
}

impl WireCounters {
    /// Reads both counters.
    #[must_use]
    pub fn totals(&self) -> (u64, u64) {
        (
            self.sent.load(Ordering::Relaxed),
            self.recv.load(Ordering::Relaxed),
        )
    }
}

/// Declarative fault schedule, deterministic from `seed`. Rates are per
/// mille per frame; send-side faults are rolled independently per frame
/// in the order disconnect → drop → delay, receive-side faults (drop →
/// delay) from a second independent stream, and partition windows black
/// out both directions on a shared frame counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the xorshift streams all rolls derive from.
    pub seed: u64,
    /// Sent frames silently dropped, per mille.
    pub drop_per_mille: u32,
    /// Sent frames delayed by [`FaultPlan::delay`], per mille.
    pub delay_per_mille: u32,
    /// Delay applied to delayed frames (both directions).
    pub delay: Duration,
    /// Sends that tear the connection down instead, per mille.
    pub disconnect_per_mille: u32,
    /// Received frames swallowed *after* full receipt, per mille — the
    /// bytes crossed the socket (and are counted) but the caller never
    /// sees the message, so the requester's read times out.
    pub recv_drop_per_mille: u32,
    /// Received frames delayed by [`FaultPlan::delay`] before delivery,
    /// per mille.
    pub recv_delay_per_mille: u32,
    /// Bidirectional partition cadence: out of every `partition_period`
    /// frames crossing the connection (sends and receives share one
    /// counter), [`FaultPlan::partition_len`] consecutive frames are
    /// blacked out. Each connection's cadence starts at a deterministic
    /// per-connection phase, so the fresh dial that replaces a connection
    /// torn by a blackout is not automatically born inside the next one.
    /// `0` disables partitions.
    pub partition_period: u64,
    /// Frames blacked out per partition window.
    pub partition_len: u64,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a config default).
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            drop_per_mille: 0,
            delay_per_mille: 0,
            delay: Duration::ZERO,
            disconnect_per_mille: 0,
            recv_drop_per_mille: 0,
            recv_delay_per_mille: 0,
            partition_period: 0,
            partition_len: 0,
        }
    }

    /// Builds the injector for the `index`-th connection of this plan.
    /// Each connection gets its own deterministic roll streams (one per
    /// direction), so the fault sequence does not depend on
    /// cross-connection interleaving.
    #[must_use]
    pub fn injector(&self, index: u64) -> FaultInjector {
        let lane = self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        // Phase-shift the partition cadence per connection: the window
        // still reopens every `partition_period` frames, but where in the
        // cycle this connection starts is a deterministic roll.
        let phase = if self.partition_period == 0 {
            0
        } else {
            stream_seed(lane ^ 0x0FF5_0FF5_0FF5_0FF5) % self.partition_period
        };
        FaultInjector {
            plan: *self,
            state: stream_seed(lane),
            recv_state: stream_seed(lane ^ 0xD1E5_E10F_ACE5_0FF5),
            frames: phase,
        }
    }
}

/// One fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    Drop,
    Delay(Duration),
    Disconnect,
}

/// Per-connection deterministic fault roller, owned by its connection.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: u64,
    recv_state: u64,
    frames: u64,
}

/// A nonzero xorshift state (zero is xorshift's fixed point).
fn stream_seed(x: u64) -> u64 {
    splitmix64(x) | 1
}

impl FaultInjector {
    fn draw(state: &mut u64) -> u32 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state % 1000) as u32
    }

    /// Send-side roll: disconnect → drop → delay.
    fn roll(&mut self) -> Fault {
        let draw = Self::draw(&mut self.state);
        let p = &self.plan;
        if draw < p.disconnect_per_mille {
            Fault::Disconnect
        } else if draw < p.disconnect_per_mille + p.drop_per_mille {
            Fault::Drop
        } else if draw < p.disconnect_per_mille + p.drop_per_mille + p.delay_per_mille {
            Fault::Delay(p.delay)
        } else {
            Fault::None
        }
    }

    /// Receive-side roll: drop → delay (a receiver cannot "disconnect" a
    /// frame it already has; teardown is a send-side fault).
    fn recv_roll(&mut self) -> Fault {
        let draw = Self::draw(&mut self.recv_state);
        let p = &self.plan;
        if draw < p.recv_drop_per_mille {
            Fault::Drop
        } else if draw < p.recv_drop_per_mille + p.recv_delay_per_mille {
            Fault::Delay(p.delay)
        } else {
            Fault::None
        }
    }

    /// Advances the shared frame counter and reports whether this frame
    /// falls inside a partition blackout window.
    fn partitioned(&mut self) -> bool {
        let p = &self.plan;
        if p.partition_period == 0 || p.partition_len == 0 {
            return false;
        }
        let frame = self.frames;
        self.frames = frame.wrapping_add(1);
        frame % p.partition_period < p.partition_len
    }
}

/// A framed, fault-injectable message stream over one `TcpStream`.
#[derive(Debug)]
pub struct FramedConn {
    stream: TcpStream,
    counters: Arc<WireCounters>,
    faults: Option<FaultInjector>,
}

impl FramedConn {
    /// Dials `addr` with `timeout` as the connect, read, and write bound.
    ///
    /// # Errors
    /// Any socket error (unresolvable address, refused, timed out).
    pub fn connect(
        addr: &str,
        timeout: Duration,
        counters: Arc<WireCounters>,
    ) -> Result<Self, TransportError> {
        let sockaddr: SocketAddr = addr
            .to_socket_addrs()
            .map_err(TransportError::Io)?
            .next()
            .ok_or_else(|| {
                TransportError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("address {addr} resolved to nothing"),
                ))
            })?;
        // Classified, not raw `Io`: a connect that times out must look
        // exactly like a read that timed out (`TimedOut`) so retry
        // classification upstream is platform-independent.
        let stream = TcpStream::connect_timeout(&sockaddr, timeout).map_err(|e| classify(&e))?;
        Self::from_stream(stream, timeout, counters)
    }

    /// Wraps an accepted (or freshly dialed) stream, installing bounded
    /// read/write timeouts.
    ///
    /// # Errors
    /// Socket-option failures.
    pub fn from_stream(
        stream: TcpStream,
        timeout: Duration,
        counters: Arc<WireCounters>,
    ) -> Result<Self, TransportError> {
        stream.set_nodelay(true).map_err(TransportError::Io)?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(TransportError::Io)?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(TransportError::Io)?;
        Ok(Self {
            stream,
            counters,
            faults: None,
        })
    }

    /// Installs a fault injector on this connection (both directions).
    #[must_use]
    pub fn with_faults(mut self, injector: FaultInjector) -> Self {
        self.faults = Some(injector);
        self
    }

    /// Sends one message, rolling the fault plan first: a partitioned or
    /// dropped frame returns `Ok` without writing (the peer sees
    /// silence), a delayed frame sleeps, a disconnect tears the socket
    /// down and errors.
    ///
    /// # Errors
    /// Socket errors, encode failures, injected disconnects.
    pub fn send(&mut self, msg: &Message) -> Result<(), TransportError> {
        if let Some(faults) = &mut self.faults {
            if faults.partitioned() {
                return Ok(());
            }
            match faults.roll() {
                Fault::None => {}
                Fault::Drop => return Ok(()),
                Fault::Delay(d) => std::thread::sleep(d),
                Fault::Disconnect => {
                    let _ = self.stream.shutdown(Shutdown::Both);
                    return Err(TransportError::Closed);
                }
            }
        }
        let frame = encode_frame(msg)?;
        self.stream.write_all(&frame).map_err(|e| classify(&e))?;
        self.counters
            .sent
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Receives one message, waiting at most one read-timeout for it to
    /// start arriving.
    ///
    /// # Errors
    /// [`TransportError::TimedOut`] when nothing arrives in time,
    /// [`TransportError::Closed`] on EOF, wire errors on garbage.
    pub fn recv(&mut self) -> Result<Message, TransportError> {
        self.recv_idle(&mut || false)
    }

    /// Receives one message; on an idle read timeout (no byte of the next
    /// frame arrived yet) consults `keep_waiting` — `true` keeps
    /// listening, `false` gives up with [`TransportError::TimedOut`].
    /// The serve loop passes its shutdown flag here, so an idle accepted
    /// connection outlives any number of read timeouts but never a stop.
    ///
    /// Receive-side faults are rolled *after* a frame fully arrives: a
    /// partitioned or dropped frame is swallowed (bytes counted, message
    /// discarded) and the read continues waiting for the next one — to
    /// the requester this is indistinguishable from send-side loss.
    ///
    /// # Errors
    /// See [`FramedConn::recv`].
    pub fn recv_idle(
        &mut self,
        keep_waiting: &mut dyn FnMut() -> bool,
    ) -> Result<Message, TransportError> {
        loop {
            let msg = self.recv_frame(keep_waiting)?;
            if let Some(faults) = &mut self.faults {
                if faults.partitioned() {
                    continue;
                }
                match faults.recv_roll() {
                    Fault::None => {}
                    Fault::Drop => continue,
                    Fault::Delay(d) => std::thread::sleep(d),
                    // recv_roll never yields Disconnect.
                    Fault::Disconnect => {}
                }
            }
            return Ok(msg);
        }
    }

    /// Reads exactly one frame off the socket (no fault rolls).
    fn recv_frame(
        &mut self,
        keep_waiting: &mut dyn FnMut() -> bool,
    ) -> Result<Message, TransportError> {
        let mut header = [0u8; 4];
        self.read_exact_idle(&mut header, keep_waiting)?;
        let len = u32::from_be_bytes(header);
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversized {
                len: u64::from(len),
            }
            .into());
        }
        // The frame has started: finish it regardless of keep_waiting.
        let mut payload = vec![0u8; len as usize];
        self.read_exact_idle(&mut payload, &mut || true)?;
        self.counters
            .recv
            .fetch_add(4 + u64::from(len), Ordering::Relaxed);
        Ok(decode_message(&payload)?)
    }

    /// `read_exact` that survives read-timeout wakeups: progress made so
    /// far is kept, and `keep_waiting` decides whether an *idle* timeout
    /// (zero bytes of `buf` filled) aborts. A timeout mid-buffer always
    /// keeps waiting — the bytes are in flight.
    fn read_exact_idle(
        &mut self,
        buf: &mut [u8],
        keep_waiting: &mut dyn FnMut() -> bool,
    ) -> Result<(), TransportError> {
        let mut filled = 0usize;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => filled += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if filled == 0 && !keep_waiting() {
                        return Err(TransportError::TimedOut);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(classify(&e)),
            }
        }
        Ok(())
    }

    /// One round trip: send `msg`, wait for the answer.
    ///
    /// # Errors
    /// See [`FramedConn::send`] and [`FramedConn::recv`].
    pub fn call(&mut self, msg: &Message) -> Result<Message, TransportError> {
        self.send(msg)?;
        self.recv()
    }
}

fn classify(e: &std::io::Error) -> TransportError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => TransportError::TimedOut,
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe => TransportError::Closed,
        _ => TransportError::Io(std::io::Error::new(e.kind(), e.to_string())),
    }
}

/// The one outbound path: idle connections pooled per peer address, as
/// many per peer as the caller's peak concurrency towards it (a publish
/// racing a heartbeat never shares a stream), so steady traffic dials
/// nothing.
///
/// A connection returns to the pool only when its call succeeds, so a
/// poisoned stream never serves a later call. A pooled stream can be
/// *stale* (the peer restarted, or a fault tore it); every call in the
/// fabric is idempotent, so a transport failure on one falls through to
/// exactly one fresh dial before it surfaces. Wire errors are typed peer
/// answers, not staleness, and surface at once.
#[derive(Debug)]
pub(crate) struct ConnPool {
    io_timeout: Duration,
    fault: Option<FaultPlan>,
    counters: Arc<WireCounters>,
    idle: Mutex<HashMap<String, Vec<FramedConn>>>,
    /// Fault-injector index of the next dial.
    next_conn: AtomicU64,
    reconnects: AtomicU64,
}

impl ConnPool {
    /// An empty pool dialing with `io_timeout`, injecting `fault` on
    /// every connection it opens, and counting bytes into `counters`.
    pub(crate) fn new(
        io_timeout: Duration,
        fault: Option<FaultPlan>,
        counters: Arc<WireCounters>,
    ) -> Self {
        Self {
            io_timeout,
            fault,
            counters,
            idle: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
        }
    }

    /// Runs `f` over a pooled (or freshly dialed) connection to `addr`.
    pub(crate) fn with_conn<T>(
        &self,
        addr: &str,
        mut f: impl FnMut(&mut FramedConn) -> Result<T, TransportError>,
    ) -> Result<T, TransportError> {
        // Bind the pooled entry first: an `if let` on the locked pool
        // would hold the guard across the call (and deadlock on return).
        let pooled = lock_clean(&self.idle).get_mut(addr).and_then(Vec::pop);
        if let Some(mut conn) = pooled {
            match f(&mut conn) {
                Ok(out) => {
                    self.park(addr, conn);
                    return Ok(out);
                }
                Err(e @ TransportError::Wire(_)) => return Err(e),
                Err(_) => {
                    self.reconnects.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let mut conn = FramedConn::connect(addr, self.io_timeout, Arc::clone(&self.counters))?;
        if let Some(plan) = &self.fault {
            conn = conn.with_faults(plan.injector(self.next_conn.fetch_add(1, Ordering::Relaxed)));
        }
        let out = f(&mut conn)?;
        self.park(addr, conn);
        Ok(out)
    }

    /// One round trip to `addr`.
    pub(crate) fn call(&self, addr: &str, msg: &Message) -> Result<Message, TransportError> {
        self.with_conn(addr, |conn| conn.call(msg))
    }

    fn park(&self, addr: &str, conn: FramedConn) {
        lock_clean(&self.idle)
            .entry(addr.to_string())
            .or_default()
            .push(conn);
    }

    /// Closes the idle connections to every address `keep` rejects.
    pub(crate) fn retain(&self, mut keep: impl FnMut(&str) -> bool) {
        lock_clean(&self.idle).retain(|addr, _| keep(addr));
    }

    /// Stale pooled connections replaced by a fresh dial.
    pub(crate) fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }
}

/// How often an idle accept loop checks for shutdown and runs its idle
/// hook. With pooled callers only a peer's first call waits on it.
pub(crate) const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Binds a loopback listener on an ephemeral port.
pub(crate) fn bind_loopback() -> Result<(TcpListener, String), ClusterError> {
    let invalid = |what: &str, e: std::io::Error| ClusterError::InvalidConfig {
        reason: format!("{what}: {e}"),
    };
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| invalid("cannot bind a loopback listener", e))?;
    let addr = listener
        .local_addr()
        .map_err(|e| invalid("listener has no local address", e))?;
    Ok((listener, addr.to_string()))
}

/// What one listener serves with: fixed at spawn, shared by its threads.
struct ServerShared {
    io_timeout: Duration,
    counters: Arc<WireCounters>,
    fault: Option<FaultPlan>,
    /// The role's protocol: one reply per inbound message.
    handler: Box<dyn Fn(Message) -> Message + Send + Sync>,
    shutdown: AtomicBool,
    /// Fault-injector index of the next accepted connection, which is
    /// also the count accepted so far.
    next_conn: AtomicU64,
    /// Live connection threads, each with a clone of its socket so
    /// [`Server::stop`] can close it under an idle reader.
    conns: Mutex<Vec<(TcpStream, JoinHandle<()>)>>,
}

/// The one inbound path: an accept thread plus one thread per accepted
/// connection, each answering frames with the role's handler until the
/// peer leaves or the server stops.
pub(crate) struct Server {
    shared: Arc<ServerShared>,
    accept: JoinHandle<()>,
}

impl Server {
    /// Serves `listener` on a background accept thread. Accepted
    /// connections get `io_timeout` and, when `fault` is set, the
    /// injector for their accept index; wire garbage is answered `Bad`
    /// and the connection keeps serving. `idle` runs on every accept
    /// poll that finds nothing pending.
    pub(crate) fn spawn(
        listener: TcpListener,
        io_timeout: Duration,
        counters: Arc<WireCounters>,
        fault: Option<FaultPlan>,
        handler: impl Fn(Message) -> Message + Send + Sync + 'static,
        idle: impl Fn() + Send + 'static,
    ) -> Self {
        let shared = Arc::new(ServerShared {
            io_timeout,
            counters,
            fault,
            handler: Box::new(handler),
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared, &idle))
        };
        Self { shared, accept }
    }

    /// Connections accepted so far.
    #[cfg(test)]
    pub(crate) fn accepted(&self) -> u64 {
        self.shared.next_conn.load(Ordering::Relaxed)
    }

    /// Stops accepting, closes every accepted stream (idle pooled peers
    /// included, so nothing waits out a read timeout), and joins every
    /// thread.
    pub(crate) fn stop(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.accept.join();
        let conns = std::mem::take(&mut *lock_clean(&self.shared.conns));
        for (stream, handle) in conns {
            let _ = stream.shutdown(Shutdown::Both);
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>, idle: &dyn Fn()) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let index = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                let Ok(closer) = stream.try_clone() else {
                    continue;
                };
                let handle = {
                    let shared = Arc::clone(shared);
                    std::thread::spawn(move || serve_conn(stream, index, &shared))
                };
                // Reap finished connection threads on the way in, so a
                // long-lived listener tracks only its live connections.
                let mut conns = lock_clean(&shared.conns);
                conns.retain(|(_, h)| !h.is_finished());
                conns.push((closer, handle));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                idle();
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

fn serve_conn(stream: TcpStream, index: u64, shared: &ServerShared) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let Ok(mut conn) =
        FramedConn::from_stream(stream, shared.io_timeout, Arc::clone(&shared.counters))
    else {
        return;
    };
    if let Some(plan) = &shared.fault {
        conn = conn.with_faults(plan.injector(index));
    }
    loop {
        let reply = match conn.recv_idle(&mut || !shared.shutdown.load(Ordering::SeqCst)) {
            Ok(msg) => (shared.handler)(msg),
            // Garbage on the wire: answer typed, then keep serving.
            Err(TransportError::Wire(e)) => Message::Bad {
                detail: e.to_string(),
            },
            // The peer left, or the server is stopping: wind down.
            Err(_) => return,
        };
        // A busy peer never idles into the shutdown check above.
        if conn.send(&reply).is_err() || shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (FramedConn, FramedConn) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let timeout = Duration::from_millis(500);
        let client = FramedConn::connect(&addr, timeout, Arc::new(WireCounters::default()))
            .expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let server = FramedConn::from_stream(accepted, timeout, Arc::new(WireCounters::default()))
            .expect("wrap");
        (client, server)
    }

    #[test]
    fn frames_cross_a_real_socket_and_are_counted() {
        let (mut client, mut server) = pair();
        client.send(&Message::Ping { seq: 42 }).expect("send");
        let got = server.recv().expect("recv");
        assert_eq!(got, Message::Ping { seq: 42 });
        server
            .send(&Message::Pong { seq: 42, epoch: 7 })
            .expect("send");
        assert_eq!(
            client.recv().expect("recv"),
            Message::Pong { seq: 42, epoch: 7 }
        );
        let (sent, recv) = client.counters.totals();
        assert!(sent > 0 && recv > 0);
        // Both directions framed identically: what one side sent, the
        // other counted received.
        assert_eq!(server.counters.totals().1, sent);
        assert_eq!(server.counters.totals().0, recv);
    }

    #[test]
    fn idle_timeout_is_bounded_and_typed() {
        let (mut client, _server) = pair();
        let started = std::time::Instant::now();
        let err = client.recv().expect_err("nothing was sent");
        assert!(matches!(err, TransportError::TimedOut));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn dropped_frames_leave_the_peer_waiting() {
        let (client, mut server) = pair();
        let plan = FaultPlan {
            drop_per_mille: 1000,
            ..FaultPlan::quiet(7)
        };
        let mut client = client.with_faults(plan.injector(0));
        client
            .send(&Message::Ping { seq: 1 })
            .expect("drop is silent");
        assert!(matches!(
            server.recv().expect_err("frame was dropped"),
            TransportError::TimedOut
        ));
        assert_eq!(client.counters.totals().0, 0);
    }

    #[test]
    fn injected_disconnects_are_loud_on_both_sides() {
        let (client, mut server) = pair();
        let plan = FaultPlan {
            disconnect_per_mille: 1000,
            ..FaultPlan::quiet(7)
        };
        let mut client = client.with_faults(plan.injector(3));
        assert!(matches!(
            client
                .send(&Message::Ping { seq: 1 })
                .expect_err("torn down"),
            TransportError::Closed
        ));
        assert!(matches!(
            server.recv().expect_err("peer vanished"),
            TransportError::Closed | TransportError::Io(_)
        ));
    }

    #[test]
    fn fault_schedule_is_deterministic_per_seed_and_connection() {
        let plan = FaultPlan {
            drop_per_mille: 200,
            delay_per_mille: 100,
            delay: Duration::from_millis(1),
            disconnect_per_mille: 50,
            recv_drop_per_mille: 150,
            ..FaultPlan::quiet(99)
        };
        let a: Vec<_> = {
            let mut inj = plan.injector(5);
            (0..64).map(|_| (inj.roll(), inj.recv_roll())).collect()
        };
        let b: Vec<_> = {
            let mut inj = plan.injector(5);
            (0..64).map(|_| (inj.roll(), inj.recv_roll())).collect()
        };
        assert_eq!(a, b);
        let other: Vec<_> = {
            let mut inj = plan.injector(6);
            (0..64).map(|_| (inj.roll(), inj.recv_roll())).collect()
        };
        assert_ne!(a, other);
        assert!(a.iter().any(|(f, _)| *f != Fault::None));
        // The two directions draw from independent streams.
        assert!(a
            .iter()
            .any(|(f, r)| (*f == Fault::None) != (*r == Fault::None)));
    }

    #[test]
    fn recv_side_drops_swallow_frames_after_receipt() {
        let (mut client, server) = pair();
        let plan = FaultPlan {
            recv_drop_per_mille: 1000,
            ..FaultPlan::quiet(11)
        };
        let mut server = server.with_faults(plan.injector(0));
        client.send(&Message::Ping { seq: 9 }).expect("send");
        // The bytes cross the socket, but the receiver swallows the frame
        // and keeps waiting until its idle timeout fires.
        assert!(matches!(
            server.recv().expect_err("every frame is swallowed"),
            TransportError::TimedOut
        ));
        assert!(
            server.counters.totals().1 > 0,
            "swallowed bytes still count"
        );
    }

    #[test]
    fn partition_windows_black_out_both_directions() {
        let (client, mut server) = pair();
        // Every frame falls inside the blackout window.
        let plan = FaultPlan {
            partition_period: 4,
            partition_len: 4,
            ..FaultPlan::quiet(3)
        };
        let mut client = client.with_faults(plan.injector(0));
        client.send(&Message::Ping { seq: 1 }).expect("silent");
        assert_eq!(
            client.counters.totals().0,
            0,
            "partitioned send writes nothing"
        );
        assert!(matches!(
            server.recv().expect_err("nothing crossed"),
            TransportError::TimedOut
        ));
        // And the same window swallows inbound frames too.
        server
            .send(&Message::Pong { seq: 1, epoch: 0 })
            .expect("send");
        assert!(matches!(
            client.recv().expect_err("inbound blacked out"),
            TransportError::TimedOut
        ));
    }

    #[test]
    fn partition_windows_reopen_on_schedule() {
        let plan = FaultPlan {
            partition_period: 4,
            partition_len: 2,
            ..FaultPlan::quiet(3)
        };
        // The cadence starts at a per-connection phase, so assert the
        // shape, not the offset: exactly `len` of every `period`
        // consecutive frames are blacked out, the pattern repeats with
        // the period, and the blackout frames are contiguous (cyclically).
        for index in 0..16 {
            let mut inj = plan.injector(index);
            let pattern: Vec<bool> = (0..16).map(|_| inj.partitioned()).collect();
            for window in pattern.windows(4) {
                assert_eq!(window.iter().filter(|&&b| b).count(), 2, "{pattern:?}");
            }
            for (a, b) in pattern.iter().zip(pattern.iter().skip(4)) {
                assert_eq!(a, b, "cadence drifted: {pattern:?}");
            }
        }
        // And across connections the phases differ: not every fresh dial
        // may be born partitioned.
        let clean_start = (0..16).any(|index| !plan.injector(index).partitioned());
        assert!(clean_start, "every connection starts inside the blackout");
    }

    fn echo_server() -> (Server, String) {
        let (listener, addr) = bind_loopback().expect("bind");
        let server = Server::spawn(
            listener,
            Duration::from_secs(2),
            Arc::new(WireCounters::default()),
            None,
            |msg| match msg {
                Message::Ping { seq } => Message::Pong { seq, epoch: 0 },
                other => other,
            },
            || {},
        );
        (server, addr)
    }

    #[test]
    fn serve_loop_reaps_finished_connection_threads() {
        let (server, addr) = echo_server();
        let mut peak = 0;
        for seq in 0..200 {
            let mut conn = FramedConn::connect(
                &addr,
                Duration::from_secs(2),
                Arc::new(WireCounters::default()),
            )
            .expect("connect");
            assert_eq!(
                conn.call(&Message::Ping { seq }).expect("call"),
                Message::Pong { seq, epoch: 0 }
            );
            drop(conn);
            peak = peak.max(lock_clean(&server.shared.conns).len());
        }
        assert_eq!(server.accepted(), 200);
        assert!(
            peak <= 8,
            "{peak} connection threads tracked for one live peer"
        );
        server.stop();
    }

    #[test]
    fn pool_reuses_one_connection_and_redials_a_stale_one() {
        // A peer that serves 20 calls on its first connection, hangs up,
        // then serves one call on its second.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let peer = std::thread::spawn(move || {
            for calls in [20, 1] {
                let (stream, _) = listener.accept().expect("accept");
                let mut conn = FramedConn::from_stream(
                    stream,
                    Duration::from_secs(2),
                    Arc::new(WireCounters::default()),
                )
                .expect("wrap");
                for _ in 0..calls {
                    let msg = conn.recv().expect("recv");
                    conn.send(&msg).expect("send");
                }
            }
        });
        let pool = ConnPool::new(
            Duration::from_secs(2),
            None,
            Arc::new(WireCounters::default()),
        );
        for seq in 0..21 {
            let reply = pool.call(&addr, &Message::Ping { seq }).expect("call");
            assert_eq!(reply, Message::Ping { seq });
        }
        // 21 calls over two accepted connections: the stale one was
        // replaced by exactly one fresh dial.
        assert_eq!(pool.reconnects(), 1);
        peer.join().expect("peer served both connections");
    }

    #[test]
    fn stop_closes_idle_accepted_connections_at_once() {
        let (server, addr) = echo_server();
        let mut conn = FramedConn::connect(
            &addr,
            Duration::from_secs(2),
            Arc::new(WireCounters::default()),
        )
        .expect("connect");
        conn.call(&Message::Ping { seq: 1 }).expect("call");
        let started = std::time::Instant::now();
        server.stop();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "stop waited on an idle peer"
        );
        assert!(conn.recv().is_err(), "the peer's stream stayed open");
    }

    #[test]
    fn timeouts_classify_identically_regardless_of_platform_kind() {
        for kind in [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut] {
            assert!(matches!(
                classify(&std::io::Error::new(kind, "t")),
                TransportError::TimedOut
            ));
        }
        assert!(matches!(
            classify(&std::io::Error::new(std::io::ErrorKind::BrokenPipe, "p")),
            TransportError::Closed
        ));
    }

    #[test]
    fn connect_to_a_dead_port_fails_typed_not_raw() {
        // Bind a listener, note its port, drop it: connecting now must
        // fail through `classify`, i.e. never panic and never produce a
        // `TimedOut`-shaped raw `Io`.
        let port = {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").port()
        };
        let err = FramedConn::connect(
            &format!("127.0.0.1:{port}"),
            Duration::from_millis(200),
            Arc::new(WireCounters::default()),
        )
        .expect_err("nothing listens");
        assert!(matches!(
            err,
            TransportError::Io(_) | TransportError::Closed | TransportError::TimedOut
        ));
    }
}
