//! Offline in-tree binding for the Linux readiness syscalls `std::net` does
//! not expose — the shim-crate counterpart of `serde` under
//! `crates/shims/`, except that here the thing being replaced is not a
//! crates.io dependency but the `libc`/`mio` layer a reactor would normally
//! sit on. The workspace is fully offline, so the handful of syscalls the
//! cluster's event loop needs are declared directly against the libc that
//! std already links:
//!
//! * [`Poller`] — `epoll_create1` / `epoll_ctl` / `epoll_wait` behind a safe
//!   token-based readiness API ([`Events`] / [`Event`]).
//! * [`connect_nonblocking`] — `socket(SOCK_NONBLOCK) + connect`, returning
//!   an in-progress [`TcpStream`]; completion is an [`Event::writable`]
//!   wakeup, success/failure read with [`TcpStream::take_error`].
//! * [`listen_on`] — `socket + bind + listen` with an explicit accept
//!   backlog (std hardcodes 128, far too small for a high-fanout site).
//! * [`raise_nofile_limit`] — lifts `RLIMIT_NOFILE`'s soft limit to the hard
//!   limit, so a site or load client can hold tens of thousands of sockets.
//!
//! This crate is the only place in the workspace allowed to contain `unsafe`
//! (`homeo-cluster` itself is `#![forbid(unsafe_code)]`): every binding is
//! wrapped so callers only ever see owned std types and `io::Result`s.
//! Linux-only, like the deployment path it serves.

#![warn(missing_docs)]

use std::ffi::{c_int, c_void};
use std::io;
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::time::Duration;

// Constants from the Linux uapi headers (x86_64/aarch64 generic values).
const EPOLL_CLOEXEC: c_int = 0x80000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0x800;
const SOCK_CLOEXEC: c_int = 0x80000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;
const EINPROGRESS: i32 = 115;
const EINTR: i32 = 4;
const RLIMIT_NOFILE: c_int = 7;

/// `struct epoll_event`: packed on x86_64 (a kernel ABI quirk), naturally
/// aligned everywhere else.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct RawEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

#[repr(C)]
struct SockAddrIn {
    family: u16,
    /// Big-endian.
    port: u16,
    /// Big-endian.
    addr: u32,
    zero: [u8; 8],
}

#[repr(C)]
struct SockAddrIn6 {
    family: u16,
    /// Big-endian.
    port: u16,
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut RawEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut RawEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(sockfd: c_int, addr: *const c_void, len: u32) -> c_int;
    fn bind(sockfd: c_int, addr: *const c_void, len: u32) -> c_int;
    fn listen(sockfd: c_int, backlog: c_int) -> c_int;
    fn setsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const RLimit) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness wakeup for a registered file descriptor, identified by the
/// caller-chosen token.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token passed at registration.
    pub token: u64,
    /// Data (or EOF, or an error) can be read without blocking.
    pub readable: bool,
    /// The send buffer has room (or the error is pending) — a write will not
    /// block.
    pub writable: bool,
    /// The kernel flagged the connection as errored or hung up
    /// (`EPOLLERR`/`EPOLLHUP`/`EPOLLRDHUP`); the next read/write surfaces
    /// the detail.
    pub closed: bool,
}

/// A reusable buffer of [`Event`]s filled by [`Poller::wait`].
pub struct Events {
    raw: Vec<RawEvent>,
    count: usize,
}

impl Events {
    /// A buffer holding at most `capacity` events per wait (minimum one).
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            raw: vec![RawEvent { events: 0, data: 0 }; capacity.max(1)],
            count: 0,
        }
    }

    /// Events delivered by the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.raw[..self.count].iter().map(|raw| {
            // Copy out of the (possibly packed) kernel struct before use.
            let bits = { raw.events };
            Event {
                token: { raw.data },
                readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                writable: bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            }
        })
    }

    /// Number of events delivered by the last [`Poller::wait`].
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the last wait timed out without events.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// A level-triggered epoll instance: register descriptors with a token and
/// an interest set, then [`wait`](Poller::wait) for readiness.
pub struct Poller {
    fd: RawFd,
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is an
        // error, any other return is a fresh fd we own.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { fd })
    }

    fn interest(readable: bool, writable: bool) -> u32 {
        let mut events = EPOLLRDHUP;
        if readable {
            events |= EPOLLIN;
        }
        if writable {
            events |= EPOLLOUT;
        }
        events
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = RawEvent {
            events,
            data: token,
        };
        // SAFETY: `event` outlives the call; the kernel copies it. The fd is
        // the caller's live descriptor (enforced by taking `&impl AsRawFd`).
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut event) })?;
        Ok(())
    }

    /// Registers a descriptor under `token` with the given interest.
    pub fn add(
        &self,
        fd: &impl AsRawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd.as_raw_fd(),
            Self::interest(readable, writable),
            token,
        )
    }

    /// Replaces a registered descriptor's token and interest.
    pub fn modify(
        &self,
        fd: &impl AsRawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd.as_raw_fd(),
            Self::interest(readable, writable),
            token,
        )
    }

    /// Deregisters a descriptor. (Closing the descriptor deregisters it
    /// implicitly; explicit removal keeps token reuse honest.)
    pub fn remove(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Blocks until at least one registered descriptor is ready or the
    /// timeout elapses (`None` blocks indefinitely). Fills `events` and
    /// returns the event count; `Ok(0)` is a timeout. `EINTR` retries
    /// internally.
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => {
                let ms = d.as_millis().min(c_int::MAX as u128) as c_int;
                // Round a sub-millisecond deadline up, not down to a spin.
                if ms == 0 && !d.is_zero() {
                    1
                } else {
                    ms
                }
            }
        };
        events.count = 0;
        loop {
            // SAFETY: the buffer has `raw.len()` writable RawEvent slots and
            // outlives the call; the kernel writes at most `maxevents`.
            let ret = unsafe {
                epoll_wait(
                    self.fd,
                    events.raw.as_mut_ptr(),
                    events.raw.len() as c_int,
                    timeout_ms,
                )
            };
            match cvt(ret) {
                Ok(n) => {
                    events.count = n as usize;
                    return Ok(events.count);
                }
                Err(e) if e.raw_os_error() == Some(EINTR) => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own the epoll fd and drop it exactly once.
        unsafe { close(self.fd) };
    }
}

/// Calls `connect(2)` on a fresh nonblocking socket and returns the stream
/// with the connect still in flight (`EINPROGRESS`). Register it for
/// writability: the completion wakeup's verdict is
/// [`TcpStream::take_error`] — `None` means connected.
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    let fd = new_socket(addr, SOCK_NONBLOCK)?;
    let ret = match addr {
        SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                family: AF_INET as u16,
                port: v4.port().to_be(),
                addr: u32::from(*v4.ip()).to_be(),
                zero: [0; 8],
            };
            // SAFETY: `sa` is a correctly laid out sockaddr_in living across
            // the call; `fd` is the socket created above.
            unsafe {
                connect(
                    fd,
                    (&sa as *const SockAddrIn).cast(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            }
        }
        SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                family: AF_INET6 as u16,
                port: v6.port().to_be(),
                flowinfo: v6.flowinfo(),
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            // SAFETY: as above, with a sockaddr_in6.
            unsafe {
                connect(
                    fd,
                    (&sa as *const SockAddrIn6).cast(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            }
        }
    };
    if ret < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            // SAFETY: the socket was never handed out; close our only copy.
            unsafe { close(fd) };
            return Err(err);
        }
    }
    // SAFETY: `fd` is a valid connected/connecting TCP socket we exclusively
    // own; from_raw_fd transfers that ownership to the TcpStream.
    Ok(unsafe { TcpStream::from_raw_fd(fd) })
}

/// Binds `addr` (with `SO_REUSEADDR`, like std) and listens with an explicit
/// accept backlog — the high-fanout replacement for `TcpListener::bind`'s
/// hardcoded backlog of 128.
pub fn listen_on(addr: SocketAddr, backlog: i32) -> io::Result<TcpListener> {
    let fd = new_socket(addr, 0)?;
    let guard = FdGuard(fd);
    let one: c_int = 1;
    // SAFETY: `one` lives across the call; SO_REUSEADDR takes an int.
    cvt(unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_REUSEADDR,
            (&one as *const c_int).cast(),
            std::mem::size_of::<c_int>() as u32,
        )
    })?;
    let ret = match addr {
        SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                family: AF_INET as u16,
                port: v4.port().to_be(),
                addr: u32::from(*v4.ip()).to_be(),
                zero: [0; 8],
            };
            // SAFETY: correctly laid out sockaddr_in, live across the call.
            unsafe {
                bind(
                    fd,
                    (&sa as *const SockAddrIn).cast(),
                    std::mem::size_of::<SockAddrIn>() as u32,
                )
            }
        }
        SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                family: AF_INET6 as u16,
                port: v6.port().to_be(),
                flowinfo: v6.flowinfo(),
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            // SAFETY: correctly laid out sockaddr_in6, live across the call.
            unsafe {
                bind(
                    fd,
                    (&sa as *const SockAddrIn6).cast(),
                    std::mem::size_of::<SockAddrIn6>() as u32,
                )
            }
        }
    };
    cvt(ret)?;
    // SAFETY: `fd` is a bound socket; listen takes no pointers.
    cvt(unsafe { listen(fd, backlog.max(1)) })?;
    std::mem::forget(guard);
    // SAFETY: `fd` is a valid listening socket we exclusively own.
    Ok(unsafe { TcpListener::from_raw_fd(fd) })
}

/// Raises the process's `RLIMIT_NOFILE` soft limit to its hard limit and
/// returns the resulting soft limit. A site holding thousands of client
/// connections (or a fan-out load client opening them) calls this at
/// startup; failures are worth ignoring — the caller just keeps the
/// inherited limit.
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a writable rlimit struct living across the call.
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.cur < lim.max {
        let raised = RLimit {
            cur: lim.max,
            max: lim.max,
        };
        // SAFETY: `raised` lives across the call; only the soft limit moves.
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &raised) })?;
        return Ok(raised.cur);
    }
    Ok(lim.cur)
}

fn new_socket(addr: SocketAddr, extra_flags: c_int) -> io::Result<RawFd> {
    let domain = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    // SAFETY: socket takes no pointers; a non-negative return is a fresh fd.
    cvt(unsafe { socket(domain, SOCK_STREAM | SOCK_CLOEXEC | extra_flags, 0) })
}

/// Closes a raw fd on drop — covers the error paths between `socket(2)` and
/// the std wrapper taking ownership.
struct FdGuard(RawFd);

impl Drop for FdGuard {
    fn drop(&mut self) {
        // SAFETY: the guarded fd is exclusively ours until forgotten.
        unsafe { close(self.0) };
    }
}

/// A localhost `SocketAddr` helper for tests and loopback tooling.
pub fn loopback(port: u16) -> SocketAddr {
    SocketAddr::from((Ipv4Addr::LOCALHOST, port))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn nonblocking_connect_completes_as_a_writable_event() {
        let listener = listen_on(loopback(0), 64).expect("listen");
        let addr = listener.local_addr().expect("addr");
        let stream = connect_nonblocking(addr).expect("connect in flight");
        let poller = Poller::new().expect("poller");
        poller.add(&stream, 7, false, true).expect("register");
        let mut events = Events::with_capacity(8);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait");
        assert!(n >= 1, "connect completion must wake the poller");
        let ev = events.iter().next().expect("one event");
        assert_eq!(ev.token, 7);
        assert!(ev.writable);
        assert!(stream.take_error().expect("SO_ERROR").is_none());
        // The other side really accepted a connection.
        let (mut accepted, _) = listener.accept().expect("accept");
        accepted.write_all(b"ping").expect("write");
        // Readability is reported once data arrives.
        poller.modify(&stream, 7, true, false).expect("modify");
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .expect("wait for data");
        assert!(n >= 1 && events.iter().any(|e| e.token == 7 && e.readable));
        let mut stream = stream;
        let mut buf = [0u8; 4];
        stream.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");
        poller.remove(&stream).expect("deregister");
    }

    #[test]
    fn a_refused_connect_surfaces_as_an_error_not_a_hang() {
        // Grab a loopback port with no listener behind it.
        let dead = {
            let l = listen_on(loopback(0), 1).expect("listen");
            l.local_addr().expect("addr")
        };
        match connect_nonblocking(dead) {
            // Loopback may refuse synchronously or via the readiness path.
            Err(_) => {}
            Ok(stream) => {
                let poller = Poller::new().expect("poller");
                poller.add(&stream, 1, false, true).expect("register");
                let mut events = Events::with_capacity(4);
                let n = poller
                    .wait(&mut events, Some(Duration::from_secs(5)))
                    .expect("wait");
                assert!(n >= 1, "a refused connect must still wake the poller");
                assert!(
                    stream.take_error().expect("SO_ERROR").is_some(),
                    "SO_ERROR must report the refusal"
                );
            }
        }
    }

    #[test]
    fn wait_times_out_on_an_idle_poller() {
        let poller = Poller::new().expect("poller");
        let mut events = Events::with_capacity(4);
        let started = std::time::Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(30)))
            .expect("wait");
        assert_eq!(n, 0);
        assert!(events.is_empty());
        assert!(started.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn the_nofile_limit_can_be_raised() {
        let limit = raise_nofile_limit().expect("rlimit");
        assert!(limit > 0);
        // Idempotent: a second call reports the same (now maxed) limit.
        assert_eq!(raise_nofile_limit().expect("rlimit again"), limit);
    }

    #[test]
    fn listener_backlog_accepts_a_burst_without_refusing() {
        let listener = listen_on(loopback(0), 256).expect("listen");
        let addr = listener.local_addr().expect("addr");
        let streams: Vec<TcpStream> = (0..64)
            .map(|_| connect_nonblocking(addr).expect("connect"))
            .collect();
        let poller = Poller::new().expect("poller");
        for (i, s) in streams.iter().enumerate() {
            poller.add(s, i as u64, false, true).expect("register");
        }
        let mut events = Events::with_capacity(64);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut completed = vec![false; streams.len()];
        while completed.iter().any(|done| !done) {
            assert!(std::time::Instant::now() < deadline, "burst must complete");
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .expect("wait");
            for ev in events.iter() {
                let i = ev.token as usize;
                if !completed[i] {
                    assert!(streams[i].take_error().expect("SO_ERROR").is_none());
                    completed[i] = true;
                    poller.remove(&streams[i]).expect("deregister");
                }
            }
        }
    }
}
