//! Readiness waiting: an `epoll(7)` set over borrowed file descriptors —
//! the one foreign interface in the workspace, and the only module
//! allowed `unsafe`.
//!
//! `epoll` rather than `poll(2)`: a `poll(2)` call registers every
//! descriptor of the set with the kernel and takes it off again, on each
//! wait and again on each wake-up, where an `epoll` set is registered
//! once and a wait costs what is ready; and its ready list is in the
//! order readiness came, so a worker that was busy while frames came in
//! on several connections reads them in that order. Measured on a 2-vCPU
//! host, 8 rotated 5 s runs of the benchmark's `socket_rmw` each: median
//! 25.1 k ops/s and 63.6 µs of CPU per op on `epoll`, 23.0 k and 67.6 µs
//! on `ppoll(2)` over the same fds. Readiness is edge-triggered, so a
//! reader drains what it is told about, to the end after a hang-up.
//!
//! # Invariants
//!
//! * [`Epoll`] owns its descriptor ([`OwnedFd`]), made by
//!   `epoll_create1` and closed once, on drop.
//! * `EpollEvent` has the layout of the C `struct epoll_event`: a `u32`
//!   and a `u64`, packed on `x86_64` (the kernel ABI's
//!   `__EPOLL_PACKED`), naturally aligned elsewhere.
//! * Every pointer handed to the kernel points at a live, exclusively
//!   borrowed value for the length of the call: the event passed to
//!   `epoll_ctl`, the event buffer of `MAX_EVENTS` entries passed with
//!   `maxevents = MAX_EVENTS` to the wait, and the `timespec` (or null).
//!   The kernel writes only into the event buffer, and at most
//!   `maxevents` entries of it; nothing keeps a pointer after the call.
//! * A registered descriptor is only ever used as an integer. Callers
//!   deregister a descriptor before closing it.

use std::ffi::{c_int, c_long};
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::time::Duration;

/// Readable (or an incoming connection), edge-triggered.
pub(crate) const READABLE: u32 = EPOLLIN | EPOLLRDHUP | EPOLLET;
/// Writable, level-triggered.
pub(crate) const WRITABLE: u32 = EPOLLOUT;
/// In a ready event: the peer hung up or the descriptor failed, so a
/// read will find the end and no later edge will say so again.
pub(crate) const HANGUP: u32 = EPOLLRDHUP | EPOLLHUP | EPOLLERR;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;
const EPOLL_CLOEXEC: c_int = 0o2_000_000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const ENOSYS: i32 = 38;

/// Events taken per wait; more stay on the ready list for the next.
const MAX_EVENTS: usize = 64;

#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

unsafe extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn epoll_pwait2(
        epfd: c_int,
        events: *mut EpollEvent,
        maxevents: c_int,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> c_int;
}

fn check(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An `epoll` set: descriptors registered with a token, waited on
/// together, reported by token in the order they became ready.
#[derive(Debug)]
pub(crate) struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub(crate) fn new() -> io::Result<Self> {
        // SAFETY: no pointers; a non-negative return is a fresh
        // descriptor nothing else owns.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` was just created and is owned by nothing else.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// Registers `fd` for `events`, reported as `token`.
    pub(crate) fn add(&self, fd: &impl AsRawFd, events: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `event` is live and exclusively borrowed for the call.
        check(unsafe {
            epoll_ctl(
                self.fd.as_raw_fd(),
                EPOLL_CTL_ADD,
                fd.as_raw_fd(),
                &mut event,
            )
        })
        .map(drop)
    }

    /// Deregisters `fd`.
    pub(crate) fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        let mut unused = EpollEvent { events: 0, data: 0 };
        // SAFETY: as for `add` (kernels before 2.6.9 read the event).
        check(unsafe {
            epoll_ctl(
                self.fd.as_raw_fd(),
                EPOLL_CTL_DEL,
                fd.as_raw_fd(),
                &mut unused,
            )
        })
        .map(drop)
    }

    /// Waits until a registered descriptor is ready or `timeout` has
    /// passed (`None`: indefinitely), and sets `ready` to the ready
    /// ones' tokens and events, in ready-list order. Empty means the timeout passed or a
    /// signal cut the wait short — a caller loops on its own deadline
    /// either way. The timeout has the clock's resolution (a worker
    /// waits for its next timer with it), except on kernels before 5.11,
    /// where it is rounded up to a millisecond.
    pub(crate) fn wait(
        &self,
        ready: &mut Vec<(u64, u32)>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        ready.clear();
        let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let ts = timeout.map(|t| Timespec {
            tv_sec: t.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: c_long::from(t.subsec_nanos() as i32),
        });
        let ts_ptr = ts
            .as_ref()
            .map_or(std::ptr::null(), |t| t as *const Timespec);
        let epfd = self.fd.as_raw_fd();
        // SAFETY: `events` holds `MAX_EVENTS` entries and is exclusively
        // borrowed for the call; `ts_ptr` is null or points at `ts`,
        // which outlives it; the signal mask is null.
        let mut n = unsafe {
            epoll_pwait2(
                epfd,
                events.as_mut_ptr(),
                MAX_EVENTS as c_int,
                ts_ptr,
                std::ptr::null(),
            )
        };
        if n < 0 && io::Error::last_os_error().raw_os_error() == Some(ENOSYS) {
            let ms = timeout.map_or(-1, |t| {
                t.as_nanos().div_ceil(1_000_000).min(c_int::MAX as u128) as c_int
            });
            // SAFETY: as above, without the timespec.
            n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), MAX_EVENTS as c_int, ms) };
        }
        match check(n) {
            Ok(n) => {
                ready.extend(events[..n as usize].iter().map(|e| (e.data, e.events)));
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn reports_in_arrival_order_and_times_out_below_a_millisecond() {
        let epoll = Epoll::new().unwrap();
        let pairs: Vec<_> = (0..3).map(|_| UnixStream::pair().unwrap()).collect();
        for (i, (_, rx)) in pairs.iter().enumerate() {
            epoll.add(rx, READABLE, i as u64).unwrap();
        }
        let mut ready = Vec::new();
        let tokens = |ready: &[(u64, u32)]| ready.iter().map(|r| r.0).collect::<Vec<_>>();
        let t0 = Instant::now();
        epoll
            .wait(&mut ready, Some(Duration::from_micros(300)))
            .unwrap();
        let took = t0.elapsed();
        assert!(ready.is_empty(), "{ready:?}");
        assert!(took >= Duration::from_micros(300), "woke early: {took:?}");

        for i in [2, 0, 1] {
            (&pairs[i].0).write_all(b"x").unwrap();
        }
        epoll.wait(&mut ready, None).unwrap();
        assert_eq!(tokens(&ready), [2, 0, 1], "the order they became readable");
        assert!(ready.iter().all(|r| r.1 & HANGUP == 0), "{ready:?}");
        // Edge-triggered: nothing new, nothing to report.
        epoll.wait(&mut ready, Some(Duration::ZERO)).unwrap();
        assert!(ready.is_empty(), "{ready:?}");

        // A hang-up is an edge of its own, and says so.
        pairs[0].0.shutdown(std::net::Shutdown::Write).unwrap();
        epoll.wait(&mut ready, Some(Duration::ZERO)).unwrap();
        assert_eq!(tokens(&ready), [0]);
        assert_ne!(ready[0].1 & HANGUP, 0, "{ready:?}");

        epoll.delete(&pairs[1].1).unwrap();
        epoll.add(&pairs[1].0, WRITABLE, 7).unwrap();
        epoll.wait(&mut ready, Some(Duration::ZERO)).unwrap();
        assert_eq!(tokens(&ready), [7]);
    }
}
