//! Safe readiness-polling API over the [`sys`](crate::sys) shim.
//!
//! [`Poller`] owns an epoll instance plus an internal eventfd used by
//! [`Waker`] to interrupt a blocked [`Poller::wait`] from another thread.
//! Registration is by raw descriptor and caller-chosen token: the poller
//! never owns the sockets it watches, it only reports readiness. All
//! registrations are level-triggered, so a socket with buffered kernel
//! data re-fires on the next wait — parking a connection that already has
//! bytes pending is safe, it is handed straight back.

use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Token value reserved for the poller's internal waker; never returned
/// from [`Poller::wait`] and rejected by [`Poller::add`].
pub const WAKER_TOKEN: u64 = u64::MAX;

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the descriptor was registered with.
    pub token: u64,
    /// True when the kernel flagged error/hang-up conditions alongside (or
    /// instead of) readability. The descriptor should be drained and
    /// dropped, not re-parked.
    pub closed: bool,
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{Event, WAKER_TOKEN};
    use crate::sys;
    use std::io;
    use std::sync::Arc;
    use std::time::Duration;

    /// Shared eventfd; closed when the last of poller/wakers drops.
    pub(super) struct WakeFd(pub(super) i32);

    impl Drop for WakeFd {
        fn drop(&mut self) {
            sys::close_fd(self.0);
        }
    }

    pub(super) struct PollerImp {
        epfd: i32,
        pub(super) wake: Arc<WakeFd>,
    }

    impl Drop for PollerImp {
        fn drop(&mut self) {
            sys::close_fd(self.epfd);
        }
    }

    impl PollerImp {
        pub(super) fn new() -> io::Result<PollerImp> {
            let epfd = sys::epoll_create()?;
            let wake_fd = match sys::eventfd_create() {
                Ok(fd) => fd,
                Err(e) => {
                    sys::close_fd(epfd);
                    return Err(e);
                }
            };
            let wake = Arc::new(WakeFd(wake_fd));
            if let Err(e) = sys::epoll_add(epfd, wake_fd, sys::EPOLLIN, WAKER_TOKEN) {
                sys::close_fd(epfd);
                return Err(e);
            }
            Ok(PollerImp { epfd, wake })
        }

        pub(super) fn add(&self, fd: i32, token: u64) -> io::Result<()> {
            sys::epoll_add(self.epfd, fd, sys::EPOLLIN | sys::EPOLLRDHUP, token)
        }

        pub(super) fn delete(&self, fd: i32) -> io::Result<()> {
            sys::epoll_del(self.epfd, fd)
        }

        pub(super) fn wait(
            &self,
            events: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            const MAX_EVENTS: usize = 256;
            let mut buf = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let timeout_ms = match timeout {
                // Round up so a 100 µs deadline doesn't busy-spin at 0 ms.
                Some(d) => i32::try_from(d.as_millis().saturating_add(1)).unwrap_or(i32::MAX),
                None => -1,
            };
            let n = match sys::epoll_wait_into(self.epfd, &mut buf, timeout_ms) {
                Ok(n) => n,
                // Signal delivery (e.g. SIGHUP reload) interrupts the wait;
                // report an empty batch and let the caller loop.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for ev in &buf[..n] {
                // Copy out of the (packed on x86-64) struct before use.
                let token = ev.data;
                let bits = ev.events;
                if token == WAKER_TOKEN {
                    sys::eventfd_drain(self.wake.0);
                    continue;
                }
                events.push(Event {
                    token,
                    closed: bits & (sys::EPOLLERR | sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                });
            }
            Ok(())
        }
    }

    pub(super) fn wake(fd: &WakeFd) {
        sys::eventfd_signal(fd.0);
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use super::Event;
    use std::io;
    use std::sync::Arc;
    use std::time::Duration;

    /// Stub so `Waker` stays a real type on every platform.
    pub(super) struct WakeFd(pub(super) ());

    pub(super) struct PollerImp {
        pub(super) wake: Arc<WakeFd>,
    }

    impl PollerImp {
        pub(super) fn new() -> io::Result<PollerImp> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "epoll poller is only available on Linux",
            ))
        }

        pub(super) fn add(&self, _fd: i32, _token: u64) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }

        pub(super) fn delete(&self, _fd: i32) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }

        pub(super) fn wait(
            &self,
            _events: &mut Vec<Event>,
            _timeout: Option<Duration>,
        ) -> io::Result<()> {
            Err(io::ErrorKind::Unsupported.into())
        }
    }

    pub(super) fn wake(_fd: &WakeFd) {}
}

/// Level-triggered readiness poller (epoll on Linux).
///
/// Construction fails with [`io::ErrorKind::Unsupported`] on other
/// platforms; callers are expected to fall back to a portable strategy.
/// The poller itself is used from a single reactor thread; [`Waker`]s are
/// the only cross-thread handle.
pub struct Poller {
    imp: imp::PollerImp,
}

/// Cross-thread handle that interrupts a blocked [`Poller::wait`].
///
/// Cheap to clone; keeps the underlying eventfd alive independently of the
/// poller, so waking after the poller dropped is a harmless no-op on a
/// still-open descriptor (never a write to a recycled fd).
#[derive(Clone)]
pub struct Waker {
    wake: Arc<imp::WakeFd>,
}

impl Waker {
    /// Makes the next (or current) [`Poller::wait`] return promptly.
    pub fn wake(&self) {
        imp::wake(&self.wake);
    }
}

impl Poller {
    /// Creates a poller, or fails with `Unsupported` off-Linux.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller { imp: imp::PollerImp::new()? })
    }

    /// True when this platform has a working poller implementation.
    #[must_use]
    pub fn supported() -> bool {
        cfg!(target_os = "linux")
    }

    /// Returns a handle that can interrupt [`Poller::wait`] from any thread.
    #[must_use]
    pub fn waker(&self) -> Waker {
        Waker { wake: Arc::clone(&self.imp.wake) }
    }

    /// Watches `fd` (level-triggered, read interest + peer hang-up) under
    /// `token`. The caller keeps ownership of the descriptor and must
    /// [`delete`](Poller::delete) it before closing it.
    pub fn add(&self, fd: i32, token: u64) -> io::Result<()> {
        if token == WAKER_TOKEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "token u64::MAX is reserved for the poller's waker",
            ));
        }
        self.imp.add(fd, token)
    }

    /// Stops watching `fd`.
    pub fn delete(&self, fd: i32) -> io::Result<()> {
        self.imp.delete(fd)
    }

    /// Blocks until at least one descriptor is ready, the timeout elapses,
    /// or a [`Waker`] fires; appends readiness events to `events` (waker
    /// wake-ups surface as an empty batch, as do interrupts). `None` blocks
    /// indefinitely.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        self.imp.wait(events, timeout)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    type TestResult = Result<(), io::Error>;

    #[test]
    fn listener_readiness_and_timeout() -> TestResult {
        let poller = Poller::new()?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        poller.add(listener.as_raw_fd(), 7)?;

        // Nothing pending: a short wait times out with no events.
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(10)))?;
        assert!(events.is_empty());

        // A pending connection makes the listener readable.
        let _client = TcpStream::connect(listener.local_addr()?)?;
        poller.wait(&mut events, Some(Duration::from_secs(5)))?;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(!events[0].closed);

        poller.delete(listener.as_raw_fd())?;
        Ok(())
    }

    #[test]
    fn stream_data_and_hangup() -> TestResult {
        let poller = Poller::new()?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut client = TcpStream::connect(listener.local_addr()?)?;
        let (server_side, _) = listener.accept()?;
        poller.add(server_side.as_raw_fd(), 42)?;

        client.write_all(b"x")?;
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(5)))?;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);

        // Level-triggered: undrained data re-fires on the next wait.
        events.clear();
        poller.wait(&mut events, Some(Duration::from_secs(5)))?;
        assert_eq!(events.len(), 1, "level-triggered events must re-fire");

        drop(client);
        events.clear();
        poller.wait(&mut events, Some(Duration::from_secs(5)))?;
        assert_eq!(events.len(), 1);
        assert!(events[0].closed, "peer hang-up must set `closed`");
        poller.delete(server_side.as_raw_fd())?;
        Ok(())
    }

    #[test]
    fn waker_interrupts_wait() -> TestResult {
        let poller = Poller::new()?;
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let start = Instant::now();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_secs(30)))?;
        assert!(start.elapsed() < Duration::from_secs(10), "waker must interrupt long waits");
        assert!(events.is_empty(), "waker wake-ups carry no events");
        assert!(handle.join().is_ok());
        Ok(())
    }

    #[test]
    fn waker_token_is_rejected() -> TestResult {
        let poller = Poller::new()?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        assert!(poller.add(listener.as_raw_fd(), WAKER_TOKEN).is_err());
        Ok(())
    }

    #[test]
    fn wake_after_poller_drop_is_safe() -> TestResult {
        let poller = Poller::new()?;
        let waker = poller.waker();
        drop(poller);
        waker.wake(); // must not touch a recycled descriptor
        Ok(())
    }
}
