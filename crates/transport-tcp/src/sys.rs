//! What the backstop thread sleeps on — epoll and eventfd — and the
//! `read(2)`s a rail's bytes arrive through, straight to the kernel: a
//! rendezvous chunk's into its landing window, everything else's into
//! the read buffer's spare capacity.
//!
//! The repo is offline/zero-dep, so there is no `libc` crate to lean on:
//! the syscalls are made via inline assembly on x86_64/aarch64 Linux.
//! Other targets get stub functions returning
//! [`std::io::ErrorKind::Unsupported`] so the crate still compiles: the
//! backstop thread degrades to a timed poll there, [`read_into`] reads
//! through a bounce buffer and [`read_spare`] zero-fills before it reads.
//! All of the crate's `unsafe` lives in this file. [`Poller`],
//! [`EventFd`], [`read_into`] and [`read_spare`] are the safe wrappers.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, OwnedFd, RawFd};

/// One epoll readiness record (`struct epoll_event`). Packed on
/// x86_64, as the kernel ABI demands there.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Readiness bit set (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen token, returned verbatim.
    pub data: u64,
}

impl EpollEvent {
    /// All-zero record (for pre-sized wait buffers).
    pub fn zeroed() -> Self {
        EpollEvent { events: 0, data: 0 }
    }

    /// The caller-chosen token (copies out of the packed struct).
    pub fn token(&self) -> u64 {
        self.data
    }
}

/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Peer closed its write side.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery.
pub const EPOLLET: u32 = 1 << 31;

/// `epoll_ctl` add.
pub const EPOLL_CTL_ADD: i32 = 1;
/// `epoll_ctl` delete.
pub const EPOLL_CTL_DEL: i32 = 2;
/// `epoll_ctl` modify.
pub const EPOLL_CTL_MOD: i32 = 3;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::EpollEvent;
    use bytes::Window;
    use std::arch::asm;
    use std::io;
    use std::mem::MaybeUninit;
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const READ: i64 = 0;
        pub const EPOLL_CTL: i64 = 233;
        pub const EPOLL_PWAIT: i64 = 281;
        pub const EVENTFD2: i64 = 290;
        pub const EPOLL_CREATE1: i64 = 291;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const READ: i64 = 63;
        pub const EPOLL_CTL: i64 = 21;
        pub const EPOLL_PWAIT: i64 = 22;
        pub const EVENTFD2: i64 = 19;
        pub const EPOLL_CREATE1: i64 = 20;
    }

    /// The raw 6-argument syscall.
    ///
    /// # Safety
    /// The caller guarantees the argument contract of syscall `n`: every
    /// pointer argument is valid for the access the kernel makes through
    /// it, for the duration of the call.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall6(n: i64, a: i64, b: i64, c: i64, d: i64, e: i64, f: i64) -> i64 {
        let ret: i64;
        asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            in("r8") e,
            in("r9") f,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    /// See the x86_64 twin above.
    ///
    /// # Safety
    /// Same contract.
    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall6(n: i64, a: i64, b: i64, c: i64, d: i64, e: i64, f: i64) -> i64 {
        let ret: i64;
        asm!(
            "svc #0",
            in("x8") n,
            inlateout("x0") a => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            in("x4") e,
            in("x5") f,
            options(nostack),
        );
        ret
    }

    fn cvt(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    const EPOLL_CLOEXEC: i64 = 0o2000000;
    const EFD_CLOEXEC: i64 = 0o2000000;
    const EFD_NONBLOCK: i64 = 0o4000;

    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn epoll_create() -> io::Result<OwnedFd> {
        // SAFETY: no pointer arguments.
        let fd = cvt(unsafe { syscall6(nr::EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0, 0, 0) })?;
        // SAFETY: the kernel just handed us this fd and nothing else owns
        // it; OwnedFd closes it through the std-linked libc on drop.
        Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
    }

    /// `epoll_ctl(ep, op, fd, ev)`; pass `None` for `EPOLL_CTL_DEL`.
    pub fn epoll_ctl(ep: RawFd, op: i32, fd: RawFd, ev: Option<&mut EpollEvent>) -> io::Result<()> {
        let ptr = ev.map_or(std::ptr::null_mut(), |e| e as *mut EpollEvent);
        // SAFETY: `ptr` is null or a live exclusive borrow of one
        // `EpollEvent`, which the kernel only reads.
        cvt(unsafe {
            syscall6(
                nr::EPOLL_CTL,
                ep as i64,
                op as i64,
                fd as i64,
                ptr as i64,
                0,
                0,
            )
        })?;
        Ok(())
    }

    /// Wait for readiness (via `epoll_pwait` with a null sigmask).
    pub fn epoll_wait(ep: RawFd, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // epoll_pwait with a null sigmask == epoll_wait, and exists
        // on aarch64 (plain epoll_wait does not).
        // SAFETY: the kernel writes at most `events.len()` records into
        // the exclusively borrowed slice; the sigmask pointer is null.
        let n = cvt(unsafe {
            syscall6(
                nr::EPOLL_PWAIT,
                ep as i64,
                events.as_mut_ptr() as i64,
                events.len() as i64,
                timeout_ms as i64,
                0,
                8,
            )
        })?;
        Ok(n as usize)
    }

    /// `eventfd2(0, EFD_CLOEXEC | EFD_NONBLOCK)`.
    pub fn eventfd() -> io::Result<OwnedFd> {
        // SAFETY: no pointer arguments.
        let fd = cvt(unsafe { syscall6(nr::EVENTFD2, 0, EFD_CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?;
        // SAFETY: fresh fd owned by nobody else, as in `epoll_create`.
        Ok(unsafe { OwnedFd::from_raw_fd(fd as RawFd) })
    }

    /// One `read(2)` from `stream` into `buf`, whose bytes may be
    /// uninitialised: the count the kernel wrote at its front, at most
    /// `buf.len()`.
    fn read_raw(stream: &TcpStream, buf: &mut [MaybeUninit<u8>]) -> io::Result<usize> {
        // SAFETY: the kernel writes at most `buf.len()` bytes into the
        // exclusively borrowed slice, whose bytes may be uninitialised:
        // `MaybeUninit` asks nothing of them, and `read(2)` only writes.
        let n = cvt(unsafe {
            syscall6(
                nr::READ,
                stream.as_raw_fd() as i64,
                buf.as_mut_ptr() as i64,
                buf.len() as i64,
                0,
                0,
                0,
            )
        })?;
        Ok(n as usize)
    }

    /// One `read(2)` from `stream` into the unwritten part of `window`,
    /// whose cursor moves over what the kernel wrote.
    pub fn read_into(stream: &TcpStream, window: &mut Window) -> io::Result<usize> {
        let n = read_raw(stream, window.unwritten())?;
        // SAFETY: `read_raw` wrote the first `n` bytes of `unwritten`, and
        // the cursor has not moved since.
        unsafe { window.advance(n) };
        Ok(n)
    }

    /// One `read(2)` from `stream` into the spare capacity of `buf`,
    /// whose length grows over what the kernel wrote.
    pub fn read_spare(stream: &TcpStream, buf: &mut Vec<u8>) -> io::Result<usize> {
        let n = read_raw(stream, buf.spare_capacity_mut())?;
        // SAFETY: `read_raw` wrote the first `n` bytes of the spare
        // capacity, `n` at most its length: the new length stays within
        // the capacity and covers only written bytes.
        unsafe { buf.set_len(buf.len() + n) };
        Ok(n)
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::EpollEvent;
    use bytes::Window;
    use std::io::{self, Read};
    use std::net::TcpStream;
    use std::os::fd::{OwnedFd, RawFd};

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "no epoll on this target (linux x86_64/aarch64 only): \
             the serial backstop polls on a timer instead",
        )
    }

    /// Unsupported on this target.
    pub fn epoll_create() -> io::Result<OwnedFd> {
        Err(unsupported())
    }
    /// Unsupported on this target.
    pub fn epoll_ctl(_: RawFd, _: i32, _: RawFd, _: Option<&mut EpollEvent>) -> io::Result<()> {
        Err(unsupported())
    }
    /// Unsupported on this target.
    pub fn epoll_wait(_: RawFd, _: &mut [EpollEvent], _: i32) -> io::Result<usize> {
        Err(unsupported())
    }
    /// Unsupported on this target.
    pub fn eventfd() -> io::Result<OwnedFd> {
        Err(unsupported())
    }

    /// No raw `read(2)` on this target: one `read` into a bounce buffer,
    /// copied to `window`'s cursor.
    pub fn read_into(mut stream: &TcpStream, window: &mut Window) -> io::Result<usize> {
        let mut bounce = [0u8; 16 << 10];
        let room = bounce.len().min(window.remaining());
        let n = stream.read(&mut bounce[..room])?;
        window.put_slice(&bounce[..n]);
        Ok(n)
    }

    /// No raw `read(2)` on this target: the spare capacity is zero-filled
    /// and read into with `Read::read`, and the length kept at what came.
    pub fn read_spare(mut stream: &TcpStream, buf: &mut Vec<u8>) -> io::Result<usize> {
        let len = buf.len();
        buf.resize(buf.capacity(), 0);
        let read = stream.read(&mut buf[len..]);
        buf.truncate(len + read.as_ref().map_or(0, |&n| n));
        read
    }
}

pub use imp::{epoll_create, epoll_ctl, epoll_wait, eventfd, read_into, read_spare};

/// Thin safe wrapper over one epoll instance.
pub struct Poller {
    ep: OwnedFd,
}

impl Poller {
    /// Create an epoll instance.
    pub fn new() -> io::Result<Self> {
        Ok(Poller {
            ep: epoll_create()?,
        })
    }

    /// `epoll_ctl` `op` with `fd` edge-triggered for READ, plus WRITE
    /// when `writable`.
    fn ctl(&self, op: i32, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: EPOLLIN | EPOLLRDHUP | EPOLLET | if writable { EPOLLOUT } else { 0 },
            data: token,
        };
        epoll_ctl(self.ep.as_raw_fd(), op, fd, Some(&mut ev))
    }

    /// Register `fd` edge-triggered for READ (plus WRITE when
    /// `writable`), tagged with `token`.
    pub fn add(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, writable)
    }

    /// Change `fd`'s interest set (the WRITE half of the state machine).
    pub fn modify(&self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, writable)
    }

    /// Deregister `fd`.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        epoll_ctl(self.ep.as_raw_fd(), EPOLL_CTL_DEL, fd, None)
    }

    /// Block up to `timeout_ms` for readiness; fills `events` and
    /// returns how many records are valid.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        epoll_wait(self.ep.as_raw_fd(), events, timeout_ms)
    }
}

/// An eventfd-backed waker: wakes the backstop thread out of
/// `epoll_wait` from any thread.
pub struct EventFd {
    file: std::fs::File,
}

impl EventFd {
    /// Create a nonblocking eventfd.
    pub fn new() -> io::Result<Self> {
        Ok(EventFd {
            file: std::fs::File::from(eventfd()?),
        })
    }

    /// The raw fd (for epoll registration).
    pub fn raw(&self) -> RawFd {
        self.file.as_raw_fd()
    }

    /// Post a wake. Nonblocking; a saturated counter already means a
    /// wake is pending, so the error is ignored on purpose.
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = (&self.file).write(&one);
    }

    /// Consume pending wakes (called by the sleeper on the eventfd's
    /// readable edge). One read returns the whole counter and zeroes it.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = (&self.file).read(&mut buf);
    }
}

#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod tests {
    use super::*;

    fn ready(poller: &Poller) -> Vec<u64> {
        let mut events = [EpollEvent::zeroed(); 8];
        let n = poller.wait(&mut events, 0).expect("epoll_wait");
        events[..n].iter().map(EpollEvent::token).collect()
    }

    /// A negative syscall return becomes the matching `io::Error`.
    #[test]
    fn errno_mapping() {
        let poller = Poller::new().unwrap();
        let efd = EventFd::new().unwrap();
        let errno = |r: io::Result<()>| r.unwrap_err().raw_os_error();
        assert_eq!(errno(poller.add(-1, 0, false)), Some(9), "EBADF");
        assert_eq!(errno(poller.modify(efd.raw(), 0, true)), Some(2), "ENOENT");
        let unregistered = poller.delete(efd.raw()).unwrap_err();
        assert_eq!(unregistered.kind(), io::ErrorKind::NotFound);
        poller.add(efd.raw(), 7, false).unwrap();
        let twice = poller.add(efd.raw(), 7, false).unwrap_err();
        assert_eq!(twice.kind(), io::ErrorKind::AlreadyExists);
    }

    /// `read_into` hands the kernel the window's unwritten part alone:
    /// what the socket holds lands at the cursor, a short read moves the
    /// cursor by its count, a full window takes nothing more, and an empty
    /// nonblocking socket is `WouldBlock` with the cursor where it was.
    #[test]
    fn read_into_lands_at_the_cursor() {
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        let sent = b"landed at the cursor";
        tx.write_all(sent).unwrap();
        let mut window = bytes::Window::uninit(b"head".len() + sent.len());
        window.put_slice(b"head");
        let mut got = 0;
        while got < sent.len() {
            got += read_into(&rx, &mut window).unwrap();
        }
        assert_eq!(window.remaining(), 0);
        assert_eq!(read_into(&rx, &mut window).unwrap(), 0, "nothing asked");
        assert_eq!(&window.freeze()[..], b"headlanded at the cursor");

        rx.set_nonblocking(true).unwrap();
        let mut window = bytes::Window::uninit(8);
        let err = read_into(&rx, &mut window).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(window.remaining(), 8);
        tx.write_all(b"abc").unwrap();
        rx.set_nonblocking(false).unwrap();
        assert_eq!(read_into(&rx, &mut window).unwrap(), 3);
        assert_eq!(window.remaining(), 5);
    }

    /// `read_spare` appends what one `read(2)` brought, with `len` moved
    /// over exactly those bytes: the capacity past them keeps what it
    /// held, the buffer is never reallocated, the end of the stream is
    /// `Ok(0)` and an empty nonblocking socket `WouldBlock`, the length
    /// where it was.
    #[test]
    fn read_spare_appends_only_what_was_read() {
        use std::net::{TcpListener, TcpStream};
        const MARK: u8 = 0xEE;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        let mut buf = Vec::with_capacity(64);
        buf.resize(64, MARK);
        buf.truncate(4);
        buf.copy_from_slice(b"kept");
        let at = buf.as_ptr();

        rx.set_nonblocking(true).unwrap();
        let err = read_spare(&rx, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(buf, b"kept");

        let sent = b"appended";
        tx.write_all(sent).unwrap();
        rx.set_nonblocking(false).unwrap();
        let mut n = 0;
        while n < sent.len() {
            n += read_spare(&rx, &mut buf).unwrap();
        }
        assert_eq!(buf.len(), 4 + n);
        assert_eq!(buf, b"keptappended");
        assert_eq!((buf.capacity(), buf.as_ptr()), (64, at), "not reallocated");
        // SAFETY: all 64 bytes were written (`resize` above): the length
        // may cover them to look at what the read left past it.
        unsafe { buf.set_len(64) };
        assert!(buf[4 + n..].iter().all(|&b| b == MARK), "past the read");
        buf.truncate(4 + n);

        drop(tx);
        assert_eq!(read_spare(&rx, &mut buf).unwrap(), 0, "end of stream");
        assert_eq!(buf, b"keptappended");
    }

    /// Any number of wakes is one readable event and one drain.
    #[test]
    fn eventfd_wakes_coalesce_and_drain() {
        let poller = Poller::new().unwrap();
        let efd = EventFd::new().unwrap();
        poller.add(efd.raw(), 42, false).unwrap();
        assert!(ready(&poller).is_empty(), "fresh eventfd is not readable");
        for _ in 0..3 {
            efd.wake();
        }
        assert_eq!(ready(&poller), [42]);
        efd.drain();
        efd.wake();
        assert_eq!(ready(&poller), [42], "a wake after the drain is a new edge");
        efd.drain();
        assert!(ready(&poller).is_empty());
        efd.drain(); // draining an empty eventfd must not block
    }

    /// Edge-triggered registrations (all [`Poller`] makes) report a
    /// readiness once until new activity or a `modify` re-arms them;
    /// a level-triggered one keeps reporting until drained.
    #[test]
    fn edge_rearms_on_activity_level_repeats() {
        let poller = Poller::new().unwrap();
        let efd = EventFd::new().unwrap();
        poller.add(efd.raw(), 1, false).unwrap();
        efd.wake();
        assert_eq!(ready(&poller), [1]);
        assert!(ready(&poller).is_empty(), "edge already consumed");
        efd.wake();
        assert_eq!(ready(&poller), [1], "new activity is a new edge");
        poller.modify(efd.raw(), 1, false).unwrap();
        assert_eq!(ready(&poller), [1], "modify re-arms a still-ready fd");
        assert!(ready(&poller).is_empty());

        let level = Poller::new().unwrap();
        let mut ev = EpollEvent {
            events: EPOLLIN,
            data: 2,
        };
        epoll_ctl(
            level.ep.as_raw_fd(),
            EPOLL_CTL_ADD,
            efd.raw(),
            Some(&mut ev),
        )
        .unwrap();
        assert_eq!(ready(&level), [2]);
        assert_eq!(ready(&level), [2], "level-triggered repeats");
        efd.drain();
        assert!(ready(&level).is_empty());
    }
}
