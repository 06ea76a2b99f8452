//! One CPU per thread role: the application thread on the first CPU the
//! process may use, every thread the library spawns on the second.
//!
//! Left to the kernel, three threads on two vCPUs settle into placements
//! that last seconds to minutes and differ by more than any code change
//! would: ten 30 s runs of `tcp_pingpong_small` read 118 to 199 us and 55
//! to 174 us of CPU per message, whichever rule picked the trials. A
//! communication library's progress threads on a core of their own next to
//! the application's is also how such libraries are deployed, so the roles
//! are fixed that way, the same for every workload and for the raw
//! baseline (which runs on the application thread). What the application
//! and the library overlap still shows; what the library's own threads
//! could overlap with each other on more cores does not.
//!
//! A thread inherits the affinity of the thread that spawns it, so the
//! application thread moves to the library's CPU while it builds a pair
//! and back afterwards.

use std::io;
use std::sync::OnceLock;

#[cfg(target_os = "linux")]
extern "C" {
    /// `int sched_setaffinity(pid_t, size_t, const cpu_set_t *)` of the C
    /// library the standard library links; pid 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[derive(Clone, Copy)]
struct Roles {
    app: usize,
    library: usize,
}

static ROLES: OnceLock<Option<Roles>> = OnceLock::new();

/// The first two CPUs of `Cpus_allowed_list` in `/proc/self/status`
/// (a list such as `0-1` or `2,5-7`).
fn first_two_allowed() -> Option<Roles> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let mut cpus = list.trim().split(',').flat_map(|range| {
        let mut ends = range.split('-').map(|n| n.parse::<usize>().ok());
        let first = ends.next().flatten();
        let last = ends.next().flatten().or(first);
        first.zip(last).map_or(0..0, |(a, b)| a..b + 1)
    });
    Some(Roles {
        app: cpus.next()?,
        library: cpus.next()?,
    })
}

#[cfg(not(target_os = "linux"))]
fn pin_this_thread(_cpu: usize) -> io::Result<()> {
    Err(io::ErrorKind::Unsupported.into())
}

#[cfg(target_os = "linux")]
fn pin_this_thread(cpu: usize) -> io::Result<()> {
    let mut mask = [0u64; 16];
    let word = mask
        .get_mut(cpu / 64)
        .ok_or_else(|| io::Error::other(format!("CPU {cpu} is beyond the mask")))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is 128 readable bytes and that size is what is passed;
    // the call reads the mask and changes only the calling thread's affinity.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Fix the roles and put the calling (application) thread on its CPU.
/// Returns a line for the run's header. Where fewer than two CPUs are
/// allowed or the kernel refuses, nothing is pinned and the line says so.
pub fn init() -> String {
    let roles = first_two_allowed().filter(|r| pin_this_thread(r.app).is_ok());
    match ROLES.get_or_init(|| roles) {
        Some(r) => format!(
            "application thread on CPU {}, the library's threads on CPU {}",
            r.app, r.library
        ),
        None => "NOT pinned (fewer than two CPUs allowed, or the kernel refused): \
                 threads placed by the kernel, expect more spread"
            .into(),
    }
}

/// Run `build` with the calling thread on the library's CPU, so that the
/// threads it spawns start and stay there, then return to the
/// application's CPU.
pub fn spawning_library_threads<T>(build: impl FnOnce() -> T) -> T {
    let Some(r) = ROLES.get().copied().flatten() else {
        return build();
    };
    // A refusal here leaves the thread where `init` put it.
    let _ = pin_this_thread(r.library);
    let out = build();
    let _ = pin_this_thread(r.app);
    out
}
