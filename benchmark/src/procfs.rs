//! Counters read from `/proc`: CPU time, run-queue wait, context switches,
//! resident memory and TIME_WAIT sockets. All are whole-process numbers,
//! so the engine's own threads are included.

use std::fs;

/// Scheduler accounting summed over the live threads of this process.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sched {
    /// Nanoseconds on a CPU, all threads.
    pub run_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU, all threads.
    pub wait_ns: u64,
    /// Nanoseconds on a CPU, the application (main) thread only.
    pub app_run_ns: u64,
    /// Voluntary + involuntary context switches, all threads.
    pub ctx_switches: u64,
    pub threads: u64,
}

impl Sched {
    /// Sample now. `with_switches` also reads each thread's `status`,
    /// which only the traced run pays for.
    pub fn sample(with_switches: bool) -> Sched {
        let mut s = Sched::default();
        let pid = std::process::id().to_string();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return s.or_stat_fallback();
        };
        for task in tasks.flatten() {
            let dir = task.path();
            // "run_ns wait_ns timeslices"; a thread that exited between
            // readdir and read is skipped.
            let Ok(text) = fs::read_to_string(dir.join("schedstat")) else {
                continue;
            };
            let mut fields = text
                .split_ascii_whitespace()
                .map(|f| f.parse::<u64>().unwrap_or(0));
            let run = fields.next().unwrap_or(0);
            s.run_ns += run;
            s.wait_ns += fields.next().unwrap_or(0);
            s.threads += 1;
            if task.file_name().to_string_lossy() == pid {
                s.app_run_ns = run;
            }
            if with_switches {
                if let Ok(status) = fs::read_to_string(dir.join("status")) {
                    s.ctx_switches += status
                        .lines()
                        .filter(|l| l.contains("ctxt_switches"))
                        .filter_map(|l| l.split_ascii_whitespace().nth(1)?.parse::<u64>().ok())
                        .sum::<u64>();
                }
            }
        }
        if s.run_ns == 0 {
            return s.or_stat_fallback();
        }
        s
    }

    /// Kernels without schedstats: utime + stime of `/proc/self/stat`, in
    /// clock ticks of 10 ms.
    fn or_stat_fallback(mut self) -> Sched {
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and stime
            // are the 14th and 15th fields of the whole line.
            if let Some(rest) = stat.rsplit(')').next() {
                let f: Vec<&str> = rest.split_ascii_whitespace().collect();
                let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
                self.run_ns = (ticks(11) + ticks(12)) * 10_000_000;
            }
        }
        self
    }

    /// Add the counters of one more interval; `threads` keeps the maximum.
    pub fn add(&mut self, d: &Sched) {
        self.run_ns += d.run_ns;
        self.wait_ns += d.wait_ns;
        self.app_run_ns += d.app_run_ns;
        self.ctx_switches += d.ctx_switches;
        self.threads = self.threads.max(d.threads);
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Sched) -> Sched {
        Sched {
            run_ns: self.run_ns.saturating_sub(earlier.run_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
            app_run_ns: self.app_run_ns.saturating_sub(earlier.app_run_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            threads: self.threads,
        }
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// TIME_WAIT sockets on the host, from `/proc/net/sockstat`.
pub fn tw_sockets() -> u64 {
    fs::read_to_string("/proc/net/sockstat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("TCP:"))?;
            let mut f = line.split_ascii_whitespace();
            f.find(|&k| k == "tw")?;
            f.next()?.parse::<u64>().ok()
        })
        .unwrap_or(0)
}
