//! Runs one CLI child at a time under a watchdog and reads its resource
//! usage with `wait4(2)`.
//!
//! The child is first waited for with `waitid(.., WEXITED | WNOWAIT)`, which
//! leaves it a zombie: its pid cannot be reused until the later `wait4`
//! reaps it, so the watchdog can never signal an unrelated process.

use std::io;
use std::os::raw::{c_int, c_long, c_uint};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[cfg(not(target_os = "linux"))]
compile_error!("tlbench reads child resource usage through Linux wait4(2) and waitid(2)");

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` from `<sys/resource.h>`: two timevals, then 14 longs
/// starting with `ru_maxrss` (kilobytes on Linux).
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    _rest: [c_long; 13],
}

/// `siginfo_t` is 128 bytes on every Linux ABI; its contents are not read.
#[repr(C, align(8))]
struct SigInfo([u8; 128]);

const P_PID: c_uint = 1;
const WEXITED: c_int = 4;
const WNOWAIT: c_int = 0x0100_0000;

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
    fn waitid(idtype: c_uint, id: c_uint, infop: *mut SigInfo, options: c_int) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
}

/// A child starts in its parent's address space until it execs, and the
/// kernel folds that address space's peak RSS into the child's `ru_maxrss`.
/// Returning free heap to the system and resetting this process's peak-RSS
/// mark (`/proc/self/clear_refs`, value 5) keeps the benchmark's own memory
/// out of the CLI's reading.
fn shed_own_rss() -> io::Result<()> {
    // SAFETY: malloc_trim only returns free heap pages to the system; it
    // invalidates no live allocation.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
}

/// How a child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exit {
    /// Exited normally with this code.
    Code(i32),
    /// Killed by this signal (not by the watchdog).
    Signal(i32),
    /// Killed by the watchdog after the timeout.
    TimedOut,
}

/// One finished child: how it ended and what it cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub exit: Exit,
    /// Spawn to exit.
    pub wall: Duration,
    /// User plus system CPU time of the child and its waited-for descendants.
    pub cpu: Duration,
    /// Peak resident set size, in kilobytes.
    pub maxrss_kb: u64,
}

/// Blocks until `pid` has exited, without reaping it.
fn wait_exited(pid: u32) -> io::Result<()> {
    let mut info = SigInfo([0; 128]);
    loop {
        // SAFETY: `info` is a live, writable, suitably aligned 128-byte
        // buffer, the size of `siginfo_t`; `pid` is our own unreaped child.
        let rc = unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) };
        if rc == 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Reaps the exited `pid` and returns its wait status and resource usage.
fn reap(pid: u32) -> io::Result<(c_int, Rusage)> {
    let pid = c_int::try_from(pid).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status: c_int = 0;
    let mut usage = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable values of the
        // C layouts `wait4` fills; `pid` is our own exited child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((status, usage));
        }
        let err = io::Error::last_os_error();
        if rc != -1 || err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

fn duration_of(t: &Timeval) -> Duration {
    Duration::from_secs(t.tv_sec.max(0) as u64) + Duration::from_micros(t.tv_usec.max(0) as u64)
}

/// Runs `cmd` to completion, killing it if it outlives `timeout`.
///
/// # Errors
///
/// Spawn and wait failures.
pub fn run(cmd: &mut Command, timeout: Duration) -> io::Result<Usage> {
    shed_own_rss()?;
    let start = Instant::now();
    let child = cmd.spawn()?;
    let pid = child.id();
    // The watchdog may signal the child only while it is still in this slot;
    // it is taken out before the child is reaped.
    let slot: Mutex<Option<Child>> = Mutex::new(Some(child));
    let timed_out = AtomicBool::new(false);
    let (done_tx, done_rx) = mpsc::channel::<()>();
    std::thread::scope(|s| {
        let (slot, timed_out) = (&slot, &timed_out);
        s.spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(timeout) {
                let mut guard = slot
                    .lock()
                    .expect("no thread panics while holding the child");
                if let Some(child) = guard.as_mut() {
                    timed_out.store(true, Ordering::SeqCst);
                    // The child may already be exiting; a failed kill is harmless.
                    let _ = child.kill();
                }
            }
        });
        let waited = wait_exited(pid);
        let wall = start.elapsed();
        let mut child = slot
            .lock()
            .expect("no thread panics while holding the child")
            .take()
            .expect("only this thread takes the child");
        let reaped = match waited {
            Ok(()) => reap(pid),
            Err(err) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(err)
            }
        };
        drop(done_tx);
        let (status, usage) = reaped?;
        let exit = if timed_out.load(Ordering::SeqCst) {
            Exit::TimedOut
        } else if status & 0x7f == 0 {
            Exit::Code((status >> 8) & 0xff)
        } else {
            Exit::Signal(status & 0x7f)
        };
        Ok(Usage {
            exit,
            wall,
            cpu: duration_of(&usage.ru_utime) + duration_of(&usage.ru_stime),
            maxrss_kb: usage.ru_maxrss.max(0) as u64,
        })
    })
}

/// The environment one iteration runs in: `HOME`, `TMPDIR` and
/// `XDG_CACHE_HOME` all point inside `root`, so any on-disk cache the CLI
/// might keep starts empty in a fresh `Env` and persists across iterations
/// that share one.
pub struct Env {
    root: PathBuf,
}

impl Env {
    /// Creates `root` with empty `home`, `tmp` and `cache` directories.
    pub fn create(root: PathBuf) -> io::Result<Env> {
        for sub in ["home", "tmp", "cache"] {
            std::fs::create_dir_all(root.join(sub))?;
        }
        Ok(Env { root })
    }

    /// A command for `program` that runs in `workdir` under this environment,
    /// with stdout discarded and stderr captured to `workdir/stderr-<tag>`.
    pub fn command(&self, program: &Path, workdir: &Path, tag: &str) -> io::Result<Command> {
        let stderr = std::fs::File::create(workdir.join(format!("stderr-{tag}")))?;
        let mut cmd = Command::new(program);
        cmd.current_dir(workdir)
            .env("HOME", self.root.join("home"))
            .env("TMPDIR", self.root.join("tmp"))
            .env("XDG_CACHE_HOME", self.root.join("cache"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr);
        Ok(cmd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_rss_excludes_this_process_memory() {
        let big = vec![1u8; 256 << 20];
        std::hint::black_box(&big);
        drop(big);
        let usage = run(&mut Command::new("true"), Duration::from_secs(10)).unwrap();
        assert!(
            usage.maxrss_kb < 64 << 10,
            "child read {} kB",
            usage.maxrss_kb
        );
    }

    #[test]
    fn reports_exit_codes() {
        let ok = run(
            Command::new("true").stderr(Stdio::null()),
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(ok.exit, Exit::Code(0));
        assert!(ok.maxrss_kb > 0);
        let bad = run(
            Command::new("false").stderr(Stdio::null()),
            Duration::from_secs(10),
        )
        .unwrap();
        assert_eq!(bad.exit, Exit::Code(1));
    }

    #[test]
    fn watchdog_kills_a_child_past_its_timeout() {
        let t0 = Instant::now();
        let usage = run(Command::new("sleep").arg("30"), Duration::from_millis(200)).unwrap();
        assert_eq!(usage.exit, Exit::TimedOut);
        assert!(t0.elapsed() < Duration::from_secs(10));
    }
}
