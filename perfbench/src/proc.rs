//! Child processes the benchmark drives — `repro` passes and `twodprofd`
//! daemons — and their resident memory: a finished child's from
//! `wait4(2)`, a live daemon's from `/proc`.

use std::fs::{self, File};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn peak_rss_kib(pid: &str) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// What `wait4(2)` reports of a reaped child.
struct Reaped {
    /// It exited with status 0.
    success: bool,
    /// Raw wait status, for the error message.
    status: i32,
    /// User plus system CPU seconds, all threads.
    cpu_s: f64,
    /// Peak resident set in KiB.
    max_rss_kib: u64,
}

/// Waits for `child` and reads its resource usage, through a direct
/// `extern "C"` declaration (std already links libc). The kernel keeps
/// the exact peak and CPU time, so nothing polls the child while it runs.
fn reap(child: &Child) -> std::io::Result<Reaped> {
    use std::os::raw::c_long;
    #[repr(C)]
    struct TimeVal {
        sec: c_long,
        usec: c_long,
    }
    #[repr(C)]
    struct RUsage {
        utime: TimeVal,
        stime: TimeVal,
        maxrss: c_long,
        // ixrss … nivcsw, unused here
        rest: [c_long; 13],
    }
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
    }
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    let mut status = 0i32;
    // SAFETY: RUsage is all plain integers, so the zero pattern is valid.
    let mut usage: RUsage = unsafe { std::mem::zeroed() };
    loop {
        // SAFETY: both pointers are to live locals of the declared layout.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 / 1e6;
    // exited (low 7 bits 0) with code 0 (next 8 bits)
    Ok(Reaped {
        success: status & 0xffff == 0,
        status,
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        max_rss_kib: u64::try_from(usage.maxrss).unwrap_or(0),
    })
}

/// A finished child run.
pub struct ChildRun {
    /// Wall time from spawn to exit.
    pub wall: Duration,
    /// CPU seconds the child used.
    pub cpu_s: f64,
    /// Peak RSS in KiB.
    pub peak_rss_kib: u64,
    /// Captured standard output.
    pub stdout: String,
    /// Captured standard error.
    pub stderr: String,
}

/// Runs `cmd` to completion with its output captured in `dir/<tag>.out`
/// and `dir/<tag>.err`. Fails if it cannot start or exits unsuccessfully.
pub fn run_child(mut cmd: Command, dir: &Path, tag: &str) -> Result<ChildRun, String> {
    let out_path = dir.join(format!("{tag}.out"));
    let err_path = dir.join(format!("{tag}.err"));
    let create = |p: &PathBuf| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    cmd.stdin(Stdio::null())
        .stdout(create(&out_path)?)
        .stderr(create(&err_path)?);
    let start = Instant::now();
    let child = cmd
        .spawn()
        .map_err(|e| format!("cannot start {tag}: {e}"))?;
    let reaped = reap(&child).map_err(|e| format!("{tag}: {e}"))?;
    let wall = start.elapsed();
    let read = |p: &PathBuf| fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let stderr = read(&err_path)?;
    if !reaped.success {
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "{tag} exited with wait status {:#x}: {}",
            reaped.status,
            tail.join(" | ")
        ));
    }
    Ok(ChildRun {
        wall,
        cpu_s: reaped.cpu_s,
        peak_rss_kib: reaped.max_rss_kib,
        stdout: read(&out_path)?,
        stderr,
    })
}

/// A running `twodprofd`, killed and reaped on drop.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    /// The address it listens on.
    pub addr: String,
}

impl Daemon {
    /// Starts `twodprofd` with `extra` flags on an ephemeral loopback port,
    /// keeping its log, spill segments and blackbox dump under `dir`, and
    /// returns once it reports the address it listens on.
    pub fn spawn(bin: &Path, dir: &Path, extra: &[&str]) -> Result<Self, String> {
        let spill = dir.join("spill");
        fs::create_dir_all(&spill).map_err(|e| format!("{}: {e}", spill.display()))?;
        let log = dir.join("daemon.log");
        let log = File::options()
            .create(true)
            .append(true)
            .open(&log)
            .map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--quiet", "--spill-dir"])
            .arg(&spill)
            .arg("--blackbox-file")
            .arg(dir.join("blackbox.bin"))
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let Some(addr) = line.trim().strip_prefix("twodprofd listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!(
                "twodprofd did not report its address (read {read:?}, got {line:?})"
            ));
        };
        Ok(Daemon {
            addr: addr.to_owned(),
            child,
            _stdout: stdout,
        })
    }

    /// Peak RSS so far, in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        peak_rss_kib(&self.child.id().to_string()).unwrap_or(0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // the benchmark measures nothing after this point, so there is no
        // graceful drain to wait for
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A fresh empty directory at `path` (any previous contents removed).
pub fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    if path.exists() {
        fs::remove_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    fs::create_dir_all(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}
