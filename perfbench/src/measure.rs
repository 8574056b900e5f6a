//! Small measurement helpers: medians, process memory, output checks and
//! the per-run scratch directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Median of `samples` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, or `None` where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Output checks, each counted as one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check; a false `ok` is a failed operation described by
    /// `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records that `a` equals `b`.
    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, name: &str, a: T, b: T) {
        let ok = a == b;
        self.check(ok, || format!("{name}: {a:?} != {b:?}"));
    }

    /// Checks attempted so far.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Descriptions of the failed checks.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// A fresh directory for one run's traces and archives, removed (with
/// everything in it) when dropped. It lives under `.perfbench-tmp/` in
/// the working directory, named by process id, start time and a
/// per-process counter, so concurrent runs never share a path.
#[derive(Debug)]
pub struct Scratch {
    dir: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    /// Creates the run directory.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn new() -> std::io::Result<Scratch> {
        static RUNS: AtomicU32 = AtomicU32::new(0);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = Path::new(".perfbench-tmp").join(format!(
            "run-{}-{nanos}-{}",
            std::process::id(),
            RUNS.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch {
            dir,
            next: std::cell::Cell::new(0),
        })
    }

    /// Flushes the filesystem holding the run directory to disk, so that
    /// writeback of earlier passes does not compete with the next one.
    pub fn settle(&self) {
        extern "C" {
            fn syncfs(fd: std::os::raw::c_int) -> std::os::raw::c_int;
        }
        if let Ok(dir) = std::fs::File::open(&self.dir) {
            // SAFETY: `syncfs` only reads the descriptor, which `dir` keeps
            // open for the duration of the call.
            unsafe {
                syncfs(std::os::fd::AsRawFd::as_raw_fd(&dir));
            }
        }
    }

    /// A new, empty subdirectory, unique within this run.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    #[must_use]
    pub fn fresh(&self, label: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.dir.join(format!("{n:04}-{label}"));
        std::fs::create_dir_all(&dir).expect("create scratch subdirectory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // Removes the shared parent only when no other run still uses it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn checks_count_attempts_and_failures() {
        let mut c = Checks::default();
        c.equal("same", 1, 1);
        c.equal("differs", 1, 2);
        assert_eq!(c.attempted(), 2);
        assert_eq!(c.failures(), ["differs: 1 != 2"]);
    }
}
