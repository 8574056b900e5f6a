//! Scratch directories for code that needs real files: tests and examples
//! that save a trace and load it back.

use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh directory under the system temp dir, removed with everything
/// in it on drop.
///
/// The name carries the process id and a per-process counter, and a name
/// that already exists (left behind by a killed process) is skipped. So
/// no two values share a directory, not even across two test binaries or
/// two `cargo test` runs at once.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<temp dir>/<tag>-<pid>-<n>` for the first free `n`.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    #[must_use]
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("{tag}-{}-{n}", std::process::id()));
            match fs::create_dir(&path) {
                Ok(()) => return ScratchDir { path },
                Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
                Err(e) => panic!("create scratch dir {}: {e}", path.display()),
            }
        }
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    #[must_use]
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directories_are_distinct_and_removed_on_drop() {
        let a = ScratchDir::new("eventdb-scratch");
        let b = ScratchDir::new("eventdb-scratch");
        assert_ne!(a.path(), b.path());
        fs::write(a.join("file"), b"x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }

    #[test]
    fn a_leftover_directory_is_skipped() {
        // Occupy the next names, as a killed run with a recycled pid would.
        let probe = ScratchDir::new("eventdb-leftover");
        let name = probe.path().file_name().unwrap().to_string_lossy();
        let (prefix, n) = name.rsplit_once('-').unwrap();
        let n: usize = n.parse().unwrap();
        let leftovers: Vec<PathBuf> = (n + 1..n + 64)
            .map(|k| std::env::temp_dir().join(format!("{prefix}-{k}")))
            .filter(|p| fs::create_dir(p).is_ok())
            .collect();
        let fresh = ScratchDir::new("eventdb-leftover");
        assert!(!leftovers.iter().any(|p| p == fresh.path()));
        for p in &leftovers {
            fs::remove_dir(p).unwrap();
        }
    }
}
