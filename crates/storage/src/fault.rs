//! Fault injection: a [`Vfs`] wrapper that fails on command.
//!
//! [`FaultFs`] delegates to an inner filesystem until its [`FaultPlan`] says
//! otherwise. The interesting failure is the *torn append*: after an
//! append-byte budget is exhausted, the next append writes only the bytes that
//! still fit and then reports an error — exactly the half-written frame a
//! power cut leaves behind. Because the wrapper sits below the production
//! engine, every fault exercises the real append/recover code paths.

use crate::vfs::Vfs;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// What to fail, and when.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Total append bytes still allowed to reach the inner filesystem. `None`
    /// disables the fault. When an append does not fit, the part that fits is
    /// written (a torn frame) and the append reports `WriteZero`.
    pub append_budget: Option<u64>,
    /// Fail the next this-many `append` calls *cleanly* — no bytes reach the
    /// inner filesystem, the caller sees `Other` — then let appends through
    /// again (`1` = fail-once; pair with a large value for fail-always
    /// sweeps).
    pub fail_appends: u32,
    /// Fail every `sync` call with `Other`.
    pub fail_sync: bool,
    /// Fail every `write_atomic` (snapshot writes) with `Other`, writing
    /// nothing — atomic replacement either happens or leaves the old file.
    pub fail_write_atomic: bool,
    /// Fail every `read` with `Other`.
    pub fail_read: bool,
}

/// Fault-injecting wrapper around another [`Vfs`].
#[derive(Debug)]
pub struct FaultFs {
    inner: Arc<dyn Vfs>,
    plan: Mutex<FaultPlan>,
}

impl FaultFs {
    /// Wrap an inner filesystem with no faults armed.
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        FaultFs {
            inner,
            plan: Mutex::new(FaultPlan::default()),
        }
    }

    /// Install a new fault plan (replaces the previous one).
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.lock_plan() = plan;
    }

    /// The currently armed plan.
    pub fn plan(&self) -> FaultPlan {
        self.lock_plan().clone()
    }

    fn lock_plan(&self) -> std::sync::MutexGuard<'_, FaultPlan> {
        match self.plan.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn injected(what: &str) -> io::Error {
        io::Error::other(format!("injected fault: {what}"))
    }
}

impl Vfs for FaultFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if self.lock_plan().fail_read {
            return Err(Self::injected("read"));
        }
        self.inner.read(path)
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if self.lock_plan().fail_write_atomic {
            return Err(Self::injected("write_atomic"));
        }
        self.inner.write_atomic(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let allowed = {
            let mut plan = self.lock_plan();
            if plan.fail_appends > 0 {
                plan.fail_appends -= 1;
                return Err(Self::injected("append"));
            }
            match plan.append_budget {
                None => None,
                Some(budget) => {
                    let fits = (data.len() as u64).min(budget);
                    plan.append_budget = Some(budget - fits);
                    Some(fits as usize)
                }
            }
        };
        match allowed {
            None => self.inner.append(path, data),
            Some(fits) if fits == data.len() => self.inner.append(path, data),
            Some(fits) => {
                // Torn write: the prefix lands, the rest is lost, and the
                // caller is told the append failed.
                self.inner.append(path, &data[..fits])?;
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!(
                        "injected torn append: {fits} of {} bytes written",
                        data.len()
                    ),
                ))
            }
        }
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        if self.lock_plan().fail_sync {
            return Err(Self::injected("sync"));
        }
        self.inner.sync(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn file_len(&self, path: &Path) -> io::Result<Option<u64>> {
        self.inner.file_len(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemFs;

    #[test]
    fn torn_append_writes_the_prefix_then_errors() {
        let mem = Arc::new(MemFs::new());
        let fs = FaultFs::new(Arc::clone(&mem) as Arc<dyn Vfs>);
        let file = Path::new("/db/wal-000000.log");

        fs.append(file, b"full").unwrap();
        fs.set_plan(FaultPlan {
            append_budget: Some(3),
            ..FaultPlan::default()
        });
        // 3 bytes of budget: "ab" fits wholly, "cdef" tears after 1 byte.
        fs.append(file, b"ab").unwrap();
        let err = fs.append(file, b"cdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(mem.read(file).unwrap(), b"fullabc");
        // Budget exhausted: even a 1-byte append tears at zero.
        assert!(fs.append(file, b"x").is_err());
        assert_eq!(mem.read(file).unwrap(), b"fullabc");
    }

    #[test]
    fn clean_append_failures_write_nothing_then_clear() {
        let mem = Arc::new(MemFs::new());
        let fs = FaultFs::new(Arc::clone(&mem) as Arc<dyn Vfs>);
        let file = Path::new("/db/wal-000000.log");
        fs.append(file, b"ok").unwrap();
        fs.set_plan(FaultPlan {
            fail_appends: 2,
            ..FaultPlan::default()
        });
        assert!(fs.append(file, b"a").is_err());
        assert!(fs.append(file, b"b").is_err());
        // Unlike a torn append, nothing landed on the inner filesystem…
        assert_eq!(mem.read(file).unwrap(), b"ok");
        // …and the fault self-clears after the planned count.
        fs.append(file, b"c").unwrap();
        assert_eq!(mem.read(file).unwrap(), b"okc");
        assert_eq!(fs.plan().fail_appends, 0);
    }

    #[test]
    fn sync_write_atomic_and_read_faults_fire() {
        let mem = Arc::new(MemFs::new());
        let fs = FaultFs::new(Arc::clone(&mem) as Arc<dyn Vfs>);
        let file = Path::new("/db/snapshot-000001.bin");
        fs.write_atomic(file, b"ok").unwrap();

        fs.set_plan(FaultPlan {
            fail_sync: true,
            fail_write_atomic: true,
            fail_read: true,
            ..FaultPlan::default()
        });
        assert!(fs.sync(file).is_err());
        assert!(fs.write_atomic(file, b"new").is_err());
        assert!(fs.read(file).is_err());
        // The failed write_atomic left the old contents intact.
        assert_eq!(mem.read(file).unwrap(), b"ok");

        // Pass-through operations still work while faults are armed.
        assert_eq!(fs.file_len(file).unwrap(), Some(2));
        assert_eq!(fs.list(Path::new("/db")).unwrap().len(), 1);

        fs.set_plan(FaultPlan::default());
        assert_eq!(fs.read(file).unwrap(), b"ok");
        assert!(fs.plan().append_budget.is_none());
        fs.remove_file(file).unwrap();
        fs.create_dir_all(Path::new("/db")).unwrap();
    }
}
