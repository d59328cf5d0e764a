//! Virtual-time counting semaphore.

use std::fmt;
use std::sync::Arc;

use crate::kernel::{current_waiter, try_current_waiter, Kernel, ResourceId, Waiter};
use crate::order::SyncKind;
use crate::rawlock::RawMutex;

struct SemState {
    permits: usize,
    waiters: Vec<Arc<Waiter>>,
}

struct SemInner {
    kernel: Kernel,
    /// Wait-for-graph resource; permit owners are recorded as holders.
    res: ResourceId,
    state: RawMutex<SemState>,
}

impl Drop for SemInner {
    fn drop(&mut self) {
        self.kernel.destroy_resource(self.res);
    }
}

/// A counting semaphore whose `acquire` blocks in virtual time.
///
/// Used by the FaaS simulator for per-namespace concurrency slots and by
/// clients for bounded invocation pools. Cheap to clone. Permit owners are
/// tracked as resource holders, so a deadlock report can say which threads
/// sit on the permits everyone else is waiting for.
///
/// # Examples
///
/// ```
/// use rustwren_sim::{Kernel, sync::Semaphore};
/// use std::time::Duration;
///
/// let kernel = Kernel::new();
/// kernel.clone().run("client", move || {
///     let sem = Semaphore::new(&rustwren_sim::kernel(), 2);
///     let hs: Vec<_> = (0..4).map(|i| {
///         let sem = sem.clone();
///         rustwren_sim::spawn(format!("w{i}"), move || {
///             let _permit = sem.acquire();
///             rustwren_sim::sleep(Duration::from_secs(10));
///         })
///     }).collect();
///     for h in hs { h.join(); }
///     // 4 tasks of 10s through 2 slots: 20s total.
///     assert_eq!(rustwren_sim::now().as_secs_f64(), 20.0);
/// });
/// ```
#[derive(Clone)]
pub struct Semaphore {
    inner: Arc<SemInner>,
}

impl fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Semaphore")
            .field("available", &self.available())
            .finish()
    }
}

impl Semaphore {
    /// Creates a semaphore with `permits` initially available slots.
    pub fn new(kernel: &Kernel, permits: usize) -> Semaphore {
        Semaphore::named(kernel, permits, "")
    }

    /// Creates a semaphore whose deadlock diagnostics carry `label`
    /// (e.g. `"worker-slots"`).
    pub fn named(kernel: &Kernel, permits: usize, label: impl Into<String>) -> Semaphore {
        Semaphore {
            inner: Arc::new(SemInner {
                kernel: kernel.clone(),
                res: kernel.create_resource("semaphore", label),
                state: RawMutex::new(SemState {
                    permits,
                    waiters: Vec::new(),
                }),
            }),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.inner.state.lock().permits
    }

    /// Acquires one permit, blocking in virtual time until available.
    /// The permit is released when the returned guard drops.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread is not a simulated thread on this
    /// semaphore's kernel and no permit is available.
    pub fn acquire(&self) -> SemaphoreGuard {
        self.acquire_raw();
        SemaphoreGuard {
            sem: Semaphore::clone(self),
        }
    }

    /// Acquires one permit without a guard; pair with [`release_raw`].
    ///
    /// [`release_raw`]: Semaphore::release_raw
    pub fn acquire_raw(&self) {
        self.inner.kernel.preemption_point("semaphore.acquire");
        loop {
            {
                let mut st = self.inner.kernel.lock_state();
                let mut sem = self.inner.state.lock();
                if sem.permits > 0 {
                    sem.permits -= 1;
                    drop(sem);
                    if let Some(w) = try_current_waiter(&self.inner.kernel) {
                        st.hold_resource_locked(self.inner.res, &w);
                        st.rec_acquired(self.inner.res, SyncKind::Semaphore, &w);
                    }
                    return;
                }
                let waiter = current_waiter(&self.inner.kernel, "Semaphore::acquire");
                if !sem.waiters.iter().any(|w| w.id() == waiter.id()) {
                    sem.waiters.push(waiter);
                }
                drop(sem);
                st.touch(self.inner.res);
            }
            self.inner
                .kernel
                .block_current(Some(self.inner.res), "semaphore.acquire");
        }
    }

    /// Attempts to acquire a permit without blocking.
    pub fn try_acquire(&self) -> Option<SemaphoreGuard> {
        let mut st = self.inner.kernel.lock_state();
        let mut sem = self.inner.state.lock();
        if sem.permits > 0 {
            sem.permits -= 1;
            drop(sem);
            if let Some(w) = try_current_waiter(&self.inner.kernel) {
                st.hold_resource_locked(self.inner.res, &w);
                st.rec_acquired(self.inner.res, SyncKind::Semaphore, &w);
            }
            Some(SemaphoreGuard {
                sem: Semaphore::clone(self),
            })
        } else {
            None
        }
    }

    /// Returns one permit; counterpart of [`acquire_raw`].
    ///
    /// [`acquire_raw`]: Semaphore::acquire_raw
    pub fn release_raw(&self) {
        self.inner.kernel.preemption_point("semaphore.release");
        let mut st = self.inner.kernel.lock_state();
        let waiters = {
            let mut sem = self.inner.state.lock();
            sem.permits += 1;
            std::mem::take(&mut sem.waiters)
        };
        let w = try_current_waiter(&self.inner.kernel);
        st.release_resource_locked(self.inner.res, w.as_deref());
        if let Some(w) = &w {
            st.rec_released(self.inner.res, SyncKind::Semaphore, w);
        }
        for w in &waiters {
            Kernel::wake_locked(&mut st, w);
        }
    }
}

/// RAII permit returned by [`Semaphore::acquire`]; releases on drop.
#[derive(Debug)]
pub struct SemaphoreGuard {
    sem: Semaphore,
}

impl Drop for SemaphoreGuard {
    fn drop(&mut self) {
        self.sem.release_raw();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn permits_limit_concurrency() {
        Kernel::new().run("client", || {
            let sem = Semaphore::new(&crate::kernel(), 3);
            let hs: Vec<_> = (0..9)
                .map(|i| {
                    let sem = sem.clone();
                    crate::spawn(format!("w{i}"), move || {
                        let _p = sem.acquire();
                        crate::sleep(Duration::from_secs(5));
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
            // 9 tasks, 3 at a time, 5s each: 15s.
            assert_eq!(crate::now().as_secs_f64(), 15.0);
        });
    }

    #[test]
    fn try_acquire_fails_when_exhausted() {
        Kernel::new().run("client", || {
            let sem = Semaphore::new(&crate::kernel(), 1);
            let g = sem.try_acquire();
            assert!(g.is_some());
            assert!(sem.try_acquire().is_none());
            drop(g);
            assert!(sem.try_acquire().is_some());
        });
    }

    #[test]
    fn guard_drop_releases() {
        Kernel::new().run("client", || {
            let sem = Semaphore::new(&crate::kernel(), 1);
            {
                let _g = sem.acquire();
                assert_eq!(sem.available(), 0);
            }
            assert_eq!(sem.available(), 1);
        });
    }

    #[test]
    fn raw_acquire_release_balance() {
        Kernel::new().run("client", || {
            let sem = Semaphore::new(&crate::kernel(), 2);
            sem.acquire_raw();
            sem.acquire_raw();
            assert_eq!(sem.available(), 0);
            sem.release_raw();
            sem.release_raw();
            assert_eq!(sem.available(), 2);
        });
    }
}
