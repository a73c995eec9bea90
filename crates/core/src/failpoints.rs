//! Fail-point injection for chaos testing (cargo feature `failpoints`).
//!
//! A fail point is a named site on a build or batch path where a test
//! can inject a failure. With the feature disabled (the default) every
//! [`check`] compiles to `Ok(())` and the registry does not exist, so
//! production builds pay nothing. The registry is a tiny std-only map
//! — no external crate, consistent with the workspace's zero-dep
//! observability gate.
//!
//! Arming is scoped. `inject` returns a [`FailPoint`] guard that
//! disarms its site on drop, and a test that arms a site holds the
//! process-wide `exclusive` lock while it runs; a test that merely
//! drives sites another test might arm holds `shared` (all three exist
//! only with the feature). An injected fault therefore fires only
//! inside the test that armed it, even under the parallel test harness.
//!
//! ```ignore
//! // Only with `--features failpoints`:
//! let _serial = skq_core::failpoints::exclusive();
//! let armed = skq_core::failpoints::inject("orp::build", FailAction::Err, None);
//! assert!(OrpKwIndex::try_build(&dataset, 2).is_err());
//! drop(armed); // disarmed
//! assert!(OrpKwIndex::try_build(&dataset, 2).is_ok());
//! ```

use crate::error::SkqError;

/// Every registered injection site, for exhaustive chaos sweeps.
///
/// Each site sits on exactly one build (or shard) path; the chaos test
/// drives the matching public entry point for each name.
pub const SITES: &[&str] = &[
    "orp::build",
    "rr::build",
    "nn_linf::build",
    "nn_l2::build",
    "lc::build",
    "sp::build",
    "srp::build",
    "ksi::build",
    "framework::build",
    "dynamic::build_block",
    "batch::shard",
    "serve::request",
    "serve::worker",
    "store::read_page",
    "store::wal_append",
    "store::fsync",
    "store::checkpoint",
];

/// What an armed fail point does when hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Return `Err(SkqError::Internal("fail point <site> triggered"))`.
    Err,
    /// Panic with `"fail point <site> triggered"` — exercises the
    /// panic-isolation machinery (batch shards).
    Panic,
    /// Abort the whole process (`std::process::abort`) — simulates a
    /// hard crash (power loss, OOM-kill) for the WAL/recovery
    /// drivers; nothing unwinds and no destructor runs.
    Abort,
}

/// Evaluates the named fail point.
///
/// Returns `Err` (or panics) if a test armed the site via `inject`
/// (available with the `failpoints` feature);
/// otherwise — and always, when the `failpoints` feature is off —
/// returns `Ok(())`.
#[inline]
pub fn check(site: &'static str) -> Result<(), SkqError> {
    #[cfg(feature = "failpoints")]
    {
        imp::check(site)
    }
    #[cfg(not(feature = "failpoints"))]
    {
        let _ = site;
        Ok(())
    }
}

/// An armed fail point: dropping it disarms the site. Without the
/// `failpoints` feature no value of this type can be made.
#[must_use = "dropping the guard disarms the fail point at once"]
#[derive(Debug)]
pub struct FailPoint {
    #[cfg(feature = "failpoints")]
    site: String,
    #[cfg(feature = "failpoints")]
    arming: u64,
}

#[cfg(feature = "failpoints")]
impl Drop for FailPoint {
    fn drop(&mut self) {
        imp::disarm(&self.site, self.arming);
    }
}

/// Arms a fail point until the returned guard drops. `times` bounds
/// how many hits fire (`None` = every hit). Re-injecting a site
/// replaces its entry; the replaced guard's drop then does nothing.
#[cfg(feature = "failpoints")]
pub fn inject(site: &str, action: FailAction, times: Option<usize>) -> FailPoint {
    FailPoint {
        site: site.to_string(),
        arming: imp::inject(site, action, times),
    }
}

/// The process-wide fail-point lock, write side: held by a test for
/// as long as it arms sites, so no other test observes its faults.
#[cfg(feature = "failpoints")]
pub fn exclusive() -> std::sync::RwLockWriteGuard<'static, ()> {
    imp::LOCK
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The process-wide fail-point lock, read side: held by a test that
/// drives fail-point sites without arming them, so it never runs while
/// another test has them armed.
#[cfg(feature = "failpoints")]
pub fn shared() -> std::sync::RwLockReadGuard<'static, ()> {
    imp::LOCK
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::{FailAction, SkqError};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, PoisonError, RwLock};

    /// Serializes arming tests against everything else that drives
    /// the sites (see [`super::exclusive`]).
    pub static LOCK: RwLock<()> = RwLock::new(());

    struct Entry {
        action: FailAction,
        remaining: Option<usize>,
        /// Which `inject` call armed the site, so only its own guard
        /// disarms it.
        arming: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, Entry>> {
        static REGISTRY: std::sync::OnceLock<Mutex<HashMap<String, Entry>>> =
            std::sync::OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Arms `site` and returns the arming's id.
    pub fn inject(site: &str, action: FailAction, times: Option<usize>) -> u64 {
        static NEXT_ARMING: AtomicU64 = AtomicU64::new(0);
        // relaxed: a unique-id counter; nothing is published through it
        let arming = NEXT_ARMING.fetch_add(1, Ordering::Relaxed);
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                site.to_string(),
                Entry {
                    action,
                    remaining: times,
                    arming,
                },
            );
        arming
    }

    /// Removes `site`'s entry if `arming` still owns it.
    pub fn disarm(site: &str, arming: u64) {
        let mut map = registry().lock().unwrap_or_else(PoisonError::into_inner);
        if map.get(site).is_some_and(|e| e.arming == arming) {
            map.remove(site);
        }
    }

    pub fn check(site: &'static str) -> Result<(), SkqError> {
        let action = {
            let mut map = registry().lock().unwrap_or_else(PoisonError::into_inner);
            match map.get_mut(site) {
                None => return Ok(()),
                Some(entry) => match entry.remaining {
                    Some(0) => return Ok(()),
                    Some(ref mut n) => {
                        *n -= 1;
                        entry.action
                    }
                    None => entry.action,
                },
            }
            // The lock is dropped here, before we act: a panicking fail
            // point must not poison the registry.
        };
        match action {
            FailAction::Err => Err(SkqError::Internal(format!("fail point {site} triggered"))),
            FailAction::Panic => panic!("fail point {site} triggered"),
            FailAction::Abort => std::process::abort(),
        }
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    // Distinct site names per test: the registry is process-global and
    // the test harness runs these in parallel.

    #[test]
    fn unarmed_site_is_ok() {
        assert!(check("test::unarmed").is_ok());
    }

    #[test]
    fn bounded_injection_fires_n_times() {
        let _armed = inject("test::bounded", FailAction::Err, Some(2));
        assert!(check("test::bounded").is_err());
        assert!(check("test::bounded").is_err());
        assert!(check("test::bounded").is_ok());
    }

    #[test]
    fn dropping_the_guard_disarms_the_site() {
        let armed = inject("test::scoped", FailAction::Err, None);
        assert!(check("test::scoped").is_err());
        drop(armed);
        assert!(check("test::scoped").is_ok());
    }

    #[test]
    fn a_replaced_guard_leaves_the_new_arming_alone() {
        let first = inject("test::replaced", FailAction::Err, None);
        let second = inject("test::replaced", FailAction::Err, None);
        drop(first);
        assert!(check("test::replaced").is_err());
        drop(second);
        assert!(check("test::replaced").is_ok());
    }
}
