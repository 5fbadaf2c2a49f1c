//! The resident-matrix registry: named CSC handles under a byte budget.
//!
//! The service's reason to exist is that `A` stays hot while requests only
//! vary the sketch seed — so matrices are loaded once, validated once,
//! and pinned in memory by name. The registry enforces a byte budget
//! (default: a quarter of [`sketchcore::robust::memory_budget_bytes`], the
//! same `SKETCH_MEM_BUDGET` knob the hardened sketches honor) by evicting
//! least-recently-used entries — but only entries no in-flight request
//! holds: each `get` hands out an `Arc`, and an entry whose `Arc` is still
//! shared is skipped by eviction. A load that cannot fit even after
//! evicting every idle entry is refused with [`RegistryError::Full`],
//! which the wire layer maps to `Status::Overloaded`.

use sparsekit::CscMatrix;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Why a registry operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// No entry under that name.
    NotFound(String),
    /// The budget cannot fit the new entry even after evicting everything
    /// evictable.
    Full {
        /// Bytes the new entry needs.
        need: u64,
        /// Bytes still pinned by in-flight requests (plus the budget
        /// shortfall context).
        budget: u64,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::NotFound(n) => write!(f, "matrix {n:?} is not loaded"),
            RegistryError::Full { need, budget } => {
                write!(
                    f,
                    "registry full: {need} bytes requested against budget {budget}"
                )
            }
        }
    }
}

impl std::error::Error for RegistryError {}

struct Entry {
    matrix: Arc<CscMatrix<f64>>,
    bytes: u64,
    last_used: u64,
}

struct Inner {
    entries: HashMap<String, Entry>,
    clock: u64,
    total: u64,
}

/// Named, budgeted, LRU-evicting store of validated CSC matrices.
pub struct Registry {
    inner: Mutex<Inner>,
    budget: u64,
}

impl Registry {
    /// A registry with an explicit byte budget.
    pub fn new(budget: u64) -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                clock: 0,
                total: 0,
            }),
            budget,
        }
    }

    /// The default serving budget: a quarter of the sketches'
    /// `SKETCH_MEM_BUDGET`, leaving headroom for sketch outputs and batch
    /// buffers.
    pub fn default_budget() -> u64 {
        sketchcore::robust::memory_budget_bytes() / 4
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Install `matrix` under `name`, replacing any existing entry with
    /// that name and evicting idle LRU entries until it fits. Returns the
    /// number of entries evicted (not counting the same-name replacement).
    ///
    /// The matrix must already be validated — the wire layer validates at
    /// load time precisely so every later request can skip it.
    pub fn insert(&self, name: &str, matrix: CscMatrix<f64>) -> Result<u64, RegistryError> {
        let bytes = matrix.memory_bytes() as u64;
        let mut g = self.lock();
        if let Some(old) = g.entries.remove(name) {
            g.total -= old.bytes;
        }
        if bytes > self.budget {
            return Err(RegistryError::Full {
                need: bytes,
                budget: self.budget,
            });
        }
        let mut evicted = 0u64;
        while g.total + bytes > self.budget {
            // Oldest idle entry. `strong_count == 1` means only the registry
            // holds it: no in-flight request can lose its operand mid-batch.
            let victim = g
                .entries
                .iter()
                .filter(|(_, e)| Arc::strong_count(&e.matrix) == 1)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    if let Some(e) = g.entries.remove(&k) {
                        g.total -= e.bytes;
                        evicted += 1;
                    }
                }
                None => {
                    return Err(RegistryError::Full {
                        need: bytes,
                        budget: self.budget.saturating_sub(g.total),
                    })
                }
            }
        }
        g.clock += 1;
        let last_used = g.clock;
        g.total += bytes;
        g.entries.insert(
            name.to_string(),
            Entry {
                matrix: Arc::new(matrix),
                bytes,
                last_used,
            },
        );
        Ok(evicted)
    }

    /// Fetch a handle, bumping its LRU position. The returned `Arc` pins
    /// the entry against eviction for as long as the caller holds it.
    pub fn get(&self, name: &str) -> Result<Arc<CscMatrix<f64>>, RegistryError> {
        let mut g = self.lock();
        g.clock += 1;
        let clock = g.clock;
        match g.entries.get_mut(name) {
            Some(e) => {
                e.last_used = clock;
                Ok(Arc::clone(&e.matrix))
            }
            None => Err(RegistryError::NotFound(name.to_string())),
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes currently charged against the budget.
    pub fn used_bytes(&self) -> u64 {
        self.lock().total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(n: usize) -> CscMatrix<f64> {
        CscMatrix::identity(n)
    }

    #[test]
    fn insert_get_replace() {
        let r = Registry::new(1 << 20);
        r.insert("a", ident(10)).unwrap();
        assert_eq!(r.get("a").unwrap().ncols(), 10);
        r.insert("a", ident(20)).unwrap();
        assert_eq!(r.get("a").unwrap().ncols(), 20);
        assert_eq!(r.len(), 1);
        assert!(matches!(r.get("b"), Err(RegistryError::NotFound(_))));
    }

    #[test]
    fn lru_eviction_order() {
        let bytes = ident(50).memory_bytes() as u64;
        // Budget fits two entries of this size, not three.
        let r = Registry::new(bytes * 2 + bytes / 2);
        r.insert("a", ident(50)).unwrap();
        r.insert("b", ident(50)).unwrap();
        // Touch "a" so "b" becomes the LRU victim.
        let _ = r.get("a").unwrap();
        let evicted = r.insert("c", ident(50)).unwrap();
        assert_eq!(evicted, 1);
        assert!(r.get("a").is_ok());
        assert!(matches!(r.get("b"), Err(RegistryError::NotFound(_))));
        assert!(r.get("c").is_ok());
    }

    #[test]
    fn pinned_entries_survive_eviction() {
        let bytes = ident(50).memory_bytes() as u64;
        let r = Registry::new(bytes * 2 + bytes / 2);
        r.insert("a", ident(50)).unwrap();
        r.insert("b", ident(50)).unwrap();
        // Pin the LRU entry the way an in-flight request would.
        let pinned = r.get("a").unwrap();
        let _ = r.get("b").unwrap();
        // "a" is older but pinned, so "b" goes instead.
        r.insert("c", ident(50)).unwrap();
        assert!(r.get("a").is_ok());
        assert!(matches!(r.get("b"), Err(RegistryError::NotFound(_))));
        drop(pinned);
    }

    #[test]
    fn over_budget_with_everything_pinned_is_full() {
        let bytes = ident(50).memory_bytes() as u64;
        let r = Registry::new(bytes + bytes / 2);
        r.insert("a", ident(50)).unwrap();
        let _pin = r.get("a").unwrap();
        assert!(matches!(
            r.insert("b", ident(50)),
            Err(RegistryError::Full { .. })
        ));
        // And a single matrix bigger than the whole budget is refused
        // outright.
        let tiny = Registry::new(16);
        assert!(matches!(
            tiny.insert("x", ident(50)),
            Err(RegistryError::Full { .. })
        ));
    }
}
