//! The program registry: stable names over cache keys.
//!
//! Clients of a long-lived `xdpd` don't want to ship source text with
//! every request. The registry maps a chosen name to a [`RequestSpec`]
//! (and therefore to a cache key). [`crate::ServePool::register`] first
//! resolves the spec the way a request would, so a registered program's
//! first real request is already a hit, and then records the name here.
//! Eviction removes both the name and, when resident, the cached
//! artifact.

use crate::cache::CompileCache;
use crate::spec::RequestSpec;
use std::collections::BTreeMap;

/// What `list` reports per registered program.
#[derive(Clone, Debug)]
pub struct RegisteredInfo {
    pub name: String,
    /// Content hash (the cache key).
    pub key: u64,
    /// Machine size the program compiled for.
    pub nprocs: usize,
    /// Statement count of the compiled program body.
    pub stmts: usize,
    /// Passes that ran at compile time.
    pub passes: usize,
    /// Is the artifact currently resident in the cache?
    pub cached: bool,
}

/// Named programs, backed by the compile cache.
#[derive(Default)]
pub struct Registry {
    entries: BTreeMap<String, RequestSpec>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record (or replace) `name` for a spec the caller has already
    /// resolved through `cache` ([`crate::ServePool::register`] does both).
    /// Returns the listing row for the new entry.
    pub fn register(
        &mut self,
        name: &str,
        spec: RequestSpec,
        cache: &CompileCache,
    ) -> RegisteredInfo {
        let row = info(name, &spec, cache);
        self.entries.insert(name.to_string(), spec);
        row
    }

    /// The spec registered under `name`.
    pub fn get(&self, name: &str) -> Option<&RequestSpec> {
        self.entries.get(name)
    }

    /// Listing rows for every registered program, in name order.
    pub fn list(&self, cache: &CompileCache) -> Vec<RegisteredInfo> {
        self.entries
            .iter()
            .map(|(name, spec)| info(name, spec, cache))
            .collect()
    }

    /// Remove `name` and drop its cached artifact. Returns whether the
    /// name existed.
    pub fn evict(&mut self, name: &str, cache: &mut CompileCache) -> bool {
        match self.entries.remove(name) {
            Some(spec) => {
                cache.remove(spec.content_hash());
                true
            }
            None => false,
        }
    }
}

fn info(name: &str, spec: &RequestSpec, cache: &CompileCache) -> RegisteredInfo {
    let key = spec.content_hash();
    // Compile metadata is only available while resident; report zeros
    // for an evicted entry rather than recompiling in a listing.
    let (nprocs, stmts, passes) = (spec.opts.procs.unwrap_or(0), 0usize, 0usize);
    let mut row = RegisteredInfo {
        name: name.to_string(),
        key,
        nprocs,
        stmts,
        passes,
        cached: cache.contains(key),
    };
    if let Some(c) = cache.peek(key) {
        row.nprocs = c.compiled.nprocs;
        row.stmts = c.compiled.program.body.len();
        row.passes = c.compiled.trace.passes.len();
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(n: i64) -> RequestSpec {
        RequestSpec::new(format!(
            "real A[1:{n}] distribute (BLOCK) onto 2\n\
             do i = 1, {n}\n  iown(A[i]) : {{ A[i] = A[i] + 1.0 }}\nenddo\n"
        ))
    }

    #[test]
    fn register_list_evict_roundtrip() {
        let mut cache = CompileCache::new(8);
        let mut reg = Registry::new();
        cache.get_or_compile(&spec(8)).unwrap();
        let row = reg.register("adder", spec(8), &cache);
        assert_eq!(row.name, "adder");
        assert_eq!(row.nprocs, 2);
        assert!(row.cached);
        assert!(row.stmts > 0);

        cache.get_or_compile(&spec(12)).unwrap();
        reg.register("adder12", spec(12), &cache);
        let listing = reg.list(&cache);
        assert_eq!(listing.len(), 2);
        assert_eq!(listing[0].name, "adder");
        assert_eq!(listing[1].name, "adder12");
        assert_eq!(reg.get("adder"), Some(&spec(8)));

        assert!(reg.evict("adder", &mut cache));
        assert!(!reg.evict("adder", &mut cache));
        assert!(!cache.contains(spec(8).content_hash()));
        assert!(reg.get("adder").is_none());
    }
}
