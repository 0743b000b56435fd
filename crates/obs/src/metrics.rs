//! The unified metric registry: counters keyed by `(scope, name)`,
//! with fleet-wide rollups across scopes.
//!
//! Every per-subsystem `*Stats` struct in the workspace implements
//! [`RegisterMetrics`], publishing its counters under a node-scoped
//! name (`"client:3"`, `"edge:0/1"`, …); a harness builds one registry
//! per snapshot and reads either a single scope or the fleet total
//! through one API instead of N hand-plumbed accessor sets.

use std::collections::BTreeMap;

/// Implemented by each subsystem's stats struct: publish your counters
/// into `reg` under `scope`.
pub trait RegisterMetrics {
    fn register_metrics(&self, scope: &str, reg: &mut MetricRegistry);
}

/// The registry: `(scope, name)`-keyed counters, stored in a
/// `BTreeMap` so iteration (and every exporter built on it) is
/// deterministic.
#[derive(Default)]
pub struct MetricRegistry {
    counters: BTreeMap<(String, String), u64>,
}

impl MetricRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `value` to the counter `scope/name` (creates at zero).
    pub fn counter(&mut self, scope: &str, name: &str, value: u64) {
        *self
            .counters
            .entry((scope.to_string(), name.to_string()))
            .or_insert(0) += value;
    }

    /// Let `source` publish itself under `scope`.
    pub fn register(&mut self, scope: &str, source: &dyn RegisterMetrics) {
        source.register_metrics(scope, self);
    }

    /// A single scope's counter (0 if absent).
    pub fn counter_value(&self, scope: &str, name: &str) -> u64 {
        self.counters
            .get(&(scope.to_string(), name.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Fleet rollup: the counter summed across every scope.
    pub fn fleet_counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((_, n), _)| n == name)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Fleet rollup of every counter name (sorted by name).
    pub fn fleet_counters(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for ((_, name), v) in &self.counters {
            *out.entry(name.clone()).or_insert(0) += v;
        }
        out
    }

    /// Every registered scope, sorted and deduplicated.
    pub fn scopes(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self.counters.keys().map(|(s, _)| s.as_str()).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All counters in `(scope, name, value)` order (deterministic).
    pub fn counters(&self) -> impl Iterator<Item = (&str, &str, u64)> {
        self.counters
            .iter()
            .map(|((s, n), v)| (s.as_str(), n.as_str(), *v))
    }

    /// Total number of registered series.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeStats {
        hits: u64,
        misses: u64,
    }

    impl RegisterMetrics for FakeStats {
        fn register_metrics(&self, scope: &str, reg: &mut MetricRegistry) {
            reg.counter(scope, "hits", self.hits);
            reg.counter(scope, "misses", self.misses);
        }
    }

    #[test]
    fn registry_scopes_and_fleet_rollup() {
        let mut reg = MetricRegistry::new();
        reg.register(
            "edge:0/0",
            &FakeStats {
                hits: 10,
                misses: 2,
            },
        );
        reg.register("edge:0/1", &FakeStats { hits: 5, misses: 1 });
        assert_eq!(reg.counter_value("edge:0/0", "hits"), 10);
        assert_eq!(reg.fleet_counter("hits"), 15);
        assert_eq!(reg.fleet_counters()["misses"], 3);
        assert_eq!(reg.scopes(), vec!["edge:0/0", "edge:0/1"]);
        assert!(!reg.is_empty());
    }
}
