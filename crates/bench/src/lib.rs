//! # transedge-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation (§5).
//!
//! Each figure is a `harness = false` bench target (so
//! `cargo bench --workspace` runs the full reproduction) that prints
//! the same rows/series the paper plots, next to the paper's reference
//! values. Absolute numbers come from a simulator, not the authors'
//! testbed — the *shape* (who wins, by what factor, where curves bend)
//! is the reproduction target. Numbers that decide whether a change
//! lands come from the whole-system benchmark declared in
//! `BENCHMARK.json` (`src/bin/benchmark/`, a package of its own), not
//! from these targets.
//!
//! Scale: by default experiments run at reduced scale so the whole
//! suite finishes in minutes. Set `REPRO_FULL=1` for paper-scale
//! parameters (more keys, more clients, all sweep points).

pub mod support;
