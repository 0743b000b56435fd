//! Typed, validated deployment configuration for the edge tier and
//! the scripted clients.
//!
//! [`EdgeConfig`] is one builder that groups related knobs into typed
//! sub-configs — [`CacheConfig`] for replay-cache sizing,
//! [`DirectoryPlan`]/[`FeedPlan`] for the gossip and feed subsystems —
//! and validates the combination once, at [`EdgeConfigBuilder::build`],
//! instead of letting an impossible mix (a zero-capacity cache, a zero
//! gossip period) surface as a confusing runtime failure deep inside a
//! harness. What an edge can work out is not a knob: the age past
//! which it forwards instead of replaying is a third of the
//! deployment's freshness window
//! ([`crate::edge_node::EdgeNodeParams::freshness_window`]). Nor is
//! which edge lies: every deployed edge is honest, and a test that
//! needs a liar wraps one (`transedge_scenario::liar`).
//!
//! [`ClientProfile`] does the same for the ad-hoc client booleans:
//! instead of mutating `ClientConfig` fields one by one, a harness
//! names the profile it wants (`subscriber`, `single_contact`, a
//! start delay) and [`ClientProfile::apply`] layers it over the
//! deployment's base client config.

use std::fmt;

use transedge_common::SimDuration;

use crate::client::ClientConfig;
use crate::edge_node::{DirectoryPlan, FeedPlan};

/// Replay-cache sizing for one edge node.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Per-node replay-cache capacity in answers (point answers and
    /// scan windows each, per partition).
    pub capacity: usize,
    /// Certified headers each edge node retains.
    pub max_batches: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: transedge_edge::replay::DEFAULT_REPLAY_CAPACITY,
            max_batches: 64,
        }
    }
}

/// The validated edge-tier configuration of a deployment. Construct
/// via [`EdgeConfig::builder`] (or [`EdgeConfig::none`] /
/// [`EdgeConfig::honest`] for the two common shapes); the fields are
/// public for reading, and a deployment consumes them as-is.
#[derive(Clone, Debug)]
pub struct EdgeConfig {
    /// Edge read nodes fronting each partition (0 = no edge tier).
    pub per_cluster: usize,
    /// Replay-cache sizing.
    pub cache: CacheConfig,
    /// Gossiped conviction directory.
    pub directory: DirectoryPlan,
    /// Certified commit-feed subscription (push invalidation +
    /// freshness attachments).
    pub feed: FeedPlan,
}

impl EdgeConfig {
    /// No edge tier (the classic deployment shape).
    pub fn none() -> Self {
        EdgeConfig {
            per_cluster: 0,
            cache: CacheConfig::default(),
            directory: DirectoryPlan::disabled(),
            feed: FeedPlan::disabled(),
        }
    }

    /// `n` honest edge nodes per cluster, clients routed through them.
    pub fn honest(n: usize) -> Self {
        EdgeConfig {
            per_cluster: n,
            ..EdgeConfig::none()
        }
    }

    /// Start a builder at the [`EdgeConfig::none`] defaults.
    pub fn builder() -> EdgeConfigBuilder {
        EdgeConfigBuilder {
            config: EdgeConfig::none(),
        }
    }
}

/// What [`EdgeConfigBuilder::build`] refuses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A deployed edge tier needs a non-zero answer capacity.
    NoCacheCapacity,
    /// The gossip directory is enabled with a zero anti-entropy period.
    ZeroGossipInterval,
    /// The commit feed is enabled with a zero lease-renewal period.
    ZeroFeedInterval,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoCacheCapacity => {
                write!(f, "deployed edge tier needs a non-zero cache capacity")
            }
            ConfigError::ZeroGossipInterval => {
                write!(f, "enabled directory needs a non-zero gossip interval")
            }
            ConfigError::ZeroFeedInterval => {
                write!(f, "enabled feed needs a non-zero resubscribe interval")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`EdgeConfig`]; every setter is chainable and
/// [`EdgeConfigBuilder::build`] validates the combination.
#[derive(Clone, Debug)]
pub struct EdgeConfigBuilder {
    config: EdgeConfig,
}

impl EdgeConfigBuilder {
    /// Edge read nodes fronting each partition.
    pub fn per_cluster(mut self, n: usize) -> Self {
        self.config.per_cluster = n;
        self
    }

    /// Replay-cache sizing.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.config.cache = cache;
        self
    }

    /// Run the gossip directory (anti-entropy push every `interval`);
    /// clients take part.
    pub fn gossip_directory(mut self, interval: SimDuration) -> Self {
        self.config.directory = DirectoryPlan::gossip(interval);
        self
    }

    /// Subscribe every edge to its home cluster's certified commit
    /// feed, renewing the lease at `interval`.
    pub fn commit_feed(mut self, interval: SimDuration) -> Self {
        self.config.feed = FeedPlan::subscribed(interval);
        self
    }

    /// Validate and return the configuration.
    pub fn build(self) -> Result<EdgeConfig, ConfigError> {
        let c = &self.config;
        if c.per_cluster > 0 && c.cache.capacity == 0 {
            return Err(ConfigError::NoCacheCapacity);
        }
        if c.directory.enabled && c.directory.gossip_interval == SimDuration::ZERO {
            return Err(ConfigError::ZeroGossipInterval);
        }
        if c.feed.enabled && c.feed.resubscribe_interval == SimDuration::ZERO {
            return Err(ConfigError::ZeroFeedInterval);
        }
        Ok(self.config)
    }
}

/// A named bundle of per-client behaviour toggles, layered over the
/// deployment's base [`ClientConfig`] by [`ClientProfile::apply`].
/// Booleans only switch behaviour *on* (the base config keeps anything
/// it already enabled); the start delay takes the later of the two.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientProfile {
    /// Keep full results (values read) for inspection by tests.
    pub record_results: bool,
    /// Baseline mode: read-only ops via BFT + 2PC instead of the
    /// commit-free snapshot protocol.
    pub rot_via_2pc: bool,
    /// Send fresh cross-partition queries whole to one edge contact,
    /// which answers each partition separately under the one request
    /// id (picks the target only; see `ClientConfig::single_contact`).
    pub single_contact: bool,
    /// Subscription mode: ask edges for feed-tail freshness
    /// attachments to skip round 2 on warm reads.
    pub subscribe: bool,
    /// Delay before the first operation (and the directory pull).
    pub start_delay: SimDuration,
}

impl ClientProfile {
    pub fn new() -> Self {
        ClientProfile::default()
    }

    pub fn record_results(mut self) -> Self {
        self.record_results = true;
        self
    }

    pub fn rot_via_2pc(mut self) -> Self {
        self.rot_via_2pc = true;
        self
    }

    pub fn single_contact(mut self) -> Self {
        self.single_contact = true;
        self
    }

    /// The subscription profile (feed-tail freshness upgrades).
    pub fn subscriber(mut self) -> Self {
        self.subscribe = true;
        self
    }

    pub fn start_delay(mut self, delay: SimDuration) -> Self {
        self.start_delay = delay;
        self
    }

    /// Layer this profile over a base client config.
    pub fn apply(&self, base: &ClientConfig) -> ClientConfig {
        let mut config = base.clone();
        config.record_results |= self.record_results;
        config.rot_via_2pc |= self.rot_via_2pc;
        config.single_contact |= self.single_contact;
        config.subscribe |= self.subscribe;
        if self.start_delay > config.start_delay {
            config.start_delay = self.start_delay;
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_validates_combinations() {
        assert!(EdgeConfig::builder().per_cluster(2).build().is_ok());
        let empty = CacheConfig {
            capacity: 0,
            max_batches: 64,
        };
        assert_eq!(
            EdgeConfig::builder()
                .per_cluster(2)
                .cache(empty)
                .build()
                .unwrap_err(),
            ConfigError::NoCacheCapacity
        );
        assert_eq!(
            EdgeConfig::builder()
                .gossip_directory(SimDuration::ZERO)
                .build()
                .unwrap_err(),
            ConfigError::ZeroGossipInterval
        );
    }

    #[test]
    fn profile_layers_over_base() {
        let base = ClientConfig {
            record_results: true,
            start_delay: SimDuration::from_millis(100),
            ..ClientConfig::default()
        };
        let profile = ClientProfile::new()
            .subscriber()
            .start_delay(SimDuration::from_millis(50));
        let layered = profile.apply(&base);
        assert!(layered.record_results, "base switches survive");
        assert!(layered.subscribe, "profile switches apply");
        assert_eq!(
            layered.start_delay,
            SimDuration::from_millis(100),
            "later of the two delays wins"
        );
    }
}
