//! Typed, validated deployment configuration for the edge tier and
//! the scripted clients.
//!
//! [`EdgeConfig`] is one builder that groups related knobs into typed
//! sub-configs — [`CacheConfig`] for replay-cache sizing,
//! [`DirectoryPlan`]/[`FeedPlan`] for the gossip and feed subsystems —
//! and validates the combination once, at [`EdgeConfigBuilder::build`],
//! instead of letting an impossible mix (a byzantine override for an
//! edge that does not exist, a zero-capacity cache, a zero gossip
//! period) surface as a confusing runtime failure deep inside a
//! harness. What an edge can work out is not a knob: the age past
//! which it forwards instead of replaying is a third of the
//! deployment's freshness window
//! ([`crate::edge_node::EdgeNodeParams::freshness_window`]).
//!
//! [`ClientProfile`] does the same for the ad-hoc client booleans:
//! instead of mutating `ClientConfig` fields one by one, a harness
//! names the profile it wants (`subscriber`, `single_contact`, a
//! start delay) and [`ClientProfile::apply`] layers it over the
//! deployment's base client config.

use std::fmt;

use transedge_common::{EdgeId, SimDuration};

use crate::client::ClientConfig;
use crate::edge_node::{DirectoryPlan, EdgeBehavior, FeedPlan};

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
    /// Byzantine behaviour overrides for specific edge nodes.
    pub byzantine: Vec<(EdgeId, EdgeBehavior)>,
    /// Gossiped conviction directory.
    pub directory: DirectoryPlan,
    /// Certified commit-feed subscription (push invalidation +
    /// freshness attachments).
    pub feed: FeedPlan,
    /// Durable snapshot store: spill-on-admission, verified hydration
    /// on restart, sibling state-transfer when cold.
    pub persistent: bool,
}

impl EdgeConfig {
    /// No edge tier (the classic deployment shape).
    pub fn none() -> Self {
        EdgeConfig {
            per_cluster: 0,
            cache: CacheConfig::default(),
            byzantine: Vec::new(),
            directory: DirectoryPlan::disabled(),
            feed: FeedPlan::disabled(),
            persistent: false,
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

    pub(crate) fn behavior_of(&self, edge: EdgeId) -> EdgeBehavior {
        self.byzantine
            .iter()
            .find(|(e, _)| *e == edge)
            .map(|(_, b)| *b)
            .unwrap_or(EdgeBehavior::Honest)
    }
}

/// What [`EdgeConfigBuilder::build`] refuses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A deployed edge tier needs a non-zero answer capacity.
    NoCacheCapacity,
    /// A byzantine override names an edge the plan does not deploy.
    ByzantineOutOfRange(EdgeId),
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
            ConfigError::ByzantineOutOfRange(edge) => {
                write!(f, "byzantine override for undeployed edge {edge:?}")
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

    /// Mark one edge node byzantine.
    pub fn byzantine(mut self, edge: EdgeId, behavior: EdgeBehavior) -> Self {
        self.config.byzantine.push((edge, behavior));
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

    /// Turn on the full persistence plane (spill on admission, verified
    /// hydration on restart, sibling bootstrap when cold).
    pub fn persistent(mut self) -> Self {
        self.config.persistent = true;
        self
    }

    /// Validate and return the configuration.
    pub fn build(self) -> Result<EdgeConfig, ConfigError> {
        let c = &self.config;
        if c.per_cluster > 0 && c.cache.capacity == 0 {
            return Err(ConfigError::NoCacheCapacity);
        }
        for (edge, _) in &c.byzantine {
            if edge.index as usize >= c.per_cluster {
                return Err(ConfigError::ByzantineOutOfRange(*edge));
            }
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
    /// Send fresh cross-partition queries to one edge contact
    /// (edge-tier scatter-gather).
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
    use transedge_common::ClusterId;

    #[test]
    fn builder_validates_combinations() {
        assert!(EdgeConfig::builder().per_cluster(2).build().is_ok());
        let byz = EdgeId::new(ClusterId(0), 5);
        assert_eq!(
            EdgeConfig::builder()
                .per_cluster(2)
                .byzantine(byz, EdgeBehavior::TamperValue)
                .build()
                .unwrap_err(),
            ConfigError::ByzantineOutOfRange(byz)
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
