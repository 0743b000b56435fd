//! Typed, validated deployment configuration for the edge tier and
//! the scripted clients.
//!
//! [`EdgeConfig`] is one builder that groups related knobs — a
//! [`CacheConfig`] for replay-cache sizing, and the gossip and feed
//! planes' periods, each present only when that plane runs — and
//! validates the combination once, at [`EdgeConfigBuilder::build`],
//! instead of letting an impossible mix (a zero-capacity cache, a zero
//! gossip period) surface as a confusing runtime failure deep inside a
//! harness. Edges and clients read it, with the rest of the
//! [`crate::setup::DeploymentConfig`], where it is stated. What an edge
//! can work out is not a knob: the age past which it forwards instead
//! of replaying is a third of the deployment's freshness window
//! ([`crate::node::NodeConfig::freshness_window`]). Nor is which edge
//! lies: every deployed edge is honest, and a test that needs a liar
//! wraps one (`transedge_scenario::liar`).
//!
//! [`ClientProfile`] holds what one client does differently from the
//! rest of the fleet (`subscriber`, `single_contact`, a start delay):
//! a harness names it per client in its [`crate::setup::ClientPlan`],
//! and it is the only home of those switches. What every client
//! shares is the deployment's [`crate::client::ClientConfig`].

use std::fmt;

use transedge_common::SimDuration;

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
    /// Gossiped conviction directory, when it runs: the anti-entropy
    /// period (each edge pushes a delta — missing records plus a state
    /// summary — to one rotating peer per round). It carries rejection
    /// evidence only; where an edge forwards a miss does not depend on
    /// it. Clients take part whenever edges are deployed.
    pub directory: Option<SimDuration>,
    /// Certified commit-feed subscription (push invalidation +
    /// freshness attachments), when it runs: the lease-renewal period.
    /// `FeedSubscribe` is re-sent with the current feed head, and the
    /// replica replays any retained suffix the edge missed (crash,
    /// partition, dropped push).
    pub feed: Option<SimDuration>,
}

impl EdgeConfig {
    /// No edge tier (the classic deployment shape).
    pub fn none() -> Self {
        EdgeConfig {
            per_cluster: 0,
            cache: CacheConfig::default(),
            directory: None,
            feed: None,
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
    /// The gossip directory runs with a zero anti-entropy period.
    ZeroGossipInterval,
    /// The commit feed runs with a zero lease-renewal period.
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
        self.config.directory = Some(interval);
        self
    }

    /// Subscribe every edge to its home cluster's certified commit
    /// feed, renewing the lease at `interval`.
    pub fn commit_feed(mut self, interval: SimDuration) -> Self {
        self.config.feed = Some(interval);
        self
    }

    /// Validate and return the configuration.
    pub fn build(self) -> Result<EdgeConfig, ConfigError> {
        let c = &self.config;
        if c.per_cluster > 0 && c.cache.capacity == 0 {
            return Err(ConfigError::NoCacheCapacity);
        }
        if c.directory == Some(SimDuration::ZERO) {
            return Err(ConfigError::ZeroGossipInterval);
        }
        if c.feed == Some(SimDuration::ZERO) {
            return Err(ConfigError::ZeroFeedInterval);
        }
        Ok(self.config)
    }
}

/// What one client does differently from the rest of the fleet; the
/// default is a plain client that starts at once.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClientProfile {
    /// Send a fresh cross-partition query to *one* edge contact instead
    /// of fanning out per partition; this picks the target and nothing
    /// else. The contact serves the query one part per partition, each
    /// answer an ordinary response under the one request id, verified
    /// against its own partition's certified root. A part that fails is
    /// re-asked of a replica like any rejected answer, and one that
    /// never comes is resent when the retry timer fires.
    pub single_contact: bool,
    /// Subscription mode: ask serving edges to attach their verified
    /// delta-feed tail to point responses as a freshness certificate.
    /// A verified attachment upgrades the partition's snapshot view to
    /// the feed head, so the cross-partition dependency check passes
    /// without the round-2 MinEpoch re-fetch — warm reads of a
    /// subscribed client stay one round even under heavy writes.
    /// Nothing is trusted: the feed verifies under replica certificates
    /// like every other response part.
    pub subscribe: bool,
    /// Delay before the first operation (and the directory pull) —
    /// lets harnesses stagger clients so gossip has rounds to spread.
    pub start_delay: SimDuration,
}

impl ClientProfile {
    pub fn new() -> Self {
        ClientProfile::default()
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
        assert_eq!(
            EdgeConfig::builder()
                .commit_feed(SimDuration::ZERO)
                .build()
                .unwrap_err(),
            ConfigError::ZeroFeedInterval
        );
    }
}
