//! Network statistics collected during a run.

use std::collections::{BTreeMap, HashMap};

use transedge_common::NodeId;
use transedge_obs::{MetricRegistry, RegisterMetrics};

/// Per-message-kind traffic: how many messages of one protocol kind
/// were sent, and their total wire bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStats {
    pub messages: u64,
    pub bytes: u64,
}

/// Message and byte counters: global, per destination, and per
/// message kind (the [`crate::SimMessage::kind`] tag), so wire-level
/// cost can be attributed to individual protocol messages.
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    pub messages_sent: u64,
    pub messages_delivered: u64,
    pub messages_dropped: u64,
    pub bytes_sent: u64,
    pub per_node_received: HashMap<NodeId, u64>,
    /// Traffic by message kind, in deterministic (sorted) order.
    pub per_kind: BTreeMap<&'static str, KindStats>,
}

impl NetStats {
    pub fn record_send(&mut self, kind: &'static str, bytes: usize) {
        self.messages_sent += 1;
        self.bytes_sent += bytes as u64;
        let k = self.per_kind.entry(kind).or_default();
        k.messages += 1;
        k.bytes += bytes as u64;
    }

    pub fn record_delivery(&mut self, to: NodeId) {
        self.messages_delivered += 1;
        *self.per_node_received.entry(to).or_default() += 1;
    }

    pub fn record_drop(&mut self) {
        self.messages_dropped += 1;
    }

    /// Traffic of one message kind (zero if never sent).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.per_kind.get(kind).copied().unwrap_or_default()
    }
}

impl RegisterMetrics for NetStats {
    fn register_metrics(&self, scope: &str, reg: &mut MetricRegistry) {
        reg.counter(scope, "messages_sent", self.messages_sent);
        reg.counter(scope, "messages_delivered", self.messages_delivered);
        reg.counter(scope, "messages_dropped", self.messages_dropped);
        reg.counter(scope, "bytes_sent", self.bytes_sent);
        for (kind, k) in &self.per_kind {
            reg.counter(scope, &format!("net.{kind}.messages"), k.messages);
            reg.counter(scope, &format!("net.{kind}.bytes"), k.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transedge_common::ClientId;

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::default();
        s.record_send("read-point", 100);
        s.record_send("read-point", 50);
        s.record_delivery(NodeId::Client(ClientId(0)));
        s.record_drop();
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.bytes_sent, 150);
        assert_eq!(s.messages_delivered, 1);
        assert_eq!(s.messages_dropped, 1);
        assert_eq!(s.per_node_received[&NodeId::Client(ClientId(0))], 1);
    }

    #[test]
    fn per_kind_counters_split_traffic() {
        let mut s = NetStats::default();
        s.record_send("read-point", 100);
        s.record_send("read-result", 4000);
        s.record_send("read-point", 120);
        assert_eq!(
            s.kind("read-point"),
            KindStats {
                messages: 2,
                bytes: 220
            }
        );
        assert_eq!(
            s.kind("read-result"),
            KindStats {
                messages: 1,
                bytes: 4000
            }
        );
        assert_eq!(s.kind("gossip"), KindStats::default());
        // Per-kind totals reconcile with the globals.
        let (m, b) = s
            .per_kind
            .values()
            .fold((0, 0), |(m, b), k| (m + k.messages, b + k.bytes));
        assert_eq!(m, s.messages_sent);
        assert_eq!(b, s.bytes_sent);
    }

    #[test]
    fn register_metrics_publishes_per_kind_series() {
        let mut s = NetStats::default();
        s.record_send("read-point", 64);
        let mut reg = MetricRegistry::new();
        reg.register("net", &s);
        assert_eq!(reg.counter_value("net", "net.read-point.messages"), 1);
        assert_eq!(reg.counter_value("net", "net.read-point.bytes"), 64);
        assert_eq!(reg.counter_value("net", "messages_sent"), 1);
    }
}
