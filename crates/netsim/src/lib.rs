//! # exspan-netsim
//!
//! A deterministic discrete-event network simulator — the substitute for the
//! ns-3 toolkit on which the ExSPAN prototype was built.
//!
//! The evaluation in the paper measures *bytes transmitted*, *per-node
//! bandwidth over time*, *fixpoint latency* and *query completion latency*.
//! All of these are determined by the sequence of messages the distributed
//! engine exchanges and by the latency/bandwidth of the links they traverse,
//! which is exactly what this crate models:
//!
//! * [`topology`] — network graphs with per-link latency, bandwidth and
//!   routing cost, plus generators for the topologies used in §7: GT-ITM
//!   style transit-stub graphs, the ring-with-random-peers "testbed"
//!   topology, and the 4-node example of Figure 3.
//! * [`sim`] — the event queue: messages are scheduled with a delay equal to
//!   propagation latency plus serialization time, and every transmission is
//!   charged to the sending node's byte counters and bandwidth time-series.
//! * [`churn`] — the link add/delete workload of §7.2 (ten random stub-stub
//!   links added or deleted every 0.5 s).

pub mod churn;
pub mod sim;
pub mod topology;

pub use churn::{ChurnEvent, ChurnModel};
pub use sim::{EventKey, RoutedEvent, ScheduledMessage, ShardView, Simulator, TrafficStats};
pub use topology::{LinkClass, LinkProps, Topology};
