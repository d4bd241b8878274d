//! # bullet-netsim
//!
//! A deterministic, packet-level discrete-event network emulator.
//!
//! This crate stands in for the ModelNet emulation cluster used in the Bullet
//! paper's evaluation (§4). It emulates the same per-hop effects ModelNet
//! imposes — link bandwidth, propagation delay, bounded drop-tail queueing,
//! and random loss — on packets exchanged between protocol agents attached to
//! an arbitrary router-level topology.
//!
//! The crate deliberately knows nothing about Bullet, trees, or transports.
//! Protocols implement the [`Agent`] trait and are driven either by the
//! [`Sim`] event loop in this crate or by any other runtime that can deliver
//! messages and timer expirations.
//!
//! ## Quick example
//!
//! ```
//! use bullet_netsim::{Agent, Context, LinkSpec, NetworkSpec, Sim, SimDuration, SimTime};
//!
//! #[derive(Clone)]
//! struct Hello;
//!
//! struct Greeter { peer: usize, greeted: bool }
//!
//! impl Agent for Greeter {
//!     type Msg = Hello;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
//!         if self.peer != ctx.node() {
//!             ctx.send_data(self.peer, Hello, 64);
//!         }
//!     }
//!     fn on_message(&mut self, _ctx: &mut Context<'_, Hello>, _from: usize, _msg: Hello) {
//!         self.greeted = true;
//!     }
//!     fn on_timer(&mut self, _ctx: &mut Context<'_, Hello>, _tag: u64) {}
//! }
//!
//! let mut spec = NetworkSpec::new(2);
//! spec.add_link(LinkSpec::new(0, 1, 1_000_000.0, SimDuration::from_millis(5)));
//! spec.attach(0);
//! spec.attach(1);
//! let agents = vec![Greeter { peer: 1, greeted: false }, Greeter { peer: 1, greeted: false }];
//! let mut sim = Sim::new(&spec, agents, 7);
//! sim.run_until(SimTime::from_secs(1));
//! assert!(sim.agent(1).greeted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod event_queue;
pub mod hash;
pub mod link;
pub mod network;
pub mod rng;
pub mod routing;
pub mod sim;
pub mod time;
pub mod workers;

pub use agent::{Action, Agent, Context, MsgClass, TimerAlloc, TimerId};
pub use bullet_telemetry as telemetry;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use link::{DirectedLinkId, HopOutcome, LinkParams, LinkSpec, RouterId};
pub use network::{
    Network, NetworkSetup, NetworkSpec, OverlayId, RepairMode, RepairStats, RouteId, RoutingStats,
    StressStats,
};
pub use rng::SimRng;
pub use routing::{Adjacency, LandmarkRepair, LazyRouter, LazyRouterStats, RoutingMode, RowTree};
pub use sim::{
    FaultPlan, NodeOverloadStats, NodeResources, NodeTraffic, QueueDiscipline, Sim, SimCounters,
};
pub use time::{transmission_time, SimDuration, SimTime};
pub use workers::ordered_map;
