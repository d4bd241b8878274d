//! # bullet-dynamics
//!
//! The scenario dynamics engine: deterministic scripts of mid-run network
//! and membership events — node crashes, graceful leaves, late joins, flash
//! crowds, link capacity/loss mutation and correlated stub outages — plus
//! the driver that applies them to a running [`bullet_netsim::Sim`].
//!
//! The paper's evaluation freezes the network for the length of a run and
//! scripts at most one node failure (Figs. 13/14). Bullet's headline claim,
//! though, is that the *mesh* keeps delivering when the network changes
//! underneath it; this crate makes those regimes expressible:
//!
//! * [`ScenarioScript`] is a deterministic, time-sorted list of
//!   [`ScenarioEvent`]s, built either explicitly, from the distribution
//!   generators ([`ScenarioScript::exponential_churn`],
//!   [`ScenarioScript::oscillating_link`], [`ScenarioScript::stub_outage`]),
//!   or parsed from text ([`ScenarioScript::parse`]; the `figures` bench
//!   reads that text from `BULLET_SCENARIO`). A flash crowd is one
//!   [`ScenarioAction::JoinStorm`] line, expanded by the driver.
//! * [`ScenarioDriver`] owns a script during a run: crashes are
//!   pre-scheduled through the simulator's own event queue (so a one-crash
//!   script is event-for-event identical to the legacy `RunSpec::failure`
//!   path), while recoveries, graceful leaves, joins and link mutations are
//!   applied between event-loop steps, after every simulator event at their
//!   instant.
//! * [`ScenarioAgent`] is the lifecycle contract protocols opt into:
//!   `on_graceful_leave` says goodbye (Bullet hands its children to its
//!   parent and tears down mesh peerings), and the adversary and slow-node
//!   hooks switch behaviours. A late joiner or rejoiner needs no hook: the
//!   simulator cancels every timer the node armed before and bootstraps it
//!   through `Agent::on_start`, as at the start of the run.
//!
//! Everything is deterministic: generators draw from the workspace's seeded
//! [`bullet_netsim::SimRng`], events are totally ordered by `(time,
//! insertion index)`, and the driver's interleaving with the simulator is a
//! pure function of the script and the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod script;

pub use driver::{ScenarioAgent, ScenarioDriver, ScenarioStats};
pub use script::{ChurnConfig, ScenarioAction, ScenarioEvent, ScenarioScript};
