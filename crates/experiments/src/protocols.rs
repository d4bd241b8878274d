//! One constructor per protocol under test: each builds that protocol's
//! agents over an already-constructed network — in the parallel harness a
//! cheap per-run view over a shared setup (see
//! [`crate::env::PreparedTopology`]); from scratch, `Network::new(spec)` —
//! and hands them to the one metered runner. A static run passes an empty
//! [`ScenarioScript`] (`NO_SCRIPT`).

use bullet_baselines::{AntiEntropyNode, GossipNode, StreamConfig, StreamingNode};
use bullet_core::{BulletConfig, BulletNode};
use bullet_dynamics::ScenarioScript;
use bullet_netsim::{Network, NodeResources, OverlayId, Sim};
use bullet_overlay::Tree;

use crate::runner::{run_metered_dynamic_with, MeteredAgent, RunResult, RunSpec, TelemetryConfig};

/// Nothing scripted: a static-network run is a scenario run under this.
pub(crate) const NO_SCRIPT: ScenarioScript = ScenarioScript::new();

/// The body every constructor below shares: one agent per participant, the
/// simulator, the optional per-node resource models, the metered run.
fn run_on<A: MeteredAgent>(
    network: Network,
    agent: impl FnMut(OverlayId) -> A,
    run: &RunSpec,
    script: &ScenarioScript,
    resources: &[(OverlayId, NodeResources)],
    seed: u64,
) -> RunResult {
    let agents: Vec<A> = (0..network.participants()).map(agent).collect();
    let mut sim = Sim::with_network(network, agents, seed);
    for &(node, model) in resources {
        sim.set_node_resources(node, model);
    }
    run_metered_dynamic_with(sim, run, script, &TelemetryConfig::disabled())
}

/// Runs Bullet over `tree` under `script` (churn, flash crowds, link
/// dynamics; empty for a static run).
pub fn bullet_run_on(
    network: Network,
    tree: &Tree,
    config: &BulletConfig,
    run: &RunSpec,
    script: &ScenarioScript,
    seed: u64,
) -> RunResult {
    bullet_run_resourced_on(network, tree, config, run, script, &[], seed)
}

/// [`bullet_run_on`] with a deterministic per-node resource model
/// installed before the run: each `(node, model)` pair bounds that node's
/// simulated ingress queue (see [`bullet_netsim::NodeResources`]). The
/// overload figure gives *both* of its arms the same finite per-node
/// capacity this way, so an unbounded application-level queue discipline
/// has a measurable cost instead of free infinite buffering.
pub fn bullet_run_resourced_on(
    network: Network,
    tree: &Tree,
    config: &BulletConfig,
    run: &RunSpec,
    script: &ScenarioScript,
    resources: &[(OverlayId, NodeResources)],
    seed: u64,
) -> RunResult {
    let agent = |i| BulletNode::new(i, tree, config.clone());
    run_on(network, agent, run, script, resources, seed)
}

/// Runs tree streaming over `tree` under `script` (the baselines use the
/// default no-op lifecycle hooks; link dynamics apply in full).
pub fn streaming_run_on(
    network: Network,
    tree: &Tree,
    config: &StreamConfig,
    run: &RunSpec,
    script: &ScenarioScript,
    seed: u64,
) -> RunResult {
    let agent = |i| StreamingNode::new(i, tree, config.clone());
    run_on(network, agent, run, script, &[], seed)
}

/// Runs push gossip with full membership and the given source.
pub fn gossip_run_on(
    network: Network,
    source: OverlayId,
    config: &StreamConfig,
    run: &RunSpec,
    script: &ScenarioScript,
    seed: u64,
) -> RunResult {
    let n = network.participants();
    let agent = |i| GossipNode::new(i, source, n, config.clone());
    run_on(network, agent, run, script, &[], seed)
}

/// Runs tree streaming with anti-entropy recovery over `tree`.
pub fn antientropy_run_on(
    network: Network,
    tree: &Tree,
    config: &StreamConfig,
    run: &RunSpec,
    script: &ScenarioScript,
    seed: u64,
) -> RunResult {
    let n = network.participants();
    let agent = |i| AntiEntropyNode::new(i, tree, n, config.clone());
    run_on(network, agent, run, script, &[], seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bullet_netsim::{LinkSpec, NetworkSpec, SimDuration, SimRng, SimTime};
    use bullet_overlay::random_tree;

    fn hub(n: usize, access_bps: f64) -> NetworkSpec {
        let mut spec = NetworkSpec::new(n + 1);
        for i in 0..n {
            spec.add_link(LinkSpec::new(
                n,
                i,
                access_bps,
                SimDuration::from_millis(10),
            ));
            spec.attach(i);
        }
        spec
    }

    fn quick_spec(label: &str, secs: u64) -> RunSpec {
        RunSpec::new(
            label,
            SimDuration::from_secs(secs),
            SimDuration::from_secs(2),
        )
    }

    #[test]
    fn all_protocol_wrappers_produce_results() {
        let spec = hub(10, 2_000_000.0);
        let mut rng = SimRng::new(1);
        let tree = random_tree(10, 0, 3, &mut rng);
        let run = quick_spec("wrapper", 30);
        let net = || Network::new(&spec);

        let bullet_cfg = BulletConfig {
            stream_rate_bps: 300_000.0,
            stream_start: SimTime::from_secs(2),
            ransub_epoch: SimDuration::from_secs(2),
            ..BulletConfig::default()
        };
        let bullet = bullet_run_on(net(), &tree, &bullet_cfg, &run, &NO_SCRIPT, 1);
        assert!(bullet.steady_state_kbps() > 100.0);

        let stream_cfg = StreamConfig {
            stream_rate_bps: 300_000.0,
            stream_start: SimTime::from_secs(2),
            ..StreamConfig::default()
        };
        let streaming = streaming_run_on(net(), &tree, &stream_cfg, &run, &NO_SCRIPT, 1);
        assert!(streaming.steady_state_kbps() > 100.0);

        let gossip = gossip_run_on(net(), 0, &stream_cfg, &run, &NO_SCRIPT, 1);
        assert!(gossip.summary.steady_raw_kbps > 50.0);

        let ae = antientropy_run_on(net(), &tree, &stream_cfg, &run, &NO_SCRIPT, 1);
        assert!(ae.steady_state_kbps() > 100.0);
    }
}
