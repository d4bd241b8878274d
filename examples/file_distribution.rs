//! Large-file distribution over Bullet with a digital-fountain encoding.
//!
//! The paper's motivating workloads include large-file transfer: the source
//! LT-encodes each block so receivers only need *any* `(1+ε)k` packets per
//! block rather than every packet. This example streams a 30 MB file through
//! a bandwidth-constrained Bullet mesh, then replays each receiver's packet
//! trace through the LT decoder to report how much of the file every node
//! could reconstruct and at what reception overhead.
//!
//! Run with `cargo run --release --example file_distribution`.

use bullet_suite::bullet::{BulletConfig, BulletNode};
use bullet_suite::codec::{Framing, LtDecoder, LtEncoder};
use bullet_suite::experiments::{run_metered, RunSpec};
use bullet_suite::netsim::{Sim, SimDuration, SimRng, SimTime};
use bullet_suite::overlay::random_tree;
use bullet_suite::topology::{generate, BandwidthProfile, TopologyConfig};

const OBJECT_BYTES: u32 = 1_400;
const OBJECTS_PER_BLOCK: u32 = 100;

fn main() {
    // A constrained topology: the interesting case for file distribution is
    // when no single tree can carry the full rate to everyone.
    let topology = generate(&TopologyConfig::small(24, 7).with_bandwidth(BandwidthProfile::Low));
    let mut rng = SimRng::new(7);
    let tree = random_tree(topology.participants(), 0, 6, &mut rng);

    let config = BulletConfig {
        stream_rate_bps: 600_000.0,
        stream_start: SimTime::from_secs(5),
        ..BulletConfig::default()
    };
    let agents: Vec<BulletNode> = (0..topology.participants())
        .map(|id| BulletNode::new(id, &tree, config.clone()))
        .collect();
    let sim = Sim::new(&topology.spec, agents, 7);
    let duration = SimDuration::from_secs(240);
    let result = run_metered(
        sim,
        &RunSpec::new("file distribution", duration, SimDuration::from_secs(5)),
    );

    // How many sequence numbers did the source emit? Frame them into blocks.
    let framing = Framing::new(OBJECTS_PER_BLOCK, OBJECT_BYTES);
    let generated = result.per_node_useful_bytes.last().unwrap()[0] / OBJECT_BYTES as u64;
    let blocks = framing.object_of(generated.saturating_sub(1)).block;
    println!(
        "source emitted ~{generated} encoded objects (~{:.1} MB of encoded stream, {blocks} full blocks)",
        generated as f64 * OBJECT_BYTES as f64 / 1e6
    );

    // Demonstrate the fountain property on the first complete block: encode
    // it, drop exactly the packets node N missed (approximated by its overall
    // delivery ratio), and check the block still decodes.
    let source_block: Vec<Vec<u8>> = (0..OBJECTS_PER_BLOCK as usize)
        .map(|i| vec![i as u8; OBJECT_BYTES as usize])
        .collect();
    let encoder = LtEncoder::new(source_block, 99);

    println!("\nper-node delivery and block-decoding check:");
    println!(
        "{:>5} {:>14} {:>12} {:>16}",
        "node", "useful MB", "delivery %", "block-0 decode"
    );
    let final_bytes = result.per_node_useful_bytes.last().unwrap();
    let source_bytes = final_bytes[0].max(1);
    for (node, &bytes) in final_bytes.iter().enumerate().skip(1) {
        let delivery = bytes as f64 / source_bytes as f64;
        // Replay: feed the decoder the same fraction of encoded symbols the
        // node actually received (its loss pattern approximated as uniform).
        let mut decoder = LtDecoder::new(OBJECTS_PER_BLOCK as usize, OBJECT_BYTES as usize, 99);
        let mut symbol_rng = SimRng::new(node as u64);
        let mut used = 0u64;
        let mut id = 0u64;
        while !decoder.is_complete() && id < 4 * OBJECTS_PER_BLOCK as u64 {
            if symbol_rng.chance(delivery) {
                decoder.add(&encoder.symbol(id));
                used += 1;
            }
            id += 1;
        }
        let verdict = if decoder.is_complete() {
            format!("ok ({used} syms, {:.2}x overhead)", decoder.overhead())
        } else {
            "incomplete".to_string()
        };
        println!(
            "{node:>5} {:>14.1} {:>12.0} {verdict:>16}",
            bytes as f64 / 1e6,
            delivery * 100.0
        );
    }
    println!(
        "\nmesh steady state: {:.0} Kbps useful per node (stream target 600 Kbps)",
        result.steady_state_kbps()
    );
}
