//! Micro-loops over single layer functions, with inputs sized like the
//! workloads (1,500-entry working set, 16 Kbit filter, the tree's fan-out).
//!
//! Each loop runs until it has lasted `floor_s` seconds and is recorded as
//! spans named `<layer>.<what>`; the reported figure is seconds per call
//! over all of a name's spans. Results pass through `black_box` so the
//! measured work cannot be precomputed or deleted.

use std::hint::black_box;
use std::time::Instant;

use bullet_content::{
    missing_keys_iter, BloomFilter, PermutationFamily, ReconcileRequest, SummaryTicket, WorkingSet,
};
use bullet_core::BulletConfig;
use bullet_netsim::{
    Agent, Context, FxHashSet, LinkSpec, NetworkSpec, OverlayId, Sim, SimDuration, SimRng, SimTime,
    TimerId,
};
use bullet_overlay::random_tree;
use bullet_ransub::{compact, Member, WeightedSet};
use bullet_topology::generate;
use bullet_transport::{TfrcConfig, TfrcHeader, TfrcReceiver, TfrcSender};

use crate::spans::SpanLog;
use crate::workloads::{network_setup, network_view, Inputs};

/// Runs `body` (which makes `calls_per_body` calls) in doubling chunks
/// until the loop has lasted `floor_s`, as one span.
fn spin(
    log: &mut SpanLog,
    name: &'static str,
    floor_s: f64,
    calls_per_body: u64,
    mut body: impl FnMut(),
) {
    let (span, bodies) = log.record(name, 1, |_| {
        let started = Instant::now();
        let (mut bodies, mut chunk) = (0u64, 1u64);
        loop {
            for _ in 0..chunk {
                body();
            }
            bodies += chunk;
            if started.elapsed().as_secs_f64() >= floor_s {
                break bodies;
            }
            chunk *= 2;
        }
    });
    log.set_calls(span, bodies * calls_per_body);
}

/// `Network::route` over up to 2,000 distinct sampled participant pairs:
/// first on fresh views (`netsim.route_cold`), then again on a view that
/// has answered them all (`netsim.route_warm`).
pub fn routing(inputs: &Inputs, seed: u64, floor_s: f64, log: &mut SpanLog) {
    let topology = generate(&inputs.topology);
    let setup = network_setup(&topology.spec);
    let n = topology.participants();
    let mut rng = SimRng::new(seed ^ 0x9A125);
    let mut chosen = FxHashSet::default();
    let mut pairs: Vec<(OverlayId, OverlayId)> = Vec::new();
    while pairs.len() < 2_000.min(n * (n - 1)) {
        let pair = (rng.range_usize(0, n), rng.range_usize(0, n));
        if pair.0 != pair.1 && chosen.insert(pair) {
            pairs.push(pair);
        }
    }

    let started = Instant::now();
    let mut view = network_view(&topology.spec, &setup);
    loop {
        log.record("netsim.route_cold", pairs.len() as u64, |_| {
            for &(from, to) in &pairs {
                black_box(view.route(from, to));
            }
        });
        if started.elapsed().as_secs_f64() >= floor_s {
            break;
        }
        view = network_view(&topology.spec, &setup);
    }
    spin(
        log,
        "netsim.route_warm",
        floor_s,
        pairs.len() as u64,
        || {
            for &(from, to) in &pairs {
                black_box(view.route(from, to));
            }
        },
    );
}

const CORE_NODES: usize = 64;
const CORE_PACKET_BYTES: u32 = 1_400;
const CORE_PACKET_INTERVAL: SimDuration = SimDuration::from_millis(2);
const TAG_GENERATE: u64 = 1;
const TAG_WATCHDOG: u64 = 2;

/// The trivial agent of the `micro_sim_core` bench: forward every packet to
/// the children and re-arm a watchdog timer, with a payload that owns no
/// heap data, so the event core's own per-event cost is all there is.
struct Forwarder {
    children: Vec<OverlayId>,
    is_source: bool,
    next_seq: u64,
    watchdog: Option<TimerId>,
}

impl Forwarder {
    fn forward(&mut self, ctx: &mut Context<'_, u64>, seq: u64) {
        for &child in &self.children {
            ctx.send_data(child, seq, CORE_PACKET_BYTES);
        }
    }
}

impl Agent for Forwarder {
    type Msg = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        if self.is_source {
            ctx.set_timer(CORE_PACKET_INTERVAL, TAG_GENERATE);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: OverlayId, seq: u64) {
        if let Some(id) = self.watchdog.take() {
            ctx.cancel_timer(id);
        }
        self.watchdog = Some(ctx.set_timer(SimDuration::from_secs(2), TAG_WATCHDOG));
        self.forward(ctx, seq);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, tag: u64) {
        if tag == TAG_GENERATE {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.forward(ctx, seq);
            ctx.set_timer(CORE_PACKET_INTERVAL, TAG_GENERATE);
        }
    }
}

/// The event core alone (`netsim.core`, per event): the forwarding agent on
/// a 64-node star, every overlay hop crossing two physical links.
pub fn sim_core(seed: u64, floor_s: f64, log: &mut SpanLog) {
    let mut spec = NetworkSpec::new(CORE_NODES + 1);
    for node in 0..CORE_NODES {
        spec.add_link(LinkSpec::new(
            CORE_NODES,
            node,
            100_000_000.0,
            SimDuration::from_millis(5),
        ));
        spec.attach(node);
    }
    let setup = network_setup(&spec);
    let tree = random_tree(CORE_NODES, 0, 4, &mut SimRng::new(seed));
    let started = Instant::now();
    loop {
        let agents = (0..CORE_NODES)
            .map(|node| Forwarder {
                children: tree.children(node).to_vec(),
                is_source: node == 0,
                next_seq: 0,
                watchdog: None,
            })
            .collect();
        let mut sim = Sim::with_network(network_view(&spec, &setup), agents, seed);
        let (span, ()) = log.record("netsim.core", 1, |_| sim.run_until(SimTime::from_secs(2)));
        log.set_calls(span, black_box(sim.counters().events));
        if started.elapsed().as_secs_f64() >= floor_s {
            break;
        }
    }
}

/// `content` and `ransub`: filter build and query, ticket build, the
/// sender-side missing-key scan, working-set insertion, and Compact over
/// `fanout` child sets.
pub fn content_and_ransub(fanout: usize, seed: u64, floor_s: f64, log: &mut SpanLog) {
    let config = BulletConfig::default();
    let window = config.working_set_window;
    let mut rng = SimRng::new(seed ^ 0xC0_27E27);

    // A receiver's working set: `window` sequence numbers out of a slightly
    // longer range, so about one in eight is a hole still to be recovered.
    let span = window as u64 + window as u64 / 8;
    let mut seqs: Vec<u64> = (0..span).collect();
    rng.shuffle(&mut seqs);
    let mut receiver = WorkingSet::new();
    for &seq in &seqs[..window] {
        receiver.insert(seq);
    }
    let build_filter = |set: &WorkingSet| {
        let mut filter = BloomFilter::new(config.bloom_bits, config.bloom_hashes);
        for seq in set.iter() {
            filter.insert(seq);
        }
        filter
    };

    spin(log, "content.bloom_build", floor_s, 1, || {
        black_box(build_filter(black_box(&receiver)));
    });

    let filter = build_filter(&receiver);
    spin(log, "content.bloom_query", floor_s, span, || {
        for seq in 0..span {
            black_box(filter.contains(black_box(seq)));
        }
    });

    let family = PermutationFamily::paper_default();
    spin(log, "content.ticket_build", floor_s, 1, || {
        black_box(SummaryTicket::from_elements(
            &family,
            black_box(&receiver).iter(),
        ));
    });

    // A sender holding the whole range serves one of the receiver's four
    // senders: fewer matches than a service batch, so the scan walks the
    // sender's entire working set.
    let mut sender = WorkingSet::new();
    for seq in 0..span {
        sender.insert(seq);
    }
    let request = ReconcileRequest::new(filter, 0, span - 1, 4, 0);
    spin(log, "content.missing_scan", floor_s, 1, || {
        black_box(
            missing_keys_iter(&sender, black_box(&request), config.peer_service_batch).count(),
        );
    });

    // Steady state of a node's working set: every arrival is inserted and
    // the housekeeping timer prunes back to the window every 250 packets
    // (5 s of a 600 Kbps stream).
    let mut set = receiver.clone();
    let mut next = span;
    spin(log, "content.working_set_insert", floor_s, 250, || {
        for _ in 0..250 {
            black_box(set.insert(next));
            next += 1;
        }
        set.prune_to_len(window);
    });

    let ticket = SummaryTicket::from_elements(&family, receiver.iter());
    let inputs: Vec<WeightedSet<SummaryTicket>> = (0..fanout.max(1))
        .map(|child| WeightedSet {
            members: (0..config.ransub_set_size)
                .map(|i| Member {
                    node: child * 100 + i,
                    state: ticket.clone(),
                })
                .collect(),
            population: 20 + child as u64,
        })
        .collect();
    spin(log, "ransub.compact", floor_s, 1, || {
        black_box(compact(
            black_box(&inputs),
            config.ransub_set_size,
            &mut rng,
        ));
    });
}

/// `transport`: one TFRC send decision, and one received packet's loss and
/// feedback bookkeeping (with the sender's reaction when feedback is due).
pub fn transport(floor_s: f64, log: &mut SpanLog) {
    let config = TfrcConfig::default();
    let gap = SimDuration::from_millis(20); // 1,500 B every 20 ms = 600 Kbps

    let mut sender = TfrcSender::new(config);
    let mut now = SimTime::from_secs(1);
    spin(log, "transport.tfrc_send", floor_s, 1, || {
        now += gap;
        let _ = black_box(sender.try_send(black_box(now), config.packet_size));
    });

    let mut sender = TfrcSender::new(config);
    let mut receiver = TfrcReceiver::new();
    let mut now = SimTime::from_secs(1);
    let mut seq = 0u64;
    spin(log, "transport.tfrc_feedback", floor_s, 1, || {
        now += gap;
        seq += 1;
        if seq.is_multiple_of(100) {
            seq += 1; // one packet in a hundred is lost
        }
        let header = TfrcHeader {
            seq,
            timestamp: now,
            rtt_estimate: SimDuration::from_millis(60),
        };
        if let Some(feedback) = receiver.on_data(now, black_box(header), config.packet_size) {
            sender.on_feedback(now, black_box(&feedback));
        }
    });
    black_box((sender.allowed_rate(), receiver.loss_event_rate()));
}
