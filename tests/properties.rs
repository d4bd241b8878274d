//! Property-style tests over the core data structures and invariants.
//!
//! The build environment has no access to crates.io, so instead of the
//! `proptest` DSL these properties are exercised with an explicit
//! seeded-case loop: each test draws many random inputs from the workspace's
//! own deterministic [`SimRng`] and asserts the invariant on every case.
//! Failures print the offending case number, which (with the fixed seeds)
//! reproduces deterministically.

use std::collections::BTreeSet;

use bullet_suite::content::{
    missing_keys, BloomFilter, LiveTicket, PermutationFamily, ReconcileRequest, SummaryTicket,
    WorkingSet,
};
use bullet_suite::netsim::{
    Adjacency, LinkSpec, Network, NetworkSetup, NetworkSpec, RoutingMode, SimDuration, SimRng,
};
use bullet_suite::overlay::{bottleneck_tree, random_tree, OmbtConfig, ThroughputOracle, Tree};
use bullet_suite::ransub::{compact, Member, WeightedSet};
use bullet_suite::topology::{generate, LossProfile, TopologyConfig};
use bullet_suite::transport::{tcp_throughput_bps, DATA_PACKET_BYTES};

#[path = "support/pairwise_ombt.rs"]
mod pairwise_ombt;
#[path = "support/routing_equiv.rs"]
mod routing_equiv;

use pairwise_ombt::{pairwise_bottleneck_tree, PairwiseOracle};

const CASES: u64 = 64;

/// Draws a value uniformly from `[lo, hi)`.
fn gen_range(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    assert!(lo < hi);
    lo + rng.next_u64() % (hi - lo)
}

/// Draws a random set of distinct values from `[lo, hi)` with a size drawn
/// from `[min_len, max_len)`.
fn gen_set(rng: &mut SimRng, lo: u64, hi: u64, min_len: usize, max_len: usize) -> BTreeSet<u64> {
    let target = gen_range(rng, min_len as u64, max_len as u64) as usize;
    let mut set = BTreeSet::new();
    while set.len() < target {
        set.insert(gen_range(rng, lo, hi));
    }
    set
}

/// A Bloom filter never forgets an inserted key (no false negatives).
#[test]
fn bloom_filter_has_no_false_negatives() {
    let mut rng = SimRng::new(0xB100);
    for case in 0..CASES {
        let keys = gen_set(&mut rng, 0, 1_000_000, 1, 500);
        let mut filter = BloomFilter::new(16_384, 6);
        for &key in &keys {
            filter.insert(key);
        }
        for &key in &keys {
            assert!(filter.contains(key), "case {case}: lost key {key}");
        }
    }
}

/// Summary-ticket resemblance is symmetric, bounded, and equal to 1 for
/// identical working sets.
#[test]
fn summary_ticket_resemblance_properties() {
    let family = PermutationFamily::paper_default();
    let mut rng = SimRng::new(0x51C4);
    for case in 0..CASES {
        let a = gen_set(&mut rng, 0, 100_000, 1, 300);
        let b = gen_set(&mut rng, 0, 100_000, 1, 300);
        let ta = SummaryTicket::from_elements(&family, a.iter().copied());
        let tb = SummaryTicket::from_elements(&family, b.iter().copied());
        let r_ab = ta.resemblance(&tb);
        let r_ba = tb.resemblance(&ta);
        assert!((r_ab - r_ba).abs() < 1e-12, "case {case}: asymmetric");
        assert!((0.0..=1.0).contains(&r_ab), "case {case}: out of range");
        assert_eq!(ta.resemblance(&ta), 1.0, "case {case}");
    }
}

/// Working-set pruning never drops sequence numbers above the watermark and
/// never resurrects pruned ones.
#[test]
fn working_set_pruning_invariants() {
    let mut rng = SimRng::new(0x3033);
    for case in 0..CASES {
        let seqs = gen_set(&mut rng, 0, 10_000, 1, 400);
        let cutoff = gen_range(&mut rng, 0, 10_000);
        let mut ws = WorkingSet::new();
        for &seq in &seqs {
            ws.insert(seq);
        }
        ws.prune_below(cutoff);
        for &seq in &seqs {
            if seq >= cutoff {
                assert!(ws.contains(seq), "case {case}: dropped live seq {seq}");
            } else {
                assert!(!ws.contains(seq), "case {case}: kept pruned seq {seq}");
                assert!(!ws.insert(seq), "case {case}: resurrected seq {seq}");
            }
        }
        assert!(ws.low_watermark() >= cutoff.min(ws.low_watermark().max(cutoff)));
    }
}

/// The working set as it was before it became a bitmap — one tree entry per
/// sequence number and a watermark — kept here as the reference the bitmap
/// must agree with.
#[derive(Default)]
struct WorkingSetModel {
    seqs: BTreeSet<u64>,
    low: u64,
}

impl WorkingSetModel {
    fn insert(&mut self, seq: u64) -> bool {
        seq >= self.low && self.seqs.insert(seq)
    }

    fn prune_below(&mut self, low: u64) {
        if low > self.low {
            self.seqs = self.seqs.split_off(&low);
            self.low = low;
        }
    }

    fn prune_to_len(&mut self, max_len: usize) -> u64 {
        if self.seqs.len() > max_len {
            let newest = *self.seqs.last().expect("non-empty");
            let cutoff = match max_len {
                0 => newest.saturating_add(1),
                n => *self.seqs.iter().rev().nth(n - 1).expect("len checked"),
            };
            self.prune_below(cutoff);
        }
        self.low
    }

    fn in_range(&self, low: u64, high: u64) -> Vec<u64> {
        if low > high {
            return Vec::new();
        }
        self.seqs.range(low..=high).copied().collect()
    }
}

/// Reference-model harness for the bitmap working set: seeded interleavings
/// of `insert` (dense above the watermark, sparse over all of `u64`, below
/// the watermark, `u64::MAX`), `prune_below` and `prune_to_len` (0, 1,
/// `len`, more than `len`, anything between), with every read compared to
/// [`WorkingSetModel`] after every step — ranges with ends on 63 / 64 / 65
/// of a word, inverted ranges and `high = u64::MAX` included.
///
/// Mutant this fails on: an off-by-one mask in `prune_below`
/// (`from_bit(low + 1)`: the block *at* the new watermark is dropped with
/// the ones below it).
#[test]
fn bitmap_working_set_matches_the_set_model_under_random_interleavings() {
    let mut rng = SimRng::new(0xB17A);
    let (mut prunes, mut refused, mut sparse) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let mut ws = WorkingSet::new();
        let mut model = WorkingSetModel::default();
        // The stream head: dense inserts land a little either side of it.
        let mut head = gen_range(&mut rng, 0, 1_000);
        for step in 0..400 {
            let at = format!("case {case} step {step}");
            match gen_range(&mut rng, 0, 100) {
                0..=69 => {
                    head += gen_range(&mut rng, 0, 3);
                    let seq = (head + gen_range(&mut rng, 0, 40)).saturating_sub(20);
                    assert_eq!(ws.insert(seq), model.insert(seq), "{at}: insert {seq}");
                }
                // Far-apart keys come late: one of them under a small
                // `prune_to_len` lifts the watermark over the dense stream.
                70..=73 if step >= 300 => {
                    let seq = match gen_range(&mut rng, 0, 3) {
                        0 => u64::MAX,
                        1 => rng.next_u64(),
                        _ => rng.next_u64() >> gen_range(&mut rng, 1, 40),
                    };
                    sparse += 1;
                    assert_eq!(ws.insert(seq), model.insert(seq), "{at}: insert {seq}");
                }
                74..=79 if model.low > 0 => {
                    let seq = gen_range(&mut rng, 0, model.low);
                    refused += 1;
                    assert!(!ws.insert(seq), "{at}: {seq} is below the watermark");
                    assert!(!model.insert(seq));
                }
                80..=89 => {
                    // Half the time cut exactly at a held key, so the mask
                    // has a bit to keep at its edge.
                    let held = model.in_range(0, u64::MAX);
                    let low = if !held.is_empty() && gen_range(&mut rng, 0, 2) == 0 {
                        held[gen_range(&mut rng, 0, held.len() as u64) as usize]
                    } else {
                        model
                            .low
                            .saturating_add(gen_range(&mut rng, 0, 200))
                            .saturating_sub(50)
                    };
                    prunes += 1;
                    ws.prune_below(low);
                    model.prune_below(low);
                }
                90..=97 => {
                    let len = model.seqs.len();
                    let max_len = match gen_range(&mut rng, 0, 8) {
                        0 if step > 350 => 0,
                        1 => 1,
                        2 => len,
                        3 => len + 1 + gen_range(&mut rng, 0, 5) as usize,
                        _ => gen_range(&mut rng, 0, len as u64 + 1) as usize,
                    };
                    prunes += 1;
                    assert_eq!(
                        ws.prune_to_len(max_len),
                        model.prune_to_len(max_len),
                        "{at}: prune_to_len({max_len})"
                    );
                }
                _ => {}
            }

            assert_eq!(ws.len(), model.seqs.len(), "{at}: len");
            assert_eq!(ws.is_empty(), model.seqs.is_empty(), "{at}: is_empty");
            assert_eq!(ws.low_watermark(), model.low, "{at}: watermark");
            assert_eq!(ws.min_seq(), model.seqs.first().copied(), "{at}: min");
            assert_eq!(ws.max_seq(), model.seqs.last().copied(), "{at}: max");
            let newest = model.seqs.last().copied().unwrap_or(model.low);
            assert_eq!(ws.range(), (model.low, newest), "{at}: range");
            assert!(ws.iter().eq(model.seqs.iter().copied()), "{at}: iter");

            let anchors = [
                0,
                model.low,
                model.seqs.first().copied().unwrap_or(0),
                newest,
                head,
                rng.next_u64(),
            ];
            let mut ranges = vec![(63, 64), (0, 63), (64, 65), (65, 63), (0, u64::MAX)];
            for a in anchors {
                // The word `a` falls in, and its neighbours' edges.
                let word = a / 64 * 64;
                for (lo, hi) in [(62, 63), (63, 64), (64, 65), (0, 127), (65, 191)] {
                    ranges.push((word.saturating_add(lo), word.saturating_add(hi)));
                }
                ranges.push((a, a));
                ranges.push((a, a.saturating_add(63)));
                ranges.push((a, a.saturating_add(64)));
                ranges.push((a.saturating_sub(65), a));
                ranges.push((a.saturating_add(1), a));
                ranges.push((a, u64::MAX));
                ranges.push((0, a));
            }
            for (lo, hi) in ranges {
                let expect = model.in_range(lo, hi);
                let got: Vec<u64> = ws.iter_range(lo, hi).collect();
                assert_eq!(got, expect, "{at}: iter_range({lo}, {hi})");
                assert_eq!(ws.count_in_range(lo, hi), expect.len(), "{at}: count");
                let span = if lo > hi {
                    0
                } else {
                    u128::from(hi - lo) + 1 - expect.len() as u128
                };
                assert_eq!(
                    ws.missing_in_range(lo, hi),
                    u64::try_from(span).unwrap_or(u64::MAX),
                    "{at}: missing_in_range({lo}, {hi})"
                );
                for probe in [lo, hi, lo.wrapping_add(1), hi.wrapping_sub(1)] {
                    assert_eq!(
                        ws.contains(probe),
                        model.seqs.contains(&probe),
                        "{at}: contains({probe})"
                    );
                }
            }

            // The sender half of reconciliation reads the set through
            // `iter_range`: stripe, row and a filter holding every third key.
            let mut filter = BloomFilter::new(4_096, 4);
            for &seq in model.seqs.iter().step_by(3) {
                filter.insert(seq);
            }
            let stripe = gen_range(&mut rng, 1, 5);
            let row = gen_range(&mut rng, 0, stripe);
            let limit = gen_range(&mut rng, 1, 64) as usize;
            let (lo, hi) = (model.low.saturating_sub(3), newest.saturating_sub(10));
            let request = ReconcileRequest::new(filter, lo, hi.max(lo), stripe, row);
            let expect: Vec<u64> = model
                .in_range(request.low, request.high)
                .into_iter()
                .filter(|&k| k % stripe == row && !request.filter.contains(k))
                .take(limit)
                .collect();
            assert_eq!(
                missing_keys(&ws, &request, limit),
                expect,
                "{at}: missing_keys"
            );
        }
    }
    assert!(
        prunes > 1_000 && refused > 200 && sparse > 200,
        "the interleavings must exercise pruning ({prunes}), refusals ({refused}) \
         and far-apart keys ({sparse})"
    );
}

/// Oracle for the arg-min-repaired ticket, driven the way `BulletNode`
/// drives it: learn a key (working set, then ticket), prune, and refresh on
/// a slower clock than the prunes. After every refresh the live ticket is
/// `SummaryTicket::from_elements(held)`; between refreshes it is what the
/// rebuild-everything path had: the ticket of the last refresh with every
/// key learned since inserted — keys pruned in the meantime included. A
/// false advertiser's refresh overwrites the ticket with a phantom claim,
/// and the first honest refresh afterwards is the honest sketch again.
///
/// Mutant this fails on: `LiveTicket::refresh` skipping the repair of a
/// pruned arg-min (treating every `Some` arg-min as still held).
#[test]
fn live_ticket_matches_a_full_rebuild_under_learn_prune_and_lies() {
    let family = PermutationFamily::paper_default();
    let mut rng = SimRng::new(0x71C7);
    let (mut refreshes, mut lies, mut repaired) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let mut ws = WorkingSet::new();
        let mut live = LiveTicket::empty(&family);
        // The rebuild-everything path, kept beside it.
        let mut reference = SummaryTicket::empty(&family);
        let mut lying = false;
        let mut head = gen_range(&mut rng, 0, 5_000);
        for step in 0..600 {
            let at = format!("case {case} step {step}");
            match gen_range(&mut rng, 0, 100) {
                0..=84 => {
                    head += gen_range(&mut rng, 0, 3);
                    let seq = (head + gen_range(&mut rng, 0, 30)).saturating_sub(15);
                    if ws.insert(seq) {
                        live.insert(&family, seq);
                        reference.insert(&family, seq);
                    }
                }
                85..=92 => {
                    ws.prune_to_len(gen_range(&mut rng, 20, 120) as usize);
                }
                93..=97 => {
                    refreshes += 1;
                    if lying {
                        lies += 1;
                        let claim = SummaryTicket::from_elements(&family, head + 100..head + 200);
                        live.overwrite(claim.clone());
                        reference = claim;
                    } else {
                        let before = live.ticket().clone();
                        live.refresh(&family, &ws);
                        reference = SummaryTicket::from_elements(&family, ws.iter());
                        repaired += u64::from(before != reference);
                    }
                }
                _ => lying = !lying && case % 4 == 0,
            }
            assert_eq!(live.ticket(), &reference, "{at}");
        }
        // Whatever state the case ended in, one honest refresh is exact.
        live.refresh(&family, &ws);
        let honest = SummaryTicket::from_elements(&family, ws.iter());
        assert_eq!(live.ticket(), &honest, "case {case}: final honest refresh");
    }
    assert!(
        refreshes > 500 && lies > 50 && repaired > 200,
        "the interleavings must exercise refreshes ({refreshes}), phantom claims ({lies}) \
         and refreshes that had something to repair ({repaired})"
    );
}

/// Compact never emits duplicates, never exceeds the requested size, and
/// reports the combined population.
#[test]
fn compact_invariants() {
    let mut rng = SimRng::new(0xC03A);
    for case in 0..CASES {
        let n_sets = gen_range(&mut rng, 1, 6) as usize;
        let sizes: Vec<(usize, u64)> = (0..n_sets)
            .map(|_| {
                (
                    gen_range(&mut rng, 1, 8) as usize,
                    gen_range(&mut rng, 1, 100),
                )
            })
            .collect();
        let set_size = gen_range(&mut rng, 1, 12) as usize;
        let mut next_node = 0usize;
        let inputs: Vec<WeightedSet<u32>> = sizes
            .iter()
            .map(|&(members, population)| {
                let members: Vec<Member<u32>> = (0..members)
                    .map(|_| {
                        next_node += 1;
                        Member {
                            node: next_node,
                            state: next_node as u32,
                        }
                    })
                    .collect();
                WeightedSet {
                    members,
                    population,
                }
            })
            .collect();
        let out = compact(&inputs, set_size, &mut rng);
        assert!(out.members.len() <= set_size, "case {case}: oversized");
        let mut nodes: Vec<_> = out.members.iter().map(|m| m.node).collect();
        nodes.sort_unstable();
        let distinct = nodes.len();
        nodes.dedup();
        assert_eq!(nodes.len(), distinct, "case {case}: duplicate members");
        assert_eq!(
            out.population,
            sizes.iter().map(|&(_, p)| p).sum::<u64>(),
            "case {case}"
        );
    }
}

/// Random trees are always valid rooted trees that respect their degree
/// bound and contain every participant.
#[test]
fn random_trees_are_valid() {
    let mut rng = SimRng::new(0x73EE);
    for case in 0..CASES {
        let n = gen_range(&mut rng, 1, 200) as usize;
        let max_children = gen_range(&mut rng, 1, 8) as usize;
        let seed = gen_range(&mut rng, 0, 1_000);
        let mut tree_rng = SimRng::new(seed);
        let tree = random_tree(n, 0, max_children, &mut tree_rng);
        assert_eq!(tree.len(), n, "case {case}");
        assert_eq!(tree.subtree_size(0), n, "case {case}");
        assert!(tree.max_degree() <= max_children, "case {case}");
        // Rebuilding from the parent array must succeed (validates
        // acyclicity).
        assert!(
            Tree::from_parents((0..n).map(|v| tree.parent(v)).collect()).is_ok(),
            "case {case}"
        );
    }
}

/// The TCP response function is monotonically decreasing in both loss and
/// RTT.
#[test]
fn tcp_throughput_is_monotone() {
    let mut rng = SimRng::new(0x7C40);
    for case in 0..CASES {
        let rtt = gen_range(&mut rng, 1, 500) as f64 / 1_000.0;
        let loss = gen_range(&mut rng, 1, 300) as f64 / 1_000.0;
        let base = tcp_throughput_bps(1_500.0, rtt, loss);
        let more_loss = tcp_throughput_bps(1_500.0, rtt, (loss * 1.5).min(0.999));
        let more_rtt = tcp_throughput_bps(1_500.0, rtt * 1.5, loss);
        assert!(base > 0.0, "case {case}");
        assert!(more_loss <= base + 1e-9, "case {case}");
        assert!(more_rtt <= base + 1e-9, "case {case}");
    }
}

/// For seeded transit-stub topologies at small and default (emulation)
/// scale, the lazy bidirectional search and its ALT variant return exactly
/// the reference per-source Dijkstra's path — cost and hop sequence — for
/// every ordered participant pair.
#[test]
fn lazy_routing_matches_reference_on_seeded_topology_classes() {
    let mut rng = SimRng::new(0x0D17_0A11);
    for case in 0..6 {
        let seed = rng.next_u64();
        let clients = 6 + (rng.next_u64() % 8) as usize;
        let small = generate(&TopologyConfig::small(clients, seed));
        routing_equiv::assert_all_participant_pairs_equivalent(
            &small.spec,
            &format!("small/case{case}"),
        );
        let emulation = generate(&TopologyConfig::emulation(clients, seed));
        routing_equiv::assert_all_participant_pairs_equivalent(
            &emulation.spec,
            &format!("emulation/case{case}"),
        );
    }
}

/// A uniform-delay grid maximizes equal-cost path ties; the canonical
/// tie-break must make all three strategies agree on every pair anyway.
#[test]
fn lazy_routing_matches_reference_on_tie_heavy_grids() {
    let (w, h) = (7, 7);
    let mut spec = NetworkSpec::new(w * h);
    for y in 0..h {
        for x in 0..w {
            let id = y * w + x;
            if x + 1 < w {
                spec.add_link(LinkSpec::new(id, id + 1, 1e6, SimDuration::from_millis(1)));
            }
            if y + 1 < h {
                spec.add_link(LinkSpec::new(id, id + w, 1e6, SimDuration::from_millis(1)));
            }
            spec.attach(id);
        }
    }
    routing_equiv::assert_all_participant_pairs_equivalent(&spec, "grid7x7");
}

/// Shapes chosen against the ball-reading path reconstruction (see
/// `routing_equiv::tie_adversarial_specs`): all strategies, pairwise and
/// batched, must still agree on every ordered pair.
#[test]
fn lazy_routing_matches_reference_on_tie_adversarial_shapes() {
    for (label, spec) in routing_equiv::tie_adversarial_specs() {
        routing_equiv::assert_all_participant_pairs_equivalent(&spec, label);
    }
}

/// The contracted graph (`routing` module docs) on the paper topology
/// class, where participants hang off leaf routers and most landmarks are
/// hanging or interior routers: every participant's row tree, which
/// `Network::row_trees` builds over the folded graph, holds for every pair
/// the path an eager network reads off a row of the plain kernel, and the 8
/// landmark tables a paper-class setup selects over the folded graph are
/// the farthest-point tables of `Adjacency::distances_from`, the plain
/// kernel.
#[test]
fn contracted_rows_and_landmarks_match_the_plain_kernel_on_the_paper_topology_class() {
    assert_contracted_rows_and_landmarks_are_plain(&TopologyConfig::paper_scale(24, 9));
}

/// The same at the ledger's size, `tree_stream`'s topology: all 200
/// participants of `paper_scale(200, 7)`, 40,000 row paths.
#[test]
#[ignore = "paper scale, 200 rows: run it in a release build, as the nightly job does"]
fn contracted_rows_and_landmarks_match_the_plain_kernel_at_the_ledger_size() {
    assert_contracted_rows_and_landmarks_are_plain(&TopologyConfig::paper_scale(200, 7));
}

fn assert_contracted_rows_and_landmarks_are_plain(config: &TopologyConfig) {
    let topo = generate(config);
    let (spec, n) = (&topo.spec, topo.participants());
    let setup = NetworkSetup::new(spec);
    let sources: Vec<usize> = (0..n).collect();
    let rows = Network::with_setup(spec, &setup).row_trees(&sources);
    let mut eager = Network::with_routing(spec, RoutingMode::EagerPerSource);
    let mut path = Vec::new();
    for (a, row) in rows.iter().enumerate() {
        for b in 0..n {
            let got = row.path_into(b, &mut path).then(|| path.clone());
            assert_eq!(got, routing_equiv::path(&mut eager, a, b), "{a} -> {b}");
        }
    }
    assert_eq!(eager.routing_stats().trees_built, n as u64);

    let links = spec.links.iter().enumerate().flat_map(|(i, link)| {
        let ((fwd, rev), cost) = (Network::directed_ids(i), link.delay.as_micros().max(1));
        [
            (link.a, link.b, fwd, cost, link.up),
            (link.b, link.a, rev, cost, link.up),
        ]
    });
    let adj = Adjacency::new(spec.routers, links);
    let mut closest = adj.distances_from(0);
    let mut plain = Vec::new();
    for _ in 0..RoutingMode::DEFAULT_LANDMARKS {
        let far =
            (0..closest.len()).fold(0, |far, v| if closest[v] > closest[far] { v } else { far });
        let table = adj.distances_from(far);
        for (c, &d) in closest.iter_mut().zip(&table) {
            *c = (*c).min(d);
        }
        let entry = |d: u64| u32::try_from(d).unwrap_or(u32::MAX);
        plain.push(table.into_iter().map(entry).collect::<Vec<u32>>());
    }
    assert_eq!(setup.landmark_tables(), plain);
}

/// The paper topology class (≈20k routers): a sampled set of participant
/// pairs must route identically under all three strategies, and the lazy
/// strategies must never build a shortest-path tree — nor, in the mode a
/// paper-scale `Network` picks for itself, search further than the two ALT
/// balls: reconstruction reads them and settles nothing, so a first-contact
/// query here settles ≈ 210 routers, where resuming the forward search to
/// break ties settled ≈ 3,600. A count, the same on every machine.
#[test]
fn lazy_routing_matches_reference_on_the_paper_topology_class() {
    let topo = generate(&TopologyConfig::paper_scale(16, 5));
    assert!(
        topo.spec.routers >= 20_000,
        "paper class must be paper-sized"
    );
    let n = topo.participants();
    let mut pairs = Vec::new();
    for a in 0..n {
        for b in 0..n {
            if a != b {
                pairs.push((a, b));
            }
        }
    }
    routing_equiv::assert_sampled_pairs_equivalent(&topo.spec, &pairs, "paper");

    let mut net = Network::with_routing(&topo.spec, RoutingMode::auto(topo.spec.routers));
    for &(a, b) in &pairs {
        net.route(a, b);
    }
    let work = net.routing_stats();
    assert!(matches!(work.mode, RoutingMode::LazyAlt { .. }));
    assert_eq!(work.lazy_searches, pairs.len() as u64);
    assert!(
        work.routers_settled <= 400 * work.lazy_searches,
        "ALT settled {} routers over {} first-contact searches: reconstruction is searching again",
        work.routers_settled,
        work.lazy_searches
    );
}

/// Row trees are canonical routes on a mutated paper-class topology too:
/// after a link outage and a delay change on the routes between three
/// participants, every ordered pair's path in the row tree read off the
/// patched graph is the one `Network::route` interns for it.
/// `lazy_routing_matches_reference_on_the_paper_topology_class` checks a
/// pristine paper-class topology the same way.
#[test]
fn row_trees_are_canonical_routes_after_paper_class_mutations() {
    let topo = generate(&TopologyConfig::paper_scale(24, 11));
    let n = topo.participants();
    let mut net = Network::new(&topo.spec);
    let mut middle_link = |a: usize, b: usize| {
        let path = routing_equiv::path(&mut net, a, b).expect("the paper topology is connected");
        path[path.len() / 2] / 2
    };
    let (down, slowed) = (middle_link(0, 1), middle_link(1, 2));
    net.set_link_up(down, false);
    let delay = topo.spec.links[slowed].delay;
    net.set_link_delay(slowed, delay + SimDuration::from_millis(40));
    assert_eq!(
        net.repair_stats().route_mutations,
        2,
        "both mutations change the graph"
    );
    let mut path = Vec::new();
    let sources: Vec<usize> = (0..n).collect();
    for (a, row) in net.row_trees(&sources).iter().enumerate() {
        for b in 0..n {
            let point = net.route(a, b).map(|id| {
                let links = net.route_links(id).iter();
                links.map(|&link| link as usize).collect::<Vec<_>>()
            });
            let read = row.path_into(b, &mut path).then_some(&path);
            assert_eq!(read, point.as_ref(), "{a}->{b}");
        }
    }
}

/// The scenario-dynamics mutation gate on seeded topology classes: after
/// every scripted link/router mutation, the incrementally invalidated
/// networks (all strategies, pairwise and batched) must route bit-identically
/// to a freshly rebuilt network on the mutated topology.
#[test]
fn mutated_routing_matches_fresh_rebuild_on_seeded_topology_classes() {
    use routing_equiv::TopoMutation;
    let mut rng = SimRng::new(0x0D11_A317);
    for case in 0..4 {
        let seed = rng.next_u64();
        let clients = 6 + (rng.next_u64() % 6) as usize;
        for (topo, class) in [
            (generate(&TopologyConfig::small(clients, seed)), "small"),
            (
                generate(&TopologyConfig::emulation(clients, seed)),
                "emulation",
            ),
        ] {
            let spec = &topo.spec;
            let links = spec.links.len();
            let pick = |rng: &mut SimRng| (rng.next_u64() % links as u64) as usize;
            let mut mutations = vec![
                TopoMutation::Bandwidth(pick(&mut rng), 256_000.0),
                TopoMutation::LinkUp(pick(&mut rng), false),
                TopoMutation::Delay(pick(&mut rng), SimDuration::from_millis(50)),
                TopoMutation::Loss(pick(&mut rng), 0.2),
            ];
            // A correlated stub outage of one participant's attachment
            // router, later healed; and the downed link restored.
            let stub = spec.attachments[(rng.next_u64() % clients as u64) as usize];
            mutations.push(TopoMutation::RouterUp(stub, false));
            mutations.push(TopoMutation::RouterUp(stub, true));
            if let TopoMutation::LinkUp(link, _) = mutations[1] {
                mutations.push(TopoMutation::LinkUp(link, true));
            }
            routing_equiv::assert_mutation_equivalence(
                spec,
                &mutations,
                &format!("{class}/case{case}"),
            );
        }
    }
}

/// Same gate on the tie-heavy grid, where a mutation shifts which of many
/// equal-cost paths is canonical — the hardest case for incremental
/// invalidation to get bit-identical.
#[test]
fn mutated_routing_matches_fresh_rebuild_on_tie_heavy_grids() {
    use routing_equiv::TopoMutation;
    let (w, h) = (5, 5);
    let mut spec = NetworkSpec::new(w * h);
    for y in 0..h {
        for x in 0..w {
            let id = y * w + x;
            if x + 1 < w {
                spec.add_link(LinkSpec::new(id, id + 1, 1e6, SimDuration::from_millis(1)));
            }
            if y + 1 < h {
                spec.add_link(LinkSpec::new(id, id + w, 1e6, SimDuration::from_millis(1)));
            }
            spec.attach(id);
        }
    }
    let mutations = [
        TopoMutation::LinkUp(0, false),
        TopoMutation::Delay(7, SimDuration::from_millis(3)),
        TopoMutation::LinkUp(0, true),
        TopoMutation::RouterUp(12, false), // the grid's center router
        TopoMutation::RouterUp(12, true),
        TopoMutation::Delay(7, SimDuration::from_millis(1)),
    ];
    routing_equiv::assert_mutation_equivalence(&spec, &mutations, "grid5x5");
}

/// The randomized mutation-equivalence gate for incremental route repair:
/// long seeded sequences of mixed mutations (worsening, improving,
/// exact-restore oscillations, no-op re-asserts, correlated router outages)
/// over both generated topology classes, with a fresh build as ground
/// truth after every step.
#[test]
fn incremental_repair_matches_rebuild_under_fuzzed_mutation_sequences() {
    let mut rng = SimRng::new(0x1C4E_9A1B);
    for case in 0..3 {
        let seed = rng.next_u64();
        let clients = 6 + (rng.next_u64() % 6) as usize;
        let small = generate(&TopologyConfig::small(clients, seed));
        routing_equiv::assert_incremental_equivalence(
            &small.spec,
            rng.next_u64(),
            14,
            &format!("fuzz/small/case{case}"),
        );
        let emulation = generate(&TopologyConfig::emulation(clients, seed));
        routing_equiv::assert_incremental_equivalence(
            &emulation.spec,
            rng.next_u64(),
            14,
            &format!("fuzz/emulation/case{case}"),
        );
    }
}

/// Same fuzzer on the tie-heavy grid, where improving mutations shift which
/// of many equal-cost paths is canonical — the hardest case for the
/// landmark-bound survival filter to get bit-identical (any `>=` where `>`
/// is required keeps a route that the canonical tie-break would replace).
#[test]
fn incremental_repair_matches_rebuild_on_fuzzed_tie_heavy_grids() {
    let (w, h) = (5, 5);
    let mut spec = NetworkSpec::new(w * h);
    for y in 0..h {
        for x in 0..w {
            let id = y * w + x;
            if x + 1 < w {
                spec.add_link(LinkSpec::new(id, id + 1, 1e6, SimDuration::from_millis(1)));
            }
            if y + 1 < h {
                spec.add_link(LinkSpec::new(id, id + w, 1e6, SimDuration::from_millis(1)));
            }
            spec.attach(id);
        }
    }
    routing_equiv::assert_incremental_equivalence(&spec, 0x6E1D_F02D, 16, "fuzz/grid5x5");
}

/// ALT landmark lower bounds must stay admissible (`lb <= true cost`)
/// across arbitrary mutation sequences. Worsening mutations keep stale
/// tables sound for free; improving mutations must trigger the
/// admissibility check-and-repair — and a stale-landmark query must never
/// escape the guard: the repaired network's paths stay bit-identical to a
/// fresh rebuild on every pair, after every step.
#[test]
fn alt_lower_bounds_stay_admissible_after_mutation_sequences() {
    use routing_equiv::TopoMutation;
    let mut rng = SimRng::new(0x0A17_B0B5);
    for case in 0..4 {
        let seed = rng.next_u64();
        let topo = generate(&TopologyConfig::small(8, seed));
        let mut spec = topo.spec.clone();
        let mut net = Network::with_routing(&spec, RoutingMode::LazyAlt { landmarks: 4 });
        let n = spec.participants();
        for a in 0..n {
            for b in 0..n {
                let _ = net.route(a, b);
            }
        }
        let links = spec.links.len();
        // Alternate worsening and improving delay moves with a mid-sequence
        // link outage and heal, so the landmark tables see both the
        // stale-is-still-sound direction and the must-repair direction.
        let target = (rng.next_u64() % links as u64) as usize;
        let mutations = [
            TopoMutation::Delay(target, SimDuration::from_millis(80)),
            TopoMutation::LinkUp((target + 1) % links, false),
            TopoMutation::Delay(target, SimDuration::from_micros(700)),
            TopoMutation::LinkUp((target + 1) % links, true),
            TopoMutation::Delay((target + 2) % links, SimDuration::from_micros(900)),
        ];
        for (step, mutation) in mutations.into_iter().enumerate() {
            match mutation {
                TopoMutation::Delay(link, delay) => {
                    spec.set_link_delay(link, delay);
                    net.set_link_delay(link, delay);
                }
                TopoMutation::LinkUp(link, up) => {
                    spec.set_link_up(link, up);
                    net.set_link_up(link, up);
                }
                _ => unreachable!(),
            }
            let mut fresh = Network::with_routing(&spec, RoutingMode::EagerPerSource);
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let ctx = format!("case {case} step {step}: {a}->{b}");
                    // Stale landmarks must never leak a wrong route.
                    assert_eq!(
                        routing_equiv::path(&mut fresh, a, b),
                        routing_equiv::path(&mut net, a, b),
                        "{ctx}: path diverges"
                    );
                    let lb = net
                        .alt_lower_bound(a, b)
                        .expect("ALT network must expose landmark bounds");
                    if let Some(true_cost) = fresh.propagation_delay(a, b) {
                        // All harness delays are >= 1us, so the raw routing
                        // cost equals the propagation delay in microseconds.
                        assert!(
                            lb <= true_cost.as_micros(),
                            "{ctx}: lower bound {lb} exceeds true cost {}",
                            true_cost.as_micros()
                        );
                    }
                }
            }
        }
        let rs = net.repair_stats();
        assert!(
            rs.landmark_checks > 0,
            "case {case}: improving mutations never triggered an admissibility check"
        );
    }
}

/// The bandwidth oracles must observe link mutations: estimates read live
/// link state, so a capacity change (no route change) and a delay change
/// (route change) both show up in the next estimate — the oracle side of
/// the scenario engine's time-varying-link support.
#[test]
fn throughput_oracle_rereads_mutated_link_state() {
    let topo = generate(&TopologyConfig::small(8, 0x0AC1E));
    let mut spec = topo.spec.clone();
    let before = {
        let mut net = Network::new(&spec);
        let mut oracle = ThroughputOracle::new(&mut net);
        (1..8)
            .map(|n| oracle.estimate_bps(0, n))
            .collect::<Vec<_>>()
    };
    // Throttle participant 0's access link far below every estimate above.
    let router = spec.attachments[0];
    let access = spec
        .links
        .iter()
        .position(|l| l.a == router || l.b == router)
        .expect("attached participants have an access link");
    let throttled_bps = 64_000.0;
    let mut net = Network::new(&spec);
    net.set_link_bandwidth(access, throttled_bps);
    spec.set_link_bandwidth(access, throttled_bps);
    let (mutated, fresh): (Vec<_>, Vec<_>) = {
        let mutated = {
            let mut oracle = ThroughputOracle::new(&mut net);
            (1..8).map(|n| oracle.estimate_bps(0, n)).collect()
        };
        let mut fresh_net = Network::new(&spec);
        let mut oracle = ThroughputOracle::new(&mut fresh_net);
        (mutated, (1..8).map(|n| oracle.estimate_bps(0, n)).collect())
    };
    assert_eq!(
        mutated, fresh,
        "oracle over the mutated network diverges from a fresh rebuild"
    );
    for (n, (b, m)) in before.iter().zip(&mutated).enumerate() {
        let b = b.expect("reachable before");
        let m = m.expect("reachable after");
        assert!(
            m <= throttled_bps + 1.0 && m < b,
            "estimate 0->{}: {m} Bps ignores the throttled access link ({b} Bps before)",
            n + 1
        );
    }
}

/// The offline tree oracle, which reads its routes off one row tree per
/// participant, must agree **bit for bit** with the pairwise model of
/// `pairwise_ombt`, which reads every pair's point route: over random sequences of
/// estimates and committed flows, and in the trees the greedy builds. The
/// model routes with lazy search, so the row trees' whole-graph kernel is
/// checked against independent code; the lossy cases make every estimate
/// read its reverse route too, through the RTT of the TCP formula, and the
/// lossy paper-class case does so on ≈ 20k routers.
#[test]
fn tree_oracles_are_identical_under_batched_and_pairwise_routing() {
    let mut rng = SimRng::new(0x0BA7_C11E);
    let mut topologies = Vec::new();
    for case in 0..4 {
        let seed = rng.next_u64();
        let clients = 10 + (rng.next_u64() % 8) as usize;
        for (config, class) in [
            (TopologyConfig::small(clients, seed), "small"),
            (TopologyConfig::emulation(clients, seed), "emulation"),
            (
                TopologyConfig::small(clients, seed).with_loss(LossProfile::paper_lossy()),
                "small-lossy",
            ),
            (
                TopologyConfig::emulation(clients, seed).with_loss(LossProfile::paper_lossy()),
                "emulation-lossy",
            ),
        ] {
            topologies.push((format!("{class}/case{case}"), config));
        }
    }
    topologies.push((
        "paper-lossy".to_string(),
        TopologyConfig::paper_scale(40, 7).with_loss(LossProfile::paper_lossy()),
    ));
    for (label, config) in topologies {
        let topo = generate(&config);
        let n = topo.participants();
        let points = || Network::with_routing(&topo.spec, RoutingMode::LazyAlt { landmarks: 4 });
        let ombt = OmbtConfig { max_children: 4 };
        let tree = bottleneck_tree(&mut Network::new(&topo.spec), n, 0, &ombt);
        assert_eq!(
            tree,
            Tree::from_parents(pairwise_bottleneck_tree(
                &mut points(),
                n,
                ombt.max_children
            ))
            .expect("the pairwise model builds a tree"),
            "{label}: OMBT diverges from the pairwise model"
        );
        let (mut rows, mut pairs) = (Network::new(&topo.spec), points());
        let mut oracle = ThroughputOracle::new(&mut rows);
        let mut model = PairwiseOracle::new(&mut pairs);
        for step in 0..8 * n {
            let (from, to) = (rng.range_usize(0, n), rng.range_usize(0, n));
            assert_eq!(
                oracle.estimate_bps(from, to).map(f64::to_bits),
                model.estimate_bps(from, to).map(f64::to_bits),
                "{label}: step {step}: {from}->{to}"
            );
            if rng.chance(0.5) {
                oracle.commit_flow(from, to);
                model.commit_flow(from, to);
            }
        }
    }
}

/// The physical network of the layer properties: `n` participants, each
/// on its own 2 Mbps, 10 ms access link to one hub router.
fn hub_2mbps(n: usize) -> NetworkSpec {
    let mut spec = NetworkSpec::new(n + 1);
    for i in 0..n {
        spec.add_link(LinkSpec::new(
            n,
            i,
            2_000_000.0,
            SimDuration::from_millis(10),
        ));
        spec.attach(i);
    }
    spec
}

/// Builds the small adversary-property star: `n` Bullet nodes, a quarter of
/// the non-source nodes turning adversarial at t=5s (alternating corrupter
/// and stall/false-advertiser personas), run for 30 simulated seconds.
fn integrity_run(
    config: bullet_suite::bullet::BulletConfig,
    seed: u64,
) -> bullet_suite::netsim::Sim<bullet_suite::bullet::BulletNode> {
    use bullet_suite::bullet::BulletNode;
    use bullet_suite::dynamics::{ScenarioDriver, ScenarioScript};
    use bullet_suite::netsim::{Sim, SimTime};
    let n = 20;
    let spec = hub_2mbps(n);
    let mut rng = SimRng::new(seed);
    let tree = random_tree(n, 0, 4, &mut rng);
    let agents: Vec<BulletNode> = (0..n)
        .map(|i| BulletNode::new(i, &tree, config.clone()))
        .collect();
    let mut sim = Sim::new(&spec, agents, seed);
    let nodes: Vec<usize> = (1..n).collect();
    let script =
        ScenarioScript::adversary_fraction(&nodes, 0.25, SimTime::from_secs(5), 0.9, seed ^ 0xBAD);
    let mut driver = ScenarioDriver::new(&script);
    driver.install(&mut sim);
    driver.run_until(&mut sim, SimTime::from_secs(30));
    sim
}

/// With the integrity layer on, no final working set holds a corrupted
/// block, nothing tampered is ever accepted, and the defense visibly fired
/// (rejections and quarantines) — across seeds, i.e. across adversary
/// placements.
#[test]
fn integrity_defense_keeps_working_sets_clean() {
    use bullet_suite::bullet::BulletConfig;
    use bullet_suite::netsim::SimTime;
    for seed in [1u64, 2, 3] {
        let config = BulletConfig {
            stream_rate_bps: 400_000.0,
            stream_start: SimTime::from_secs(2),
            ransub_epoch: SimDuration::from_secs(2),
            ..BulletConfig::default()
        }
        .integrity();
        let sim = integrity_run(config, seed);
        let mut rejected = 0;
        let mut quarantines = 0;
        for node in 0..20 {
            let agent = sim.agent(node);
            assert_eq!(
                agent.corrupt_blocks_held(),
                0,
                "seed {seed}: node {node} holds corrupted blocks with the defense on"
            );
            assert_eq!(
                agent.reverify_working_set(),
                0,
                "seed {seed}: node {node} has a block whose digest does not re-verify"
            );
            assert_eq!(
                agent.metrics.corrupt_blocks_accepted, 0,
                "seed {seed}: node {node} accepted a tampered block with the defense on"
            );
            rejected += agent.metrics.corrupt_blocks_rejected;
            quarantines += agent.metrics.quarantines;
        }
        assert!(
            rejected > 0,
            "seed {seed}: the attack never landed a tampered block to reject"
        );
        assert!(
            quarantines > 0,
            "seed {seed}: no misbehaving peer was ever quarantined"
        );
    }
}

/// With the integrity layer off, the same attack lands: tampered blocks
/// are accepted into working sets and survive to the end of the run.
#[test]
fn integrity_attack_lands_when_the_defense_is_off() {
    use bullet_suite::bullet::BulletConfig;
    use bullet_suite::netsim::SimTime;
    for seed in [1u64, 2, 3] {
        let config = BulletConfig {
            stream_rate_bps: 400_000.0,
            stream_start: SimTime::from_secs(2),
            ransub_epoch: SimDuration::from_secs(2),
            ..BulletConfig::default()
        }
        .recovery();
        let sim = integrity_run(config, seed);
        let accepted: u64 = (0..20)
            .map(|n| sim.agent(n).metrics.corrupt_blocks_accepted)
            .sum();
        let held: usize = (0..20).map(|n| sim.agent(n).corrupt_blocks_held()).sum();
        let reverify: usize = (0..20).map(|n| sim.agent(n).reverify_working_set()).sum();
        let quarantines: u64 = (0..20).map(|n| sim.agent(n).metrics.quarantines).sum();
        assert!(
            accepted > 0,
            "seed {seed}: the undefended overlay accepted no tampered blocks"
        );
        assert!(
            held > 0,
            "seed {seed}: no tampered block survived in any working set"
        );
        assert_eq!(
            reverify, held,
            "seed {seed}: tainted bookkeeping disagrees with direct re-verification"
        );
        assert_eq!(
            quarantines, 0,
            "seed {seed}: quarantine fired with the integrity layer off"
        );
    }
}

/// Liveness under maximum pressure: with every overload budget at its
/// tightest and finite drop-tail ingress on every node, half the overlay
/// storming in mid-stream, and scripted slow receivers, nothing starves.
/// Every deferred join is eventually admitted (each storm node ends the
/// run receiving data), and every receiver keeps making fresh progress
/// late in the run — the overload layer sheds and defers, it never wedges.
#[test]
fn overload_max_pressure_never_starves_receivers() {
    use bullet_suite::bullet::config::OverloadConfig;
    use bullet_suite::bullet::{BulletConfig, BulletNode};
    use bullet_suite::dynamics::{ScenarioAction, ScenarioDriver, ScenarioScript};
    use bullet_suite::netsim::{NodeResources, QueueDiscipline, Sim, SimTime};
    use bullet_suite::overlay::random_tree;

    const NODES: usize = 24;
    for seed in [1u64, 2, 3] {
        let spec = hub_2mbps(NODES);
        let mut rng = SimRng::new(seed);
        let tree = random_tree(NODES, 0, 4, &mut rng);
        let mut config = BulletConfig {
            stream_rate_bps: 400_000.0,
            stream_start: SimTime::from_secs(2),
            ransub_epoch: SimDuration::from_secs(2),
            filter_refresh_interval: SimDuration::from_secs(2),
            mesh_eval_interval: SimDuration::from_secs(5),
            ..BulletConfig::default()
        }
        .overload();
        config.overload = Some(OverloadConfig {
            inbox_budget: 2,
            working_set_budget: 80,
            ..OverloadConfig::default()
        });
        let agents: Vec<BulletNode> = (0..NODES)
            .map(|i| BulletNode::new(i, &tree, config.clone()))
            .collect();
        let mut sim = Sim::new(&spec, agents, seed);
        for node in 1..NODES {
            sim.set_node_resources(
                node,
                NodeResources {
                    queue_budget: 25,
                    drain_per_sec: 60.0,
                    discipline: QueueDiscipline::DropTail,
                },
            );
        }
        let script = ScenarioScript::new()
            .at(
                SimTime::from_secs(3),
                ScenarioAction::SlowNode {
                    node: 5,
                    factor: 0.2,
                },
            )
            .at(
                SimTime::from_secs(3),
                ScenarioAction::SlowNode {
                    node: 11,
                    factor: 0.2,
                },
            )
            .at(
                SimTime::from_secs(4),
                ScenarioAction::JoinStorm {
                    first: 12,
                    count: 12,
                    ramp_secs: 3.0,
                    seed: seed ^ 0x0B10,
                },
            );
        let mut driver = ScenarioDriver::new(&script);
        driver.install(&mut sim);
        driver.run_until(&mut sim, SimTime::from_secs(25));
        let mid: Vec<u64> = (0..NODES)
            .map(|n| sim.agent(n).metrics.delivery.useful_packets)
            .collect();
        driver.run_until(&mut sim, SimTime::from_secs(40));

        let mut sheds = 0;
        let mut deferred = 0;
        let mut admitted = 0;
        for (node, &before) in mid.iter().enumerate().skip(1) {
            let m = &sim.agent(node).metrics;
            assert!(
                m.delivery.useful_packets > before,
                "seed {seed}: node {node} made no fresh progress after t=25s \
                 ({} useful packets, stuck)",
                m.delivery.useful_packets,
            );
            sheds += m.inbox_sheds;
            deferred += m.joins_deferred;
            admitted += m.joins_admitted_after_defer;
        }
        assert!(
            sheds > 0,
            "seed {seed}: the inbox budget never shed — the run exerted no pressure"
        );
        assert!(
            deferred > 0,
            "seed {seed}: no join was ever deferred — admission control never engaged"
        );
        assert!(
            admitted > 0,
            "seed {seed}: no deferred join was ever admitted"
        );
    }
}

/// Packets the source generates in one [`layer_subset_run`], whatever the
/// layers: 43 s of a 400 Kbps stream in 1,500-byte packets.
const LAYER_SUBSET_GENERATED: u64 = 1_434;

/// One 45-second run of the layer-subset fixture: a 16-node 2 Mbps hub, a
/// degree-3 random tree, a 400 Kbps stream; the first interior non-root
/// node crashes at 10 s and rejoins at 30 s, the second corrupts half the
/// blocks it relays from 4 s on. The layers are set **directly on the
/// config fields**, not through the `churn ⊂ recovery ⊂ integrity ⊂
/// overload` profile builders. Returns the simulator's event count, every
/// node's `useful_packets`, and the run's totals of corrupt blocks accepted
/// and rejected.
fn layer_subset_run(recovery: bool, integrity: bool, overload: bool) -> (u64, Vec<u64>, [u64; 2]) {
    use bullet_suite::bullet::{BulletConfig, BulletNode, OverloadConfig};
    use bullet_suite::dynamics::{ScenarioAction, ScenarioDriver, ScenarioScript};
    use bullet_suite::netsim::{FaultPlan, Sim, SimTime};

    const NODES: usize = 16;
    let spec = hub_2mbps(NODES);
    let tree = random_tree(NODES, 0, 3, &mut SimRng::new(19));
    let config = BulletConfig {
        stream_rate_bps: 400_000.0,
        stream_start: SimTime::from_secs(2),
        ransub_epoch: SimDuration::from_secs(2),
        filter_refresh_interval: SimDuration::from_secs(2),
        mesh_eval_interval: SimDuration::from_secs(4),
        evict_idle_senders: true,
        recovery,
        integrity,
        overload: overload.then(|| OverloadConfig {
            inbox_budget: 12,
            working_set_budget: 300,
            ..OverloadConfig::default()
        }),
        ..BulletConfig::default()
    };
    let agents: Vec<BulletNode> = (0..NODES)
        .map(|i| BulletNode::new(i, &tree, config.clone()))
        .collect();
    let mut sim = Sim::new(&spec, agents, 19);
    let mut interior = (1..NODES).filter(|&n| !tree.children(n).is_empty());
    let (crasher, corrupter) = (interior.next().unwrap(), interior.next().unwrap());
    let script = ScenarioScript::new()
        .at(
            SimTime::from_secs(4),
            ScenarioAction::Adversary {
                node: corrupter,
                plan: FaultPlan {
                    corrupt_chance: 0.5,
                    ..FaultPlan::default()
                },
            },
        )
        .at(
            SimTime::from_secs(10),
            ScenarioAction::Crash { node: crasher },
        )
        .at(
            SimTime::from_secs(30),
            ScenarioAction::Join { node: crasher },
        );
    let mut driver = ScenarioDriver::new(&script);
    driver.install(&mut sim);
    driver.run_until(&mut sim, SimTime::from_secs(45));
    assert_eq!(
        sim.agent(0).metrics.delivery.packets_generated,
        LAYER_SUBSET_GENERATED
    );
    let metrics = || (0..NODES).map(|n| &sim.agent(n).metrics);
    let useful = metrics().map(|m| m.delivery.useful_packets).collect();
    let accepted = metrics().map(|m| m.corrupt_blocks_accepted).sum();
    let rejected = metrics().map(|m| m.corrupt_blocks_rejected).sum();
    (sim.counters().events, useful, [accepted, rejected])
}

/// The six valid layer subsets, pinned off the profile chain. The goldens
/// only ever run `{}`, `{R}`, `{R,I}` and `{R,I,O}` as the profile builders
/// compose them; `{O}` and `{R,O}` had never executed before this test, and
/// `{R}` here is recovery without the churn profile having set it. Each
/// subset runs twice for equality and is held to its event count, its
/// corrupt blocks accepted and rejected, and its per-node `useful_packets`,
/// so a refactor that moves any of them moved behaviour. A defended subset
/// (integrity on) accepts no corrupt block and rejects some; an undefended
/// one accepts some. Integrity without recovery is not a valid subset: see
/// the two `#[should_panic]` tests below.
#[test]
fn the_six_valid_layer_subsets_are_pinned() {
    /// Name, [recovery, integrity, overload], events, corrupt blocks
    /// [accepted, rejected], per-node useful packets.
    type Pin = (&'static str, [bool; 3], u64, [u64; 2], [u64; 16]);
    #[rustfmt::skip]
    let expected: [Pin; 6] = [
        ("{}", [false, false, false], 135_039, [1_295, 0],
         [0, 1326, 1430, 1432, 1278, 1155, 1318, 1009, 1431, 1279, 1416, 1433, 990, 1427, 1431, 1432]),
        ("{R}", [true, false, false], 153_390, [352, 0],
         [0, 1379, 1431, 1431, 1427, 1429, 1429, 1427, 1431, 1425, 1430, 1432, 1430, 1430, 1431, 1433]),
        ("{R,I}", [true, true, false], 152_798, [0, 9],
         [0, 1078, 1430, 1431, 1429, 1428, 1432, 1432, 1431, 1429, 1430, 1433, 1431, 1430, 1431, 1432]),
        // The three overload rows were recaptured when a deferred join came
        // to be retried at the responder whose wait had ended, not at the
        // oldest waiting one; the other three rows run no deferral.
        ("{O}", [false, false, true], 132_089, [1_268, 0],
         [0, 1298, 1428, 1429, 1217, 1148, 1274, 1104, 1429, 1218, 1427, 1432, 1094, 1428, 1429, 1432]),
        ("{R,O}", [true, false, true], 151_462, [874, 0],
         [0, 1018, 1430, 1431, 1432, 1430, 1432, 1430, 1431, 1430, 1430, 1432, 1431, 1430, 1431, 1433]),
        ("{R,I,O}", [true, true, true], 150_090, [0, 12],
         [0, 1050, 1430, 1431, 1430, 1431, 1432, 1431, 1431, 1430, 1430, 1432, 1430, 1430, 1431, 1433]),
    ];
    for (name, [recovery, integrity, overload], events, corrupt, useful) in expected {
        let run = layer_subset_run(recovery, integrity, overload);
        assert_eq!(
            run,
            layer_subset_run(recovery, integrity, overload),
            "{name}: two runs of the same subset differ"
        );
        assert_eq!(run, (events, useful.to_vec(), corrupt), "{name}");
        let [accepted, rejected] = corrupt;
        assert_eq!(
            (accepted == 0, rejected > 0),
            (integrity, integrity),
            "{name}: accepted {accepted} and rejected {rejected} corrupt blocks"
        );
        for (node, &held) in useful.iter().enumerate().skip(1) {
            assert!(
                held * 3 >= LAYER_SUBSET_GENERATED,
                "{name}: receiver {node} holds {held} of {LAYER_SUBSET_GENERATED} packets"
            );
        }
    }
}

/// `{I}`: a quarantined tree parent starts a re-attach that nothing retries
/// without the recovery layer, so the combination is refused at construction.
#[test]
#[should_panic(expected = "config.integrity requires config.recovery")]
fn integrity_without_recovery_is_refused() {
    layer_subset_run(false, true, false);
}

/// `{I,O}`: likewise (at the parent of this test two receivers ended the run
/// with 64 of 1,434 packets).
#[test]
#[should_panic(expected = "config.integrity requires config.recovery")]
fn integrity_and_overload_without_recovery_is_refused() {
    layer_subset_run(false, true, true);
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &std::path::Path, found: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            rust_files(&path, found);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            found.push(path);
        }
    }
}

/// Every string literal in `text` that is exactly a `BULLET_*` variable name.
fn knob_literals(text: &str, found: &mut BTreeSet<String>) {
    for rest in text.split("\"BULLET_").skip(1) {
        let name: String = rest
            .chars()
            .take_while(|c| c.is_ascii_uppercase() || *c == '_')
            .collect();
        if !name.is_empty() && rest[name.len()..].starts_with('"') {
            found.insert(format!("BULLET_{name}"));
        }
    }
}

/// The environment knobs are a closed, documented set: the `BULLET_*` names
/// the code reads are exactly the rows of README's "Environment variables"
/// table, and there are five of them. A sixth needs two callers that want
/// different values, a row in the table, and this number changed.
///
/// Configuration is a value the binaries hand down: of the crates under
/// `crates/`, only `bench` (the bench targets' one parser) reads the
/// environment, and no type anywhere has a `from_env`.
#[test]
fn the_environment_knob_set_is_pinned() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &std::path::Path| std::fs::read_to_string(path).expect("source is UTF-8");
    let mut files = Vec::new();
    for dir in ["src", "examples", "crates/bench/benches"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut env_readers = BTreeSet::new();
    for member in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let member = member.expect("directory entry is readable").path();
        let first = files.len();
        rust_files(&member.join("src"), &mut files);
        if files[first..].iter().any(|p| read(p).contains("env::var")) {
            env_readers.insert(member.file_name().map(ToOwned::to_owned));
        }
    }
    assert_eq!(env_readers, BTreeSet::from([Some("bench".into())]));

    let mut in_code = BTreeSet::new();
    for path in &files {
        let text = read(path);
        assert!(
            !text.contains("fn from_env"),
            "{} has a from_env",
            path.display()
        );
        knob_literals(&text, &mut in_code);
    }

    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md is readable");
    let documented: BTreeSet<String> = readme
        .split("\n## Environment variables\n")
        .nth(1)
        .expect("README has an \"Environment variables\" section")
        .split("\n## ")
        .next()
        .expect("split yields at least one piece")
        .lines()
        .filter_map(|line| line.strip_prefix("| `BULLET_"))
        .map(|rest| format!("BULLET_{}", rest.split('`').next().unwrap_or("")))
        .collect();

    assert_eq!(in_code, documented, "code (left) vs README table (right)");
    assert_eq!(in_code.len(), 5, "{in_code:?}");
}

/// Each TFRC stanza is defined once, in `bullet_transport::Connections`: no
/// production source outside `crates/transport/src` builds a sender, feeds
/// a receiver or writes a `TfrcConfig` itself, so every connection runs the
/// one default TFRC. The stream's pacing is written once too: a single
/// `fn packet_interval(` in the workspace, beside `DATA_PACKET_BYTES`. And
/// no agent keeps a hashed per-peer map or a hashed delivered-set: the
/// connection table (a sorted `PeerTable`) and `WorkingSet` replace them, so
/// nothing on the per-packet path runs a hasher and nothing iterates in a
/// per-process order.
#[test]
fn the_tfrc_stanzas_are_defined_once() {
    let workspace = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = workspace.join("crates");
    let read = |path: &std::path::Path| std::fs::read_to_string(path).expect("source is UTF-8");
    let (mut files, mut transport) = (Vec::new(), Vec::new());
    for dir in ["src", "examples"] {
        rust_files(&workspace.join(dir), &mut files);
    }
    for member in std::fs::read_dir(&root).expect("crates/ is readable") {
        let member = member.expect("directory entry is readable").path();
        if member.ends_with("transport") {
            rust_files(&member.join("src"), &mut transport);
            continue;
        }
        rust_files(&member.join("src"), &mut files);
        if member.join("benches").is_dir() {
            rust_files(&member.join("benches"), &mut files);
        }
    }
    for path in &files {
        let text = read(path);
        let production = text.split("\n#[cfg(test)]\nmod ").next().unwrap_or("");
        for stanza in ["TfrcSender::new", ".on_data(", "TfrcConfig {"] {
            assert!(
                !production.contains(stanza),
                "{} calls {stanza}",
                path.display()
            );
        }
    }
    let pacers: Vec<String> = files
        .iter()
        .chain(&transport)
        .flat_map(|path| {
            let definitions = read(path).matches("fn packet_interval(").count();
            std::iter::repeat_n(path.display().to_string(), definitions)
        })
        .collect();
    assert!(
        pacers.len() <= 1,
        "`fn packet_interval(` is defined {} times: {pacers:?}",
        pacers.len()
    );
    for agent in [
        "bullet/src/node.rs",
        "baselines/src/streaming.rs",
        "baselines/src/gossip.rs",
        "baselines/src/antientropy.rs",
    ] {
        let text = read(&root.join(agent));
        for hashed in ["HashMap<OverlayId", "HashSet<u64>"] {
            assert!(!text.contains(hashed), "{agent} declares a {hashed}");
        }
    }
}

/// Public functions no production code calls, each with why it stays: a
/// reference implementation a test compares against, or a read-only
/// accessor a test observes behaviour through and cannot read elsewhere. A
/// caller-less helper that only its own test exercises is deleted, not
/// listed here.
const CALLER_LESS: [(&str, &str); 19] = [
    (
        "alt_lower_bound",
        "accessor: the ALT admissibility property reads it",
    ),
    (
        "build_tree",
        "reference: PreparedTopology::tree must build the same trees",
    ),
    (
        "corrupt_blocks_held",
        "accessor: the integrity properties read it",
    ),
    (
        "fault_plan",
        "accessor: the scenario driver's tests read the installed plan",
    ),
    (
        "in_slow_start",
        "accessor: the TFRC tests observe the phase",
    ),
    (
        "is_partitioned",
        "accessor: the scenario driver's tests read it",
    ),
    (
        "link_up",
        "accessor: the routing-equivalence gate compares link state",
    ),
    (
        "min_seq",
        "accessor: the working-set model harness compares it",
    ),
    (
        "missing_in_range",
        "accessor: the working-set model harness compares it",
    ),
    (
        "node",
        "accessor: an agent's own id; netsim's crate example and regression agents read it",
    ),
    (
        "node_overload_stats",
        "accessor: the ingress-queue tests read per-node stats",
    ),
    (
        "node_resources",
        "accessor: the ingress-queue tests read the model",
    ),
    (
        "propagation_delay",
        "reference: the routing-equivalence gate compares costs",
    ),
    (
        "quarantined_peers",
        "accessor: the quarantine tests read it",
    ),
    ("queue_depth", "accessor: the event-loop tests bound it"),
    (
        "reverify_working_set",
        "reference: recomputes every verdict the bookkeeping keeps",
    ),
    (
        "set_link_delay",
        "reference: the routing-equivalence gate mutates spec and network alike",
    ),
    (
        "timer_compactions",
        "accessor: the compaction regression proves the sweeps it compares ran",
    ),
    ("total_bytes_sent", "accessor: the goldens read it"),
];

/// Production text of a source file: everything above its unit-test module,
/// without `//` lines or `use` declarations, so neither a doc comment nor a
/// re-export counts as a call.
fn production_text(path: &std::path::Path) -> String {
    let text = std::fs::read_to_string(path).expect("source is UTF-8");
    let mut out = String::new();
    let mut in_use = false;
    for line in text
        .split("\n#[cfg(test)]\nmod ")
        .next()
        .unwrap_or("")
        .lines()
    {
        let code = line.trim();
        let item = code.strip_prefix("pub ").unwrap_or(code);
        if code.starts_with("//") {
            continue;
        }
        if in_use || item.starts_with("use ") {
            in_use = !code.ends_with(';');
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `text` calls `name` or names it by path: `name(` (so `.name(`
/// too), `::name` or `name::<`. A bare identifier is not a call, so a
/// variable, field or macro that shares a function's name keeps nothing
/// alive.
fn mentions(text: &str, name: &str) -> bool {
    text.match_indices(name).any(|(at, _)| {
        let (before, after) = (&text[..at], &text[at + name.len()..]);
        !before.ends_with(is_ident)
            && !after.starts_with(is_ident)
            && (before.ends_with("::") || after.starts_with('(') || after.starts_with("::<"))
    })
}

/// Every `pub fn` in `crates/*/src` has a production caller in the
/// workspace: `crates/*/src`, `crates/*/benches`, `examples/`, `src/` or
/// `perf/src`. Code is cut into one piece per `fn`, and a mention inside a
/// function that is itself caller-less does not count, so a chain of
/// wrappers nothing calls is caught whole. Only a call or a path counts as a
/// mention ([`mentions`]), so a local, field or macro that shares a
/// function's name does not hide it. Functions are matched by name alone:
/// a name defined in several impls (`new`, `len`, `is_empty`) is alive if
/// any of them is called, so the check is approximate for those. The
/// exceptions are listed in [`CALLER_LESS`] with their reasons; a listed
/// name that gains a caller or loses its definition must leave the list.
#[test]
fn every_pub_fn_has_a_production_caller() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut defining, mut calling) = (Vec::new(), Vec::new());
    for member in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        let member = member.expect("directory entry is readable").path();
        rust_files(&member.join("src"), &mut defining);
        if member.join("benches").is_dir() {
            rust_files(&member.join("benches"), &mut calling);
        }
    }
    for dir in ["examples", "src", "perf/src"] {
        rust_files(&root.join(dir), &mut calling);
    }
    calling.extend(defining.iter().cloned());

    let mut defined = BTreeSet::new();
    for path in &defining {
        for rest in production_text(path).split("pub fn ").skip(1) {
            defined.insert(
                rest.split(|c| !is_ident(c))
                    .next()
                    .unwrap_or("")
                    .to_string(),
            );
        }
    }
    // (owner, body) for every `fn`; text before a file's first `fn` has
    // no owner.
    let mut pieces: Vec<(String, String)> = Vec::new();
    for path in &calling {
        let text = production_text(path);
        let mut starts: Vec<usize> = text
            .match_indices("fn ")
            .map(|(at, _)| at)
            .filter(|&at| !text[..at].ends_with(is_ident))
            .collect();
        starts.insert(0, 0);
        starts.push(text.len());
        for window in starts.windows(2) {
            let piece = &text[window[0]..window[1]];
            let (owner, body) = match piece.strip_prefix("fn ") {
                Some(rest) => rest.split_at(rest.find(|c| !is_ident(c)).unwrap_or(rest.len())),
                None => ("", piece),
            };
            pieces.push((owner.to_string(), body.to_string()));
        }
    }
    let allowed: BTreeSet<&str> = CALLER_LESS.iter().map(|&(name, _)| name).collect();
    let caller_less = |dead: &BTreeSet<String>, name: &str| {
        !pieces
            .iter()
            .any(|(owner, body)| owner != name && !dead.contains(owner) && mentions(body, name))
    };
    let mut dead = BTreeSet::new();
    loop {
        let next: BTreeSet<String> = defined
            .iter()
            .filter(|name| !allowed.contains(name.as_str()) && caller_less(&dead, name))
            .cloned()
            .collect();
        if next == dead {
            break;
        }
        dead = next;
    }
    assert!(
        dead.is_empty(),
        "pub fns with no production caller: {dead:?}"
    );
    assert!(
        CALLER_LESS.len() <= 30,
        "the exceptions list is capped at 30"
    );
    for (name, reason) in CALLER_LESS {
        assert!(
            defined.contains(name),
            "{name} ({reason}) is no longer defined"
        );
        assert!(
            caller_less(&dead, name),
            "{name} ({reason}) has a production caller now: drop it from the list"
        );
    }
}

/// What README names in backticks that a run writes rather than the
/// repository holds: the perf ledger and the files `trace_probe` writes.
const README_OUTPUTS: [&str; 5] = [
    "perf/out/ledger.json",
    "profile.json",
    "journeys.jsonl",
    "series.jsonl",
    "trace.jsonl",
];

/// The most lines README may have (ROADMAP item 16).
const README_MAX_LINES: usize = 350;

/// Every repository path README cites in backticks exists, and so does
/// every `path.rs::name` it cites, as a `fn` in that file. A span is a path
/// if it has no whitespace and either ends in a file extension or starts in
/// one of the repository's source directories; fenced blocks are skipped,
/// and [`README_OUTPUTS`] are outputs, not citations. A renamed test or a
/// deleted file then fails here instead of rotting in the prose. README is
/// also held to [`README_MAX_LINES`]: it is a map of what the code does
/// now, and a PR's measurements go to CHANGES.md.
#[test]
fn readme_citations_resolve() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md is readable");
    let lines = readme.lines().count();
    assert!(
        lines <= README_MAX_LINES,
        "README.md is {lines} lines, over the {README_MAX_LINES}-line cap of ROADMAP item 16: \
         state what the code does now and move history and measurements to CHANGES.md"
    );
    let mut prose = String::new();
    let mut fenced = false;
    for line in readme.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    let (mut cited, mut missing) = (0, Vec::new());
    for span in prose.split('`').skip(1).step_by(2) {
        let (path, name) = span.split_once("::").unwrap_or((span, ""));
        let extension = ["rs", "md", "json", "jsonl", "py", "toml", "yml"]
            .iter()
            .any(|ext| path.rsplit_once('.').is_some_and(|(_, e)| e == *ext));
        let source_dir = [
            "crates/",
            "examples/",
            "perf/",
            "scripts/",
            "src/",
            "tests/",
        ]
        .iter()
        .any(|dir| path.starts_with(dir));
        if span.contains(char::is_whitespace)
            || !(extension || source_dir)
            || README_OUTPUTS.contains(&span)
        {
            continue;
        }
        cited += 1;
        let file = root.join(path);
        let found = match name {
            "" => file.exists(),
            name => std::fs::read_to_string(&file).is_ok_and(|text| {
                [format!("fn {name}("), format!("fn {name}<")]
                    .iter()
                    .any(|def| text.contains(def.as_str()))
            }),
        };
        if !found {
            missing.push(span);
        }
    }
    assert!(
        missing.is_empty(),
        "README cites what is not there: {missing:?}"
    );
    assert!(
        cited >= 20,
        "only {cited} citations found: is the scan broken?"
    );
}
