//! The RanSub collect/distribute protocol (paper §2.2, Fig. 2).
//!
//! Once per epoch the root initiates a *distribute* phase: every node sends
//! each child a fixed-size, uniformly random subset of the nodes **outside**
//! that child's subtree (the RanSub-nondescendants option), built by
//! compacting its own distribute set, its own state, and the collect sets its
//! other children supplied in the previous epoch. When the distribute wave
//! reaches the leaves, a *collect* phase flows back up: each node sends its
//! parent a compacted random subset of its subtree along with the subtree's
//! size. The root starts the next epoch when all collect sets have returned,
//! or — when failure detection is enabled — when the epoch timeout expires.
//!
//! The struct below is a pure state machine: the embedding protocol (Bullet)
//! forwards messages to it and sends whatever it returns.

use std::collections::HashMap;

use bullet_netsim::{OverlayId, SimRng};

use crate::compact::{compact, Member, WeightedSet};

/// Configuration for one RanSub instance.
#[derive(Clone, Copy, Debug)]
pub struct RanSubConfig {
    /// Number of members carried in each collect/distribute set
    /// (paper default: 10, so a set fits in one IP packet).
    pub set_size: usize,
    /// Whether the root may start a new epoch before all collect sets have
    /// returned (the failure-detection mode of §4.6).
    pub failure_detection: bool,
}

impl Default for RanSubConfig {
    fn default() -> Self {
        RanSubConfig {
            set_size: 10,
            failure_detection: true,
        }
    }
}

/// A RanSub wire message.
#[derive(Clone, Debug, PartialEq)]
pub enum RanSubMsg<T> {
    /// Sent from parent to child during the distribute phase.
    Distribute {
        /// Epoch number.
        epoch: u64,
        /// Random subset of the child's non-descendants.
        set: WeightedSet<T>,
    },
    /// Sent from child to parent during the collect phase.
    Collect {
        /// Epoch number.
        epoch: u64,
        /// Random subset representing the child's subtree, with its size.
        set: WeightedSet<T>,
    },
}

/// What the state machine wants done after handling an input.
#[derive(Clone, Debug, PartialEq)]
pub enum RanSubEvent<T> {
    /// Transmit `msg` to overlay participant `to`.
    Send {
        /// Destination.
        to: OverlayId,
        /// Message to transmit.
        msg: RanSubMsg<T>,
    },
    /// A fresh random subset arrived for this node; hand it to the
    /// application (Bullet uses it to look for new peers).
    Deliver {
        /// Epoch the subset belongs to.
        epoch: u64,
        /// The subset members (never includes this node itself).
        members: Vec<Member<T>>,
    },
}

/// The per-node RanSub state machine.
#[derive(Clone, Debug)]
pub struct RanSub<T> {
    config: RanSubConfig,
    me: OverlayId,
    parent: Option<OverlayId>,
    children: Vec<OverlayId>,
    state: T,
    current_epoch: u64,
    /// The distribute set received from the parent in the current epoch.
    my_distribute: Option<WeightedSet<T>>,
    /// Collect sets received from children in the current epoch.
    collects: HashMap<OverlayId, WeightedSet<T>>,
    /// Collect sets from the most recently completed collect phase; used to
    /// build the next epoch's distribute sets and to answer descendant-count
    /// queries.
    prev_collects: HashMap<OverlayId, WeightedSet<T>>,
    collect_sent: bool,
    /// Root only: whether the current epoch's collect phase finished.
    epoch_complete: bool,
    /// Number of epochs the root skipped because collects were missing and
    /// failure detection was disabled.
    pub stalled_epochs: u64,
}

impl<T: Clone> RanSub<T> {
    /// Creates a RanSub instance for one node of the tree.
    pub fn new(
        config: RanSubConfig,
        me: OverlayId,
        parent: Option<OverlayId>,
        children: Vec<OverlayId>,
        initial_state: T,
    ) -> Self {
        RanSub {
            config,
            me,
            parent,
            children,
            state: initial_state,
            current_epoch: 0,
            my_distribute: None,
            collects: HashMap::new(),
            prev_collects: HashMap::new(),
            collect_sent: false,
            epoch_complete: true,
            stalled_epochs: 0,
        }
    }

    /// Updates the state snapshot (e.g. the node's current summary ticket)
    /// carried in future collect/distribute sets.
    pub fn set_state(&mut self, state: T) {
        self.state = state;
    }

    /// Whether this node is the tree root.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    /// The node's children in the underlying tree.
    pub fn children(&self) -> &[OverlayId] {
        &self.children
    }

    /// Number of descendants of `child` (the population its last collect set
    /// represented), if a collect has been seen from it.
    pub fn descendants_of(&self, child: OverlayId) -> Option<u64> {
        self.collects
            .get(&child)
            .or_else(|| self.prev_collects.get(&child))
            .map(|s| s.population)
    }

    /// Size of the subtree rooted at this node, as of the last collect phase
    /// it participated in (including the node itself).
    pub fn subtree_size(&self) -> u64 {
        1 + self
            .children
            .iter()
            .filter_map(|&c| self.descendants_of(c))
            .sum::<u64>()
    }

    /// Membership repair: a child departed (crash or graceful leave).
    ///
    /// The child is removed from the tree view and *both* collect
    /// generations are pruned, so its stale subtree can no longer be
    /// double-counted in descendant queries or compacted into future
    /// distribute sets from this node. If the departed child was the only
    /// collect still outstanding this epoch, the collect phase completes:
    /// a non-root node emits its collect-up message, the root marks the
    /// epoch complete (so the next epoch starts on time even without
    /// failure detection).
    pub fn remove_child(&mut self, child: OverlayId) -> Vec<RanSubEvent<T>> {
        let before = self.children.len();
        self.children.retain(|&c| c != child);
        self.collects.remove(&child);
        self.prev_collects.remove(&child);
        if before == self.children.len() {
            return Vec::new();
        }
        // Vacuously true for a node left childless: it behaves like a leaf.
        let all_in = self.children.iter().all(|c| self.collects.contains_key(c));
        if !all_in {
            return Vec::new();
        }
        if self.is_root() {
            self.epoch_complete = true;
            Vec::new()
        } else {
            self.send_collect_up()
        }
    }

    /// Membership repair: adopt `child` (e.g. a grandchild handed over by a
    /// gracefully leaving node). No collect state exists for it yet, so
    /// descendant queries answer `None` until its first collect arrives.
    pub fn add_child(&mut self, child: OverlayId) {
        if child != self.me && !self.children.contains(&child) {
            self.children.push(child);
        }
    }

    /// Membership repair: the node was handed to a new parent (or became
    /// detached). Collect messages flow to the new parent from the next
    /// phase on.
    pub fn set_parent(&mut self, parent: Option<OverlayId>) {
        self.parent = parent;
    }

    /// Root only: starts a new epoch. Returns the distribute messages to
    /// send, or an empty vector if the previous epoch has not completed and
    /// failure detection is disabled (RanSub stalls, §4.6).
    pub fn start_epoch(&mut self, rng: &mut SimRng) -> Vec<RanSubEvent<T>> {
        assert!(self.is_root(), "only the root starts epochs");
        if !self.epoch_complete && !self.config.failure_detection {
            self.stalled_epochs += 1;
            return Vec::new();
        }
        // Freeze the last collect round for use in this distribute phase.
        if !self.collects.is_empty() {
            self.prev_collects = std::mem::take(&mut self.collects);
        } else {
            self.collects.clear();
        }
        self.current_epoch += 1;
        self.epoch_complete = self.children.is_empty();
        self.collect_sent = false;
        self.my_distribute = None;
        self.distribute_to_children(rng)
    }

    /// Handles an incoming RanSub message from `from`.
    pub fn on_message(
        &mut self,
        from: OverlayId,
        msg: RanSubMsg<T>,
        rng: &mut SimRng,
    ) -> Vec<RanSubEvent<T>> {
        match msg {
            RanSubMsg::Distribute { epoch, set } => self.on_distribute(from, epoch, set, rng),
            RanSubMsg::Collect { epoch, set } => self.on_collect(from, epoch, set, rng),
        }
    }

    fn on_distribute(
        &mut self,
        from: OverlayId,
        epoch: u64,
        set: WeightedSet<T>,
        rng: &mut SimRng,
    ) -> Vec<RanSubEvent<T>> {
        if Some(from) != self.parent || epoch < self.current_epoch {
            return Vec::new();
        }
        // Entering a new epoch: roll the collect state forward.
        if epoch > self.current_epoch {
            if !self.collects.is_empty() {
                self.prev_collects = std::mem::take(&mut self.collects);
            }
            self.current_epoch = epoch;
            self.collect_sent = false;
        }
        self.my_distribute = Some(set.clone());
        let mut events = Vec::new();
        let members: Vec<Member<T>> = set
            .members
            .iter()
            .filter(|m| m.node != self.me)
            .cloned()
            .collect();
        if !members.is_empty() {
            events.push(RanSubEvent::Deliver { epoch, members });
        }
        events.extend(self.distribute_to_children(rng));
        // Leaves answer immediately with their collect set.
        if self.children.is_empty() {
            events.extend(self.send_collect_up());
        }
        events
    }

    fn on_collect(
        &mut self,
        from: OverlayId,
        epoch: u64,
        set: WeightedSet<T>,
        rng: &mut SimRng,
    ) -> Vec<RanSubEvent<T>> {
        let _ = rng;
        if epoch != self.current_epoch || !self.children.contains(&from) {
            return Vec::new();
        }
        self.collects.insert(from, set);
        let all_in = self.children.iter().all(|c| self.collects.contains_key(c));
        if !all_in {
            return Vec::new();
        }
        if self.is_root() {
            self.epoch_complete = true;
            Vec::new()
        } else {
            self.send_collect_up()
        }
    }

    /// Builds and emits this epoch's distribute messages for every child.
    fn distribute_to_children(&mut self, rng: &mut SimRng) -> Vec<RanSubEvent<T>> {
        let children = self.children.clone();
        let mut events = Vec::with_capacity(children.len());
        for &child in &children {
            // RanSub-nondescendants: everything except the child's subtree.
            let mut inputs: Vec<WeightedSet<T>> = Vec::new();
            if let Some(ds) = &self.my_distribute {
                inputs.push(ds.clone());
            }
            inputs.push(WeightedSet::singleton(self.me, self.state.clone()));
            for &sibling in &children {
                if sibling == child {
                    continue;
                }
                if let Some(cs) = self.prev_collects.get(&sibling) {
                    inputs.push(cs.clone());
                }
            }
            let set = compact(&inputs, self.config.set_size, rng);
            events.push(RanSubEvent::Send {
                to: child,
                msg: RanSubMsg::Distribute {
                    epoch: self.current_epoch,
                    set,
                },
            });
        }
        events
    }

    /// Builds this node's collect set from its own state plus its children's
    /// collect sets and sends it to the parent.
    fn send_collect_up(&mut self) -> Vec<RanSubEvent<T>> {
        let Some(parent) = self.parent else {
            return Vec::new();
        };
        if self.collect_sent {
            return Vec::new();
        }
        self.collect_sent = true;
        let mut inputs: Vec<WeightedSet<T>> =
            vec![WeightedSet::singleton(self.me, self.state.clone())];
        for &child in &self.children {
            if let Some(cs) = self.collects.get(&child) {
                inputs.push(cs.clone());
            }
        }
        // Use a cheap deterministic mix for the sampling inside the collect
        // compaction; the embedding protocol supplies real randomness on the
        // distribute path where uniformity matters most.
        let mut rng = SimRng::new(self.me as u64 ^ (self.current_epoch << 20));
        let set = compact(&inputs, self.config.set_size, &mut rng);
        vec![RanSubEvent::Send {
            to: parent,
            msg: RanSubMsg::Collect {
                epoch: self.current_epoch,
                set,
            },
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a full RanSub epoch over an in-memory tree (no network), with
    /// every node's state being its own id.
    struct Harness {
        nodes: Vec<RanSub<usize>>,
        rng: SimRng,
    }

    impl Harness {
        /// `parents[i]` is the parent of node `i` (`None` for the root).
        fn new(parents: &[Option<usize>], config: RanSubConfig) -> Self {
            let n = parents.len();
            let mut children = vec![Vec::new(); n];
            for (node, parent) in parents.iter().enumerate() {
                if let Some(p) = parent {
                    children[*p].push(node);
                }
            }
            let nodes = (0..n)
                .map(|i| RanSub::new(config, i, parents[i], children[i].clone(), i))
                .collect();
            Harness {
                nodes,
                rng: SimRng::new(7),
            }
        }

        /// Runs one epoch to completion; returns the sets delivered per node.
        fn run_epoch(&mut self, root: usize) -> Vec<Vec<usize>> {
            let mut delivered = vec![Vec::new(); self.nodes.len()];
            let mut queue: Vec<(usize, usize, RanSubMsg<usize>)> = Vec::new();
            for ev in self.nodes[root].start_epoch(&mut self.rng) {
                match ev {
                    RanSubEvent::Send { to, msg } => queue.push((root, to, msg)),
                    RanSubEvent::Deliver { .. } => {}
                }
            }
            while let Some((from, to, msg)) = queue.pop() {
                for ev in self.nodes[to].on_message(from, msg, &mut self.rng) {
                    match ev {
                        RanSubEvent::Send { to: next, msg } => queue.push((to, next, msg)),
                        RanSubEvent::Deliver { members, .. } => {
                            delivered[to].extend(members.iter().map(|m| m.node));
                        }
                    }
                }
            }
            delivered
        }
    }

    /// A three-level tree: 0 is the root, 1 and 2 its children, 3..7 leaves.
    fn seven_node_parents() -> Vec<Option<usize>> {
        vec![None, Some(0), Some(0), Some(1), Some(1), Some(2), Some(2)]
    }

    #[test]
    fn first_epoch_delivers_ancestors_only() {
        let mut h = Harness::new(&seven_node_parents(), RanSubConfig::default());
        let delivered = h.run_epoch(0);
        // In epoch 1 no collect info exists yet, so children see only the
        // root's state and grandchildren see the root and their parent.
        assert!(delivered[1].contains(&0));
        assert!(delivered[3].contains(&0));
        assert!(delivered[3].contains(&1));
        assert!(!delivered[3].contains(&3), "a node never receives itself");
    }

    #[test]
    fn second_epoch_excludes_descendants() {
        let mut h = Harness::new(&seven_node_parents(), RanSubConfig::default());
        h.run_epoch(0);
        let delivered = h.run_epoch(0);
        // Node 1's distribute set must exclude its own subtree {1, 3, 4} but
        // should include nodes from the sibling subtree.
        assert!(!delivered[1].contains(&1));
        assert!(!delivered[1].contains(&3));
        assert!(!delivered[1].contains(&4));
        assert!(
            delivered[1].iter().any(|n| [2, 5, 6].contains(n)),
            "expected some non-descendant, got {:?}",
            delivered[1]
        );
        // Leaves should now see members of other subtrees too.
        assert!(
            delivered[3].iter().any(|n| [2, 5, 6].contains(n)),
            "leaf 3 saw {:?}",
            delivered[3]
        );
    }

    #[test]
    fn descendant_counts_reach_the_root() {
        let mut h = Harness::new(&seven_node_parents(), RanSubConfig::default());
        h.run_epoch(0);
        assert_eq!(h.nodes[0].descendants_of(1), Some(3));
        assert_eq!(h.nodes[0].descendants_of(2), Some(3));
        assert_eq!(h.nodes[0].subtree_size(), 7);
        assert_eq!(h.nodes[1].descendants_of(3), Some(1));
    }

    #[test]
    fn set_size_is_respected() {
        // A wide tree: root with 30 leaf children; set size 10.
        let mut parents = vec![None];
        for _ in 0..30 {
            parents.push(Some(0));
        }
        let mut h = Harness::new(&parents, RanSubConfig::default());
        h.run_epoch(0);
        let delivered = h.run_epoch(0);
        for sets in delivered.iter().skip(1) {
            assert!(sets.len() <= 10, "delivered {} members", sets.len());
        }
    }

    #[test]
    fn stalls_without_failure_detection_when_a_collect_is_missing() {
        let config = RanSubConfig {
            set_size: 10,
            failure_detection: false,
        };
        let parents = seven_node_parents();
        let mut h = Harness::new(&parents, config);
        h.run_epoch(0);
        // Simulate node 1 failing: drop its collect by replacing it with a
        // node that never responds. Here we simply mark epoch incomplete by
        // starting an epoch and never delivering node 1's messages.
        let events = h.nodes[0].start_epoch(&mut h.rng);
        assert!(!events.is_empty());
        // Root now waits for collects that never arrive; the next start is
        // refused.
        let events = h.nodes[0].start_epoch(&mut h.rng);
        assert!(events.is_empty());
        assert_eq!(h.nodes[0].stalled_epochs, 1);
    }

    #[test]
    fn proceeds_with_failure_detection_when_a_collect_is_missing() {
        let config = RanSubConfig {
            set_size: 10,
            failure_detection: true,
        };
        let mut h = Harness::new(&seven_node_parents(), config);
        h.run_epoch(0);
        let _ = h.nodes[0].start_epoch(&mut h.rng);
        // Even though no collect returned (we never delivered messages), the
        // root may start the next epoch.
        let events = h.nodes[0].start_epoch(&mut h.rng);
        assert!(!events.is_empty());
        assert_eq!(h.nodes[0].stalled_epochs, 0);
    }

    #[test]
    fn epochs_are_numbered_monotonically() {
        let mut h = Harness::new(&seven_node_parents(), RanSubConfig::default());
        h.run_epoch(0);
        assert_eq!(h.nodes[0].current_epoch, 1);
        h.run_epoch(0);
        assert_eq!(h.nodes[0].current_epoch, 2);
        assert_eq!(h.nodes[6].current_epoch, 2);
    }

    #[test]
    fn departed_child_is_pruned_from_both_collect_generations() {
        let mut h = Harness::new(&seven_node_parents(), RanSubConfig::default());
        h.run_epoch(0);
        h.run_epoch(0);
        assert_eq!(h.nodes[0].subtree_size(), 7);
        // Child 1 (subtree {1, 3, 4}) departs.
        let events = h.nodes[0].remove_child(1);
        assert!(events.is_empty(), "root emits nothing on repair");
        assert_eq!(h.nodes[0].descendants_of(1), None, "stale counts pruned");
        assert_eq!(h.nodes[0].subtree_size(), 4, "no double-count after repair");
        assert_eq!(h.nodes[0].children(), &[2]);
        // The next epochs run cleanly over the remaining tree and the
        // departed subtree no longer reaches anyone's distribute sets.
        h.run_epoch(0);
        let delivered = h.run_epoch(0);
        for (node, sets) in delivered.iter().enumerate() {
            if [0, 2, 5, 6].contains(&node) {
                for member in sets {
                    assert!(
                        ![1, 3, 4].contains(member),
                        "node {node} still sees departed subtree member {member}"
                    );
                }
            }
        }
    }

    #[test]
    fn mid_epoch_departure_completes_the_collect_phase() {
        // Root with children 1 and 2; child 2's collect arrives, child 1
        // departs before answering. Without failure detection the root
        // would stall forever; repair must complete the epoch instead.
        let config = RanSubConfig {
            set_size: 10,
            failure_detection: false,
        };
        let parents = vec![None, Some(0), Some(0)];
        let mut h = Harness::new(&parents, config);
        h.run_epoch(0);
        // Start an epoch manually and deliver only child 2's messages.
        let events = h.nodes[0].start_epoch(&mut h.rng);
        let to_child2: Vec<RanSubMsg<usize>> = events
            .iter()
            .filter_map(|e| match e {
                RanSubEvent::Send { to: 2, msg } => Some(msg.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(to_child2.len(), 1);
        for msg in to_child2 {
            for ev in h.nodes[2].on_message(0, msg, &mut h.rng) {
                if let RanSubEvent::Send { to: 0, msg } = ev {
                    h.nodes[0].on_message(2, msg, &mut h.rng);
                }
            }
        }
        // Child 1 never answered; the root refuses to start the next epoch.
        assert!(h.nodes[0].start_epoch(&mut h.rng).is_empty());
        assert_eq!(h.nodes[0].stalled_epochs, 1);
        // Repair: removing the dead child completes the collect phase.
        assert!(h.nodes[0].remove_child(1).is_empty());
        let events = h.nodes[0].start_epoch(&mut h.rng);
        assert!(!events.is_empty(), "epoch must start after repair");
        assert_eq!(h.nodes[0].subtree_size(), 2);
    }

    #[test]
    fn interior_node_departure_triggers_collect_up() {
        // Node 1 (children 3 and 4): 3's collect is in, 4 departs. The
        // repair must emit node 1's own collect to the root, with node 4's
        // subtree excluded from the population count.
        let mut h = Harness::new(&seven_node_parents(), RanSubConfig::default());
        h.run_epoch(0);
        let events = h.nodes[0].start_epoch(&mut h.rng);
        // Deliver the distribute wave to node 1 only (not its children), so
        // node 1 sits mid-epoch waiting for collects.
        for ev in events {
            if let RanSubEvent::Send { to: 1, msg } = ev {
                h.nodes[1].on_message(0, msg, &mut h.rng);
            }
        }
        // Child 3 answers; child 4 never does.
        let collect3 = RanSubMsg::Collect {
            epoch: h.nodes[1].current_epoch,
            set: WeightedSet::singleton(3, 3usize),
        };
        assert!(h.nodes[1].on_message(3, collect3, &mut h.rng).is_empty());
        let events = h.nodes[1].remove_child(4);
        match events.as_slice() {
            [RanSubEvent::Send {
                to: 0,
                msg: RanSubMsg::Collect { set, .. },
            }] => {
                assert_eq!(set.population, 2, "population is self + child 3 only");
                assert!(
                    set.members.iter().all(|m| m.node != 4),
                    "departed child leaked into the collect set"
                );
            }
            other => panic!("expected a collect-up, got {other:?}"),
        }
    }

    #[test]
    fn adopted_children_join_the_tree_view() {
        let mut h = Harness::new(&seven_node_parents(), RanSubConfig::default());
        h.run_epoch(0);
        // Node 1 leaves gracefully: the root adopts its children 3 and 4.
        h.nodes[0].remove_child(1);
        h.nodes[0].add_child(3);
        h.nodes[0].add_child(4);
        h.nodes[0].add_child(4); // idempotent
        h.nodes[3].set_parent(Some(0));
        h.nodes[4].set_parent(Some(0));
        assert_eq!(h.nodes[0].children(), &[2, 3, 4]);
        // A full epoch over the repaired tree restores the counts.
        h.run_epoch(0);
        assert_eq!(h.nodes[0].subtree_size(), 6, "everyone but the leaver");
        assert_eq!(h.nodes[0].descendants_of(3), Some(1));
    }

    #[test]
    fn stale_messages_are_ignored() {
        let mut h = Harness::new(&seven_node_parents(), RanSubConfig::default());
        h.run_epoch(0);
        h.run_epoch(0);
        // Replay an epoch-1 distribute to node 1: it must be ignored.
        let stale = RanSubMsg::Distribute {
            epoch: 1,
            set: WeightedSet::singleton(0, 0usize),
        };
        let events = h.nodes[1].on_message(0, stale, &mut h.rng);
        assert!(events.is_empty());
    }
}
