//! How many entries a row tree holds, counted from its paths alone.
//!
//! A row tree is one `u32` entry per distinct link of its source's
//! canonical paths and one branch marker per branch that does not continue
//! from the entry before it (`bullet_netsim::RowTree`). This counter builds
//! the same tree from the paths, target by target in target order, without
//! reading the tree's layout: the memory tests hold the rows to
//! `4 × entries` bytes with it. It is shared (via `#[path]` inclusion) by
//! `tests/network_memory.rs` and `tests/ombt_memory.rs`.

use std::collections::HashSet;

/// The entries of one row tree, fed its paths in target order.
#[derive(Default)]
pub struct RowEntries {
    /// Links the tree holds so far.
    held: HashSet<u32>,
    /// The link of the last entry, `None` while the tree is empty.
    last: Option<u32>,
    /// Link entries plus branch markers.
    pub entries: i64,
}

impl RowEntries {
    /// Adds one target's path (directed link ids, source first). It is
    /// read back only as far as the first link the tree already holds, as
    /// the row builder does; the new branch costs a marker unless it hangs
    /// off the last entry (the source, for the first branch).
    pub fn add_path(&mut self, path: &[u32]) {
        let shared = path
            .iter()
            .take_while(|link| self.held.contains(link))
            .count();
        if shared == path.len() {
            return;
        }
        let anchor = shared.checked_sub(1).map(|i| path[i]);
        if anchor != self.last {
            self.entries += 1;
        }
        self.held.extend(&path[shared..]);
        self.entries += (path.len() - shared) as i64;
        self.last = path.last().copied();
    }

    /// The links the tree holds, without its markers.
    pub fn links(&self) -> i64 {
        self.held.len() as i64
    }
}
