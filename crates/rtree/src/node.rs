//! Tree nodes and entries.

use crate::rect::Rect;

/// An entry of a node: either a data item (in a leaf) or a child node (in an
/// internal node), each under a bounding rectangle.
#[derive(Debug, Clone)]
pub(crate) enum Entry<T> {
    /// Leaf-level entry: a (possibly degenerate) rectangle and its payload.
    Leaf { rect: Rect, item: T },
    /// Internal entry: the stored MBR of the child subtree.
    Node { rect: Rect, child: Box<Node<T>> },
}

impl<T> Entry<T> {
    #[inline]
    pub(crate) fn rect(&self) -> &Rect {
        match self {
            Entry::Leaf { rect, .. } => rect,
            Entry::Node { rect, .. } => rect,
        }
    }

    /// The level this entry belongs *at* (leaf entries live at level 0;
    /// an internal entry at level `child.level + 1`).
    pub(crate) fn target_level(&self) -> u32 {
        match self {
            Entry::Leaf { .. } => 0,
            Entry::Node { child, .. } => child.level + 1,
        }
    }
}

/// A tree node. `level == 0` means leaf; the root is the highest level.
#[derive(Debug, Clone)]
pub struct Node<T> {
    pub(crate) level: u32,
    pub(crate) entries: Vec<Entry<T>>,
}

impl<T> Node<T> {
    pub(crate) fn new_leaf() -> Self {
        Node {
            level: 0,
            entries: Vec::new(),
        }
    }

    pub(crate) fn new(level: u32, entries: Vec<Entry<T>>) -> Self {
        Node { level, entries }
    }

    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Recomputes the minimum bounding rectangle of all entries.
    ///
    /// # Panics
    /// Panics on an empty node (only the empty-tree root has no entries and
    /// callers guard that case).
    pub(crate) fn mbr(&self) -> Rect {
        let mut it = self.entries.iter();
        let first = it.next().expect("mbr of empty node").rect().clone();
        it.fold(first, |mut acc, e| {
            acc.union_assign(e.rect());
            acc
        })
    }
}
