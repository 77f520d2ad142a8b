//! The storage seam every traversal runs over. A [`NodeSource`] yields a
//! root reference and fetches nodes; range search, best-first kNN and
//! the synchronized join are each written once over it. The in-memory
//! [`RStarTree`] hands out its nodes by reference and cannot fail; the
//! [`crate::PagedTree`] pins each node's page, checks its level, and
//! counts the pool hit or miss.

use std::convert::Infallible;

use crate::node::{Entry, Node};
use crate::rect::Rect;
use crate::stats::SearchStats;
use crate::tree::RStarTree;

/// One entry of a fetched node.
#[derive(Debug, Clone, Copy)]
pub enum EntryView<'n, R, I> {
    /// A data item under its stored rectangle (leaf level).
    Leaf(&'n Rect, I),
    /// A child node under its stored MBR (internal levels).
    Child(&'n Rect, R),
}

/// A fetched node.
pub trait NodeView {
    /// Reference to a child node.
    type Ref: Copy;
    /// Item of a leaf entry.
    type Item: Copy;

    /// True for a leaf (level 0).
    fn is_leaf(&self) -> bool;

    /// Number of entries.
    fn len(&self) -> usize;

    /// Entry `i`; a leaf holds only leaf entries, an internal node only
    /// children.
    fn entry(&self, i: usize) -> EntryView<'_, Self::Ref, Self::Item>;

    /// Identity of the node within its source, stable while the source is
    /// borrowed: its address in memory, its page number on disk.
    fn key(&self) -> usize;

    /// True for a node without entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bounding rectangle of all entries; `None` for an empty node.
    fn mbr(&self) -> Option<Rect> {
        let rect = |i| match self.entry(i) {
            EntryView::Leaf(r, _) | EntryView::Child(r, _) => r,
        };
        let mut mbr = (!self.is_empty()).then(|| rect(0).clone())?;
        (1..self.len()).for_each(|i| mbr.union_assign(rect(i)));
        Some(mbr)
    }
}

/// Where an R\*-tree's nodes live.
pub trait NodeSource {
    /// Reference to a node.
    type Ref<'s>: Copy
    where
        Self: 's;
    /// Item of a leaf entry.
    type Item<'s>: Copy
    where
        Self: 's;
    /// A fetched node; dropping it releases what the fetch holds.
    type Node<'s>: NodeView<Ref = Self::Ref<'s>, Item = Self::Item<'s>>
    where
        Self: 's;
    /// Why a fetch failed.
    type Error;

    /// The root reference; `None` when nothing is stored.
    fn root(&self) -> Option<Self::Ref<'_>>;

    /// Fetches one node, counting any buffer-pool hit or miss in `stats`.
    ///
    /// # Errors
    /// Whatever the storage reports for an unreadable or corrupt node.
    fn fetch<'s>(
        &'s self,
        node: Self::Ref<'s>,
        stats: &mut SearchStats,
    ) -> Result<Self::Node<'s>, Self::Error>;

    /// The error for an empty node whose MBR a traversal needs (only a
    /// hostile page file has one; the in-memory tree panics).
    fn empty_node(&self) -> Self::Error;
}

impl<'a, T> NodeView for &'a Node<T> {
    type Ref = &'a Node<T>;
    /// The rectangle rides along: it lives as long as the tree.
    type Item = (&'a Rect, &'a T);

    fn is_leaf(&self) -> bool {
        Node::is_leaf(self)
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn entry(&self, i: usize) -> EntryView<'_, Self::Ref, Self::Item> {
        let node: &'a Node<T> = self;
        match &node.entries[i] {
            Entry::Leaf { rect, item } => EntryView::Leaf(rect, (rect, item)),
            Entry::Node { rect, child } => EntryView::Child(rect, child),
        }
    }

    fn key(&self) -> usize {
        std::ptr::from_ref(*self) as usize
    }
}

impl<T> NodeSource for RStarTree<T> {
    type Ref<'s>
        = &'s Node<T>
    where
        T: 's;
    type Item<'s>
        = (&'s Rect, &'s T)
    where
        T: 's;
    type Node<'s>
        = &'s Node<T>
    where
        T: 's;
    type Error = Infallible;

    fn root(&self) -> Option<&Node<T>> {
        (!self.is_empty()).then_some(&self.root)
    }

    fn fetch<'s>(
        &'s self,
        node: &'s Node<T>,
        _: &mut SearchStats,
    ) -> Result<&'s Node<T>, Infallible> {
        Ok(node)
    }

    fn empty_node(&self) -> Infallible {
        panic!("mbr of empty node")
    }
}
