//! Where a [`crate::SimilarityIndex`] keeps its R\*-tree nodes: one
//! storage value that is itself a [`NodeSource`], so every traversal is
//! one call whatever the storage.

use std::sync::Arc;

use tsq_rtree::page::PagePin;
use tsq_rtree::paged::PagedNode;
use tsq_rtree::{EntryView, NodeSource, NodeView, PagedTree, RStarTree, SearchStats};

use crate::error::Error;

/// The node storage of one index.
#[derive(Debug, Clone)]
pub(crate) enum Nodes {
    Memory(RStarTree<usize>),
    /// Shared so clones reuse one pool (and its cumulative counters).
    Paged(Arc<PagedTree>),
}

#[derive(Clone, Copy)]
pub(crate) enum NodesRef<'s> {
    Memory(<RStarTree<usize> as NodeSource>::Ref<'s>),
    Paged(<PagedTree as NodeSource>::Ref<'s>),
}

pub(crate) enum NodesNode<'s> {
    Memory(<RStarTree<usize> as NodeSource>::Node<'s>),
    Paged(PagePin<'s, PagedNode>),
}

impl<'s> NodeView for NodesNode<'s> {
    type Ref = NodesRef<'s>;
    type Item = usize;

    fn is_leaf(&self) -> bool {
        match self {
            NodesNode::Memory(node) => node.is_leaf(),
            NodesNode::Paged(node) => node.is_leaf(),
        }
    }

    fn len(&self) -> usize {
        match self {
            NodesNode::Memory(node) => node.len(),
            NodesNode::Paged(node) => node.len(),
        }
    }

    fn entry(&self, i: usize) -> EntryView<'_, NodesRef<'s>, usize> {
        match self {
            NodesNode::Memory(node) => match node.entry(i) {
                EntryView::Leaf(rect, (_, &id)) => EntryView::Leaf(rect, id),
                EntryView::Child(rect, child) => EntryView::Child(rect, NodesRef::Memory(child)),
            },
            NodesNode::Paged(node) => match node.entry(i) {
                EntryView::Leaf(rect, id) => EntryView::Leaf(rect, id as usize),
                EntryView::Child(rect, child) => EntryView::Child(rect, NodesRef::Paged(child)),
            },
        }
    }

    fn key(&self) -> usize {
        match self {
            NodesNode::Memory(node) => node.key(),
            NodesNode::Paged(node) => node.key(),
        }
    }
}

impl NodeSource for Nodes {
    type Ref<'s> = NodesRef<'s>;
    type Item<'s> = usize;
    type Node<'s> = NodesNode<'s>;
    type Error = Error;

    fn root(&self) -> Option<NodesRef<'_>> {
        match self {
            Nodes::Memory(tree) => tree.root().map(NodesRef::Memory),
            Nodes::Paged(paged) => paged.root().map(NodesRef::Paged),
        }
    }

    fn fetch<'s>(
        &'s self,
        node: NodesRef<'s>,
        stats: &mut SearchStats,
    ) -> Result<NodesNode<'s>, Error> {
        Ok(match (self, node) {
            (Nodes::Memory(tree), NodesRef::Memory(node)) => {
                let Ok(node) = tree.fetch(node, stats);
                NodesNode::Memory(node)
            }
            (Nodes::Paged(paged), NodesRef::Paged(node)) => {
                NodesNode::Paged(paged.fetch(node, stats)?)
            }
            _ => unreachable!("a node reference of the other storage"),
        })
    }

    fn empty_node(&self) -> Error {
        match self {
            Nodes::Memory(_) => unreachable!("traversals never fetch an empty in-memory node"),
            Nodes::Paged(paged) => paged.empty_node().into(),
        }
    }
}
