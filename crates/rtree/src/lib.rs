//! # tsq-rtree — R\*-tree substrate for similarity-based time-series queries
//!
//! A from-scratch implementation of the R\*-tree (Beckmann, Kriegel,
//! Schneider, Seeger, SIGMOD 1990), the index the paper *Similarity-Based
//! Queries for Time Series Data* (Rafiei & Mendelzon, SIGMOD 1997) builds
//! on. The pieces the paper's Algorithms 1 and 2 need are first-class:
//!
//! - [`RStarTree::search_with`] exposes every stored MBR to a caller-supplied
//!   acceptance test, so a safe transformation can be applied to the index
//!   *on the fly* during traversal (Algorithm 1's `I' = T(I)` without
//!   materializing `I'`);
//! - [`RStarTree::nearest_with`] runs best-first nearest-neighbor search
//!   with pluggable lower-bound metrics (MINDIST et al., Roussopoulos 1995),
//!   again allowing transformed metrics;
//! - [`join::spatial_join`] prunes all-pairs queries through both trees with
//!   per-side rectangle transforms;
//! - [`RStarTree::bulk_load`] packs a whole relation with STR;
//! - every query returns [`stats::SearchStats`], whose node-visit counter
//!   stands in for the paper's disk-access measurements.
//!
//! The tree stores arbitrary payloads under dynamic-dimensional rectangles
//! ([`rect::Rect`]); leaf entries may be points (degenerate rectangles),
//! which is how feature vectors are stored by `tsq-core`.
//!
//! Storage comes in two modes. The default keeps every node in memory.
//! [`paged::PagedTree`] stores one node per fixed-size page in a file
//! behind a pin-counted SLRU [`page::BufferPool`], so an index larger
//! than memory still works. Both are a [`source::NodeSource`] — a root
//! reference plus a node fetch — and range search
//! ([`search::search_source`]), best-first kNN ([`knn::nearest_source`])
//! and the synchronized join ([`join::join_sources`]) are each written
//! once over that seam. The paged node-visit counters therefore measure
//! the same code as the in-memory ones, and the paged fetch adds
//! *measured* pool hit/miss counts to [`stats::SearchStats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod config;
pub mod join;
pub mod knn;
pub mod page;
pub mod paged;
pub mod persist;
pub mod rect;
pub mod search;
pub mod source;
pub mod stats;
pub mod tree;

pub mod par;

mod node;
mod split;

pub use config::RTreeConfig;
pub use join::{join_sources, spatial_join, spatial_join_with, Slot};
pub use knn::{nearest_source, Neighbor};
pub use page::{BufferPool, PageId};
pub use paged::PagedTree;
pub use rect::Rect;
pub use search::search_source;
pub use source::{EntryView, NodeSource, NodeView};
pub use stats::{LevelStats, SearchStats};
pub use tree::RStarTree;
