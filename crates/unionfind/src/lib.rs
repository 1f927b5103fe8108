//! Disjoint-set (union-find) substrates.
//!
//! Two families:
//!
//! * [`seq::DisjointSets`] — sequential parent-array union-find with
//!   pluggable path compression ([`seq::Compression`]): none, full
//!   (two-pass), path halving (the paper's "intermediate pointer
//!   jumping"), and path splitting. Union follows the paper's convention:
//!   the representative with the **smaller vertex ID** wins, so hooking
//!   order never changes the final partition.
//! * [`concurrent::AtomicParents`] — the lock-free concurrent structure at
//!   the heart of ECL-CC: an `AtomicU32` parent per vertex, the paper's
//!   Fig. 5 `find_repres` (path halving with benign races) and Fig. 6
//!   CAS-retry hooking. Its finds are provided methods of
//!   [`concurrent::ParentStore`], which a plain `[Cell<u32>]` implements
//!   too, so the serial and parallel ECL-CC share one body.
//!
//! Both store *parent pointers*; a vertex whose parent is itself is a
//! representative. A chain of parents is a "path"; compression shortens
//! paths without ever changing any vertex's representative.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
pub mod seq;

pub use concurrent::{AtomicParents, ParentStore};
pub use seq::{Compression, DisjointSets};
