//! `ofar-analyze` — the executable schedule-commutativity certifier
//! ([`race`], the `ofar-race` binary; DESIGN.md §16) and the small JSON
//! reader/escaper its verdict artifact goes through ([`json`]).
//!
//! The determinism, hot-path and snapshot-completeness contracts this
//! crate used to lint are held by clippy and rustc themselves
//! (DESIGN.md §13).

#![warn(missing_docs)]

pub mod json;
pub mod race;
