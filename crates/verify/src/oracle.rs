//! The oracle vocabulary of the proof stack.
//!
//! The mutation-testing harness (`crates/mutate`) measures whether the
//! proof stack actually detects seeded defects. Each certifier is one
//! *oracle*; a defect is *killed* when at least one oracle rejects it
//! with a witness. The two static oracles — the CDG deadlock verifier
//! and the routing-conformance model checker — are driven against
//! subjects the safe constructors ([`crate::certify`],
//! [`crate::conformance`]) can never build: mutated declarations
//! ([`certify_decl`], [`crate::conformance_with`]), perturbed
//! configurations and deliberately defective policies. The two dynamic
//! oracles (runtime invariant audit, burst watchdog) need the engine and
//! runners, so the harness runs them; the verdict vocabulary here is
//! shared by all four.

use crate::report::{Certificate, VerifyError};
use crate::ring_spec::RingSpec;
use crate::verify_decl;
use ofar_engine::{RingMode, SimConfig};
use ofar_routing::MechanismDeps;
use ofar_topology::{Dragonfly, HamiltonianRing};

/// The four independent correctness oracles of the proof stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OracleKind {
    /// Static channel-dependency-graph deadlock verifier
    /// ([`crate::certify`] / [`crate::verify_decl`]).
    Cdg,
    /// Routing-conformance model checker ([`crate::conformance_with`]):
    /// declaration containment, livelock ranking, observed-graph
    /// re-certification.
    Conformance,
    /// Runtime invariant auditor (the engine's `Auditor` hook) over a
    /// dynamic run.
    Audit,
    /// Burst progress watchdog: deadlock/livelock/partition diagnosis
    /// of a dynamic run.
    Watchdog,
}

impl OracleKind {
    /// Short stable name used in kill-matrix reports.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Cdg => "cdg",
            OracleKind::Conformance => "conformance",
            OracleKind::Audit => "audit",
            OracleKind::Watchdog => "watchdog",
        }
    }
}

/// Outcome of one oracle against one subject.
#[derive(Clone, Debug)]
pub enum OracleVerdict {
    /// The oracle accepted the subject (for a mutant: the defect
    /// *survived* this oracle).
    Pass,
    /// The oracle rejected the subject, naming the witness (cycle,
    /// ranking violation, transition, audit violation or stall).
    Fail {
        /// Human-readable structured witness (the oracle's typed error,
        /// rendered).
        witness: String,
    },
}

impl<T, E: std::fmt::Display> From<Result<T, E>> for OracleVerdict {
    /// An oracle's `Ok` is a pass; its typed error, rendered, is the
    /// witness of a fail.
    fn from(result: Result<T, E>) -> Self {
        match result {
            Ok(_) => OracleVerdict::Pass,
            Err(e) => OracleVerdict::Fail {
                witness: e.to_string(),
            },
        }
    }
}

/// [`crate::certify`] with an explicit (possibly mutated) declaration:
/// validate the configuration, build the topology and escape rings it
/// implies, and discharge the CDG proof obligations for `decl`.
pub fn certify_decl(cfg: &SimConfig, decl: &MechanismDeps) -> Result<Certificate, VerifyError> {
    cfg.validate().map_err(|e| match e {
        ofar_engine::ConfigError::RingBufferNoBubble { cap } => VerifyError::Bubble {
            cap,
            required: 2 * cfg.packet_size,
        },
        other => VerifyError::Config(other),
    })?;
    let topo = Dragonfly::new(cfg.params);
    let rings: Vec<RingSpec> = if cfg.ring == RingMode::None {
        Vec::new()
    } else {
        HamiltonianRing::embed_disjoint(&topo, cfg.escape_rings)
            .iter()
            .map(|r| RingSpec::from_ring(&topo, r))
            .collect()
    };
    verify_decl(&topo, cfg, decl, &rings)
}
