//! Distributed XML design: distributed documents and typing verification.
//!
//! This crate is the paper's centerpiece layer (Sections 3–7 of *Distributed
//! XML Design*, Abiteboul, Gottlob, Manna, PODS '09), built on the string
//! automata of `dxml-automata`, the trees and tree automata of `dxml-tree`
//! and the schema languages of `dxml-schema`. It has one decision engine
//! and a DTD front end over it:
//!
//! * [`DistributedDoc`] — a kernel document whose leaves may be typed
//!   function calls (docking points), with snapshot materialisation;
//! * [`BoxDesignProblem`] — the engine (Section 7): a target **R-EDTD** plus
//!   an R-EDTD per function, with typing verification by tree-automaton
//!   inclusion of the extension language ([`BoxDesignProblem::typecheck`],
//!   with counterexample documents), the string route over the determinised
//!   specialised alphabet whose constant parts are kernel boxes `B(fn)`
//!   ([`BoxDesignProblem::verify_local`]) and perfect typing
//!   ([`BoxDesignProblem::perfect_schema`]);
//! * [`DesignProblem`] — the DTD front end (Sections 3–6): a DTD is the
//!   R-EDTD in which each name is its own specialisation, so the problem
//!   holds that embedding and [`DesignProblem::typecheck`] runs on it. What
//!   it adds is phrased in DTD terms: violations explained by the DTD's own
//!   validation, the string walk [`DesignProblem::verify_local`] with
//!   counterexample words, and [`DesignProblem::perfect_schema`] (Section
//!   6), the most permissive DTD function schema for which the design still
//!   typechecks, synthesised by residual construction with a
//!   counterexample-driven refinement loop;
//! * [`validate_batch`] — a batch front end fanning one-pass streaming
//!   SDTD validation of many documents over all cores, with per-document
//!   panic isolation.
//!
//! Every decision procedure has a governed `*_with_budget` variant
//! ([`DesignProblem::typecheck_with_budget`],
//! [`BoxDesignProblem::perfect_schema_with_budget`],
//! [`validate_batch_with_budget`], …) taking a
//! [`Budget`](dxml_automata::Budget): step/state/node quotas, a depth
//! limit, a wall-clock deadline and cooperative cancellation, surfacing
//! [`DesignError::BudgetExceeded`] without poisoning the problem's caches.
//!
//! The problem-derived artefacts are computed once and cached by what they
//! depend on. The determinised target depends on the target schema alone:
//! the engine builds it once and shares it across clones, so a DTD problem,
//! its embedding and every copy with more functions use one automaton.
//! Gap languages, extension automata and the DTD walk's
//! [`design::TargetCache`] (content NFAs, productive names, reduced function
//! schemas) depend on the function schemas as well and are rebuilt after
//! `add_function`. See [`boxes::BoxTargetCache`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod boxes;
pub mod design;
pub mod doc;
pub mod error;
pub mod perfect;

pub use batch::{validate_batch, validate_batch_with_budget};
pub use boxes::{BoxDesignProblem, BoxTargetCache, BoxVerdict, BoxViolation};
pub use design::{
    CacheStats, DesignProblem, LocalVerdict, LocalViolation, Origin, ReducedFun, TargetCache,
    TypingVerdict,
};
pub use doc::DistributedDoc;
pub use error::DesignError;
