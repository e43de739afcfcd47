//! Errors of the escape analysis.

use crate::budget::Resource;
use nml_syntax::{NodeId, SyntaxError};
use nml_types::TypeError;
use std::fmt;

/// A failure inside the abstract interpreter or the escape tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EscapeError {
    /// The fixpoint iteration exceeded its pass budget.
    FixpointDiverged {
        /// Passes executed before giving up.
        passes: u32,
    },
    /// An escape test was requested for a name that is not a top-level
    /// binding.
    UnknownFunction {
        /// The requested name.
        name: String,
    },
    /// An escape test was requested with a parameter index out of range.
    BadParameterIndex {
        /// The requested (0-based) index.
        index: usize,
        /// The function's arity.
        arity: usize,
    },
    /// The analysis-wide [`crate::budget::Budget`] ran out. The caller can
    /// (and [`crate::analyze_source_with`] does) degrade the affected function
    /// to the sound worst-case summary instead of failing.
    BudgetExhausted {
        /// The resource that ran out first.
        resource: Resource,
        /// Usage at trip time (milliseconds for the wall clock).
        used: u64,
        /// The configured limit, in the same unit.
        limit: u64,
    },
    /// A `car` node carried neither a `car^s` annotation nor a usable
    /// type. The engine recovers soundly (it treats the `car` as the
    /// identity, an over-approximation since `sub^s` is reductive) but
    /// reports the inconsistency instead of panicking.
    MissingSpineAnnotation {
        /// The offending node.
        node: NodeId,
    },
    /// An application reached a lambda node that is not part of the
    /// engine's program (foreign or synthesized AST). The engine recovers
    /// soundly by treating the callee as the worst-case function.
    UnknownLambda {
        /// The offending node.
        node: NodeId,
    },
}

impl fmt::Display for EscapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EscapeError::FixpointDiverged { passes } => {
                write!(f, "escape fixpoint did not converge within {passes} passes")
            }
            EscapeError::UnknownFunction { name } => {
                write!(f, "`{name}` is not a top-level function")
            }
            EscapeError::BadParameterIndex { index, arity } => {
                write!(f, "parameter index {index} out of range for arity {arity}")
            }
            EscapeError::BudgetExhausted {
                resource,
                used,
                limit,
            } => {
                write!(
                    f,
                    "analysis budget exhausted: {resource} used {used} of {limit}"
                )
            }
            EscapeError::MissingSpineAnnotation { node } => {
                write!(f, "car node {node} has no spine annotation")
            }
            EscapeError::UnknownLambda { node } => {
                write!(f, "lambda node {node} is not part of the analyzed program")
            }
        }
    }
}

impl std::error::Error for EscapeError {}

/// Any failure of the full front-to-back pipeline
/// (parse → infer → analyze).
#[derive(Debug, Clone)]
pub enum AnalyzeError {
    /// Lexing/parsing failed.
    Syntax(SyntaxError),
    /// Type inference failed.
    Type(TypeError),
    /// The analysis itself failed.
    Escape(EscapeError),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Syntax(e) => write!(f, "syntax error: {e}"),
            AnalyzeError::Type(e) => write!(f, "type error: {e}"),
            AnalyzeError::Escape(e) => write!(f, "escape analysis error: {e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalyzeError::Syntax(e) => Some(e),
            AnalyzeError::Type(e) => Some(e),
            AnalyzeError::Escape(e) => Some(e),
        }
    }
}

impl From<SyntaxError> for AnalyzeError {
    fn from(e: SyntaxError) -> Self {
        AnalyzeError::Syntax(e)
    }
}

impl From<TypeError> for AnalyzeError {
    fn from(e: TypeError) -> Self {
        AnalyzeError::Type(e)
    }
}

impl From<EscapeError> for AnalyzeError {
    fn from(e: EscapeError) -> Self {
        AnalyzeError::Escape(e)
    }
}
