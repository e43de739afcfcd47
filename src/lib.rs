//! # nml-escape-analysis
//!
//! A complete, from-scratch reproduction of **“Escape Analysis on
//! Lists”** (Young Gil Park and Benjamin Goldberg, PLDI 1992) as a Rust
//! workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`syntax`] | the nml language: lexer, parser, AST, pretty printer |
//! | [`types`] | Hindley–Milner inference, `car^s` annotation, monomorphization |
//! | [`escape`] | the paper's analysis: escape domains, abstract semantics, fixpoint engine, global/local tests, sharing, polymorphic invariance |
//! | [`opt`] | the derived optimizations: `DCONS` in-place reuse, stack regions, block allocation |
//! | [`runtime`] | instrumented interpreter: heap, generational mark–sweep GC, regions, provenance (the exact escape semantics, dynamically) |
//!
//! This facade re-exports each crate under a short name and provides the
//! [`pipeline`] API — one `compile` and one `run` entry point — shared by
//! the examples, the `nmlc` driver and the benchmark harness.
//!
//! ## Quick start
//!
//! ```
//! use nml_escape_analysis::escape::analyze_source;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let analysis = analyze_source(
//!     "letrec append x y = if (null x) then y
//!                          else cons (car x) (append (cdr x) y)
//!      in append [1] [2]",
//! )?;
//! println!("{analysis}");
//! // append: param 1 -> G = <1,0>   (all but the top spine escapes)
//! //         param 2 -> G = <1,1>   (everything escapes)
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub use nml_escape as escape;
pub use nml_opt as opt;
pub use nml_runtime as runtime;
pub use nml_serve as serve;
pub use nml_syntax as syntax;
pub use nml_types as types;

pub mod corpus;
pub mod pipeline;
pub mod report;
