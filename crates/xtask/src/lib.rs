//! `xtask` — workspace automation, dependency-free by design (the build
//! environment has no registry access).
//!
//! Its one task is **h2lint** (`cargo run -p xtask -- lint`), a parsed,
//! dataflow-aware static analyzer that enforces the workspace's
//! concurrency, virtual-time, and observability invariants (DESIGN.md
//! "Static analysis"). It runs in two passes: [`parse`] recovers item
//! structure from the [`lexer`] token stream, [`dataflow`] computes
//! workspace-global facts — the lock-rank table **inferred** from
//! `OrderedMutex`/`OrderedRwLock` construction sites, one-level
//! interprocedural fn summaries, the metric-name vocabulary, and the
//! cloud-op list derived from the `CloudFs`/`ObjectStore` traits — then
//! [`rules`] lints every file against them:
//!
//! * `lock-order` — ranked locks acquired in strictly increasing rank
//!   order, guard liveness modeled through bindings/shadowing/scope exit,
//!   including one-level interprocedural checks.
//! * `guard-across-blocking` — no ranked guard live across a
//!   virtual-time-charging op, gossip send, retry loop, or wall sleep.
//! * `vtime-accounting` — cloud-op helpers charge virtual time on every
//!   success path, never the same primitive class twice per path.
//! * `metrics-hygiene` — metric names at emission sites come from the
//!   shared const vocabulary, not string literals.
//! * `panic-safety` — no `.unwrap()`/`.expect()` on lock results or
//!   cloud-op `Result`s outside test code.
//! * `determinism` — wall-clock reads and real sleeps only in the
//!   `h2util::clock` facade.
//!
//! The gate is zero findings: any finding fails; [`sarif`] renders the
//! result set for CI artifact upload. Findings are suppressed by a
//! justified allow comment on the same line or the line above; see README
//! "Static analysis". Nested directories whose `Cargo.toml` declares its
//! own `[workspace]` are separate workspaces and are not walked.

pub mod config;
pub mod dataflow;
pub mod lexer;
pub mod lint;
pub mod parse;
pub mod rules;
pub mod sarif;
