//! Helpers shared by the root integration tests.

use h2cloud::H2Config;

/// `base` with group commit, the read path (full-path cache, negative
/// cache, hedged reads) and the CAS content plane all switched `on` or all
/// switched off. Suites that loop over `[false, true]` run the plain
/// configuration and the one with every optional mechanism enabled.
pub fn with_knobs(base: H2Config, on: bool) -> H2Config {
    H2Config {
        group_commit: on,
        path_cache: on,
        neg_cache: on,
        hedged_reads: on,
        cas: on,
        ..base
    }
}
