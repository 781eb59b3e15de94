//! Observability hooks for the index substrates.
//!
//! `coax-index` sits *below* `coax-core` in the dependency graph, so it
//! cannot record into `coax_core::obs` directly; the work a probe does
//! travels up in its [`crate::ScanStats`] instead.
//!
//! The [`kernel_span!`](crate::kernel_span) macro marks the scan kernel:
//! an instrumentation point that compiles to nothing, so the tile loops
//! carry zero observability overhead while still marking where a future
//! recorder (or an `--features kernel-trace` build) would attach.

/// A compile-to-nothing span marker for the scan kernel's hot loops.
///
/// The kernel's tile loops are the innermost code in the system; even a
/// disabled-recorder branch is unwelcome there. This macro accepts an
/// arbitrary label token-tree and expands to nothing, so the
/// instrumentation points are part of the source (and a tracing build
/// can redefine them) while the release binary is bit-for-bit free of
/// them.
#[macro_export]
macro_rules! kernel_span {
    ($($label:tt)*) => {};
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_span_expands_to_nothing() {
        kernel_span!(unit_test_label);
        kernel_span!("any" tokens 42);
    }
}
