//! The workspace's one thread-count policy.
//!
//! [`effective_threads`] is the audited `available_parallelism` call every
//! thread-count knob in the workspace resolves through (`0` means "one worker
//! per core", anything else is taken literally, and the result is never below
//! 1 even when the OS refuses to answer). What runs on those workers lives
//! with its owner: the k-NN scan and the k-means assignment in `mogul-graph`,
//! concurrent shard builds in `mogul-core`, batch serving in `mogul-serve`.
//! The factorization ([`crate::ldl`]) is a serial row recurrence.

/// Resolve a requested worker count against the machine.
///
/// `0` asks for one worker per available core; any other value is used as
/// given. The result is always at least 1: when the OS cannot report its
/// parallelism (`available_parallelism` fails on some restricted
/// environments), the fallback is a single worker, never zero.
///
/// Every `available_parallelism` call site in the workspace funnels through
/// here so the fallback policy cannot drift between crates.
pub fn effective_threads(requested: usize) -> usize {
    let resolved = if requested == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        requested
    };
    resolved.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_threads_policy() {
        // Explicit requests are taken literally.
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(7), 7);
        // Auto is at least one worker, at most "something sane".
        let auto = effective_threads(0);
        assert!(auto >= 1);
        assert!(auto <= 4096);
    }
}
