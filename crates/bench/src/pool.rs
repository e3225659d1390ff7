//! The pool width of the benchmark binaries.
//!
//! Every table/figure in the evaluation is a grid of independent
//! (workload × seed × config) cells; each cell is a deterministic
//! detector run. The binaries fan the cells across cores with
//! [`txrace_sim::par_map`], which returns results **in input order**, so
//! the rendered report is byte-identical to a serial run regardless of
//! width or completion order.

/// The pool width used by the benchmark binaries: `TXRACE_POOL` if set
/// (0 or 1 forces serial execution), otherwise the machine's available
/// parallelism.
pub fn pool_width() -> usize {
    if let Ok(v) = std::env::var("TXRACE_POOL") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_sim::par_map;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..97).collect();
        let f = |i: usize, x: &u64| x.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
        let serial = par_map(1, &items, f);
        for workers in [2, 3, 8, 64] {
            assert_eq!(serial, par_map(workers, &items, f), "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(par_map(8, Vec::<u32>::new(), |_, x| x).is_empty());
        assert_eq!(par_map(8, [7u32], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn pool_width_is_positive() {
        assert!(pool_width() >= 1);
    }
}
