//! Reusable program-construction patterns shared by the application
//! models: worker scaffolding, plain per-iteration work,
//! capacity-overflowing walks, and hot shared lines.

use txrace_sim::{
    elem, Addr, InterruptModel, ProgramBuilder, SyscallKind, ThreadBuilder, ThreadId,
};

/// The private part of one worker iteration: `accesses` alternating
/// reads/writes over the worker's scratch area plus `compute` cycles.
#[derive(Debug, Clone, Copy)]
pub struct IterBody {
    /// Private accesses per iteration.
    pub accesses: usize,
    /// Compute cycles per iteration.
    pub compute: u32,
    /// Worker-private scratch base (at least `accesses` words).
    pub scratch: Addr,
}

impl IterBody {
    /// Emits one iteration's private work.
    pub fn emit(&self, tb: &mut ThreadBuilder<'_>) {
        for a in 0..self.accesses {
            if a % 2 == 0 {
                tb.read(elem(self.scratch, a));
            } else {
                tb.write(elem(self.scratch, a), a as u64);
            }
        }
        if self.compute > 0 {
            tb.compute(self.compute);
        }
    }
}

/// `n` iterations, each its own transaction (cut by a trailing syscall):
/// the shape of PARSEC's I/O-in-loop workers (swaptions, streamcluster).
pub fn syscall_iters(tb: &mut ThreadBuilder<'_>, n: u32, body: &IterBody) {
    let b = *body;
    tb.loop_n(n, move |tb| {
        b.emit(tb);
        tb.syscall(SyscallKind::Io);
    });
}

/// An inner loop writing `writes` array slots spaced `line_stride` cache
/// lines apart — with a stride that aliases cache sets this overflows the
/// HTM write structure after `ways * (sets / gcd)` writes, modelling the
/// big-footprint loops behind capacity aborts. The loop is pure, so the
/// instrumentation pass gives it a loop-cut probe.
pub fn capacity_walk(tb: &mut ThreadBuilder<'_>, arr: Addr, writes: u32, line_stride: u64) {
    tb.loop_n(writes, move |tb| {
        tb.write_arr(arr, line_stride * 64, 1);
        tb.compute(1);
    });
}

/// One atomic increment of a hot shared counter: a benign conflict source
/// (HTM conflicts on it; the race detector correctly ignores atomics).
pub fn hot_rmw(tb: &mut ThreadBuilder<'_>, counter: Addr) {
    tb.rmw(counter, 1);
}

/// A straight-line region whose write footprint overflows the HTM write
/// structure — capacity aborts that recur on every execution because
/// there is no loop for the loop-cut optimization to split. The region is
/// closed by a syscall. `arr` must span `writes * line_stride` lines.
pub fn straight_capacity_region(
    tb: &mut ThreadBuilder<'_>,
    arr: Addr,
    writes: u32,
    line_stride: u64,
) {
    for k in 0..u64::from(writes) {
        tb.write(arr.offset(k * line_stride * 64), 1);
    }
    tb.syscall(SyscallKind::Io);
}

/// The hot-race weave: `blocks` repetitions of `k - 1` plain iterations
/// followed by one iteration that also performs a labeled access to
/// `var`. The racy site executes `blocks` times spread across the whole
/// stream, so no matter how abort rollbacks skew thread positions, some
/// writer instance overlaps some reader instance — which is exactly how
/// hot races behave in the real applications.
#[allow(clippy::too_many_arguments)]
pub fn woven_racy_iters(
    tb: &mut ThreadBuilder<'_>,
    blocks: u32,
    k: u32,
    body: &IterBody,
    var: Addr,
    label: &str,
    is_writer: bool,
) {
    let b = *body;
    tb.loop_n(blocks, |tb| {
        tb.loop_n(k.saturating_sub(1).max(1), |tb| {
            b.emit(tb);
            tb.syscall(SyscallKind::Io);
        });
        b.emit(tb);
        if is_writer {
            tb.write_l(var, 1, label);
        } else {
            tb.read_l(var, label);
        }
        for a in 0..3 {
            tb.read(elem(b.scratch, a));
        }
        tb.syscall(SyscallKind::Io);
    });
}

/// Emits the main thread: a single-threaded prologue, spawning `workers`
/// workers (threads `1..=workers`), joining them, and an epilogue. The
/// prologue/epilogue are candidates for the pass's single-threaded-mode
/// elision.
pub fn main_scaffold(
    b: &mut ProgramBuilder,
    workers: usize,
    prologue_accesses: u32,
    epilogue_accesses: u32,
) {
    let setup = b.array("main_setup", prologue_accesses.max(1) as usize);
    {
        let mut tb = b.thread(0);
        if prologue_accesses > 0 {
            tb.loop_n(prologue_accesses, move |tb| {
                tb.write_arr(setup, 8, 1);
                tb.compute(2);
            });
        }
        for w in 1..=workers {
            tb.spawn(ThreadId(w as u32));
        }
        for w in 1..=workers {
            tb.join(ThreadId(w as u32));
        }
        if epilogue_accesses > 0 {
            tb.loop_n(epilogue_accesses, move |tb| {
                tb.read_arr(setup, 8);
                tb.compute(2);
            });
        }
    }
}

/// Interrupt rates at a given worker count. Rates are specified for the
/// paper's 4-worker baseline; 2 workers see slightly fewer OS events and
/// 8 workers (hyperthread-saturated) dramatically more — the paper
/// measured 5–9x more unknown aborts at 8 threads (§8.2, Figure 8).
pub fn scaled_interrupts(
    context_switch_p: f64,
    transient_p: f64,
    workers: usize,
) -> InterruptModel {
    let f = match workers {
        0..=2 => 0.7,
        3..=4 => 1.0,
        5..=6 => 2.0,
        _ => 7.0,
    };
    InterruptModel {
        context_switch_p: context_switch_p * f,
        transient_p: transient_p * f,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txrace_sim::{DirectRuntime, Machine, Program, RoundRobin, RunStatus};

    fn run(p: &Program) -> RunStatus {
        let mut m = Machine::new(p);
        let mut rt = DirectRuntime::default();
        let mut s = RoundRobin::new();
        m.run(&mut rt, &mut s).status
    }

    #[test]
    fn scaffold_spawns_and_joins() {
        let mut b = ProgramBuilder::new(3);
        main_scaffold(&mut b, 2, 5, 5);
        let s0 = b.array("s0", 8);
        let s1 = b.array("s1", 8);
        let body0 = IterBody {
            accesses: 4,
            compute: 2,
            scratch: s0,
        };
        let body1 = IterBody {
            accesses: 4,
            compute: 2,
            scratch: s1,
        };
        syscall_iters(&mut b.thread(1), 3, &body0);
        syscall_iters(&mut b.thread(2), 3, &body1);
        let p = b.build();
        assert!(p.starts_parked(ThreadId(1)));
        assert_eq!(run(&p), RunStatus::Done);
    }

    #[test]
    fn capacity_walk_touches_distinct_lines() {
        let mut b = ProgramBuilder::new(1);
        let arr = b.array("arr", 64 * 9 * 8); // room for stride-8-line walk
        let mut tb = b.thread(0);
        capacity_walk(&mut tb, arr, 16, 8);
        let p = b.build();
        let mut m = Machine::new(&p);
        let mut rt = DirectRuntime::default();
        let mut s = RoundRobin::new();
        assert_eq!(m.run(&mut rt, &mut s).status, RunStatus::Done);
        // 16 writes at 8-line stride: lines 0, 8, ..., 120 of the array.
        let touched: Vec<u64> = m.memory().iter().map(|(a, _)| a.0).collect();
        assert_eq!(touched.len(), 16);
        assert!(touched.windows(2).all(|w| w[1] - w[0] == 8 * 64));
    }

    #[test]
    fn scaled_interrupts_blow_up_at_eight() {
        let base = scaled_interrupts(0.01, 0.0, 4);
        let eight = scaled_interrupts(0.01, 0.0, 8);
        let two = scaled_interrupts(0.01, 0.0, 2);
        assert!(eight.context_switch_p > 5.0 * base.context_switch_p);
        assert!(two.context_switch_p < base.context_switch_p);
    }
}
