//! Criterion microbenchmarks for the substrate primitives: HTM access
//! paths, FastTrack checks, vector-clock operations, and the
//! instrumentation pass. These measure *simulator* throughput (how fast
//! the reproduction runs), not the modeled cycle costs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use txrace::{instrument, InstrumentConfig};
use txrace_hb::{FastTrack, ShadowMode, VectorClock};
use txrace_htm::{HtmConfig, HtmSystem};
use txrace_sim::{
    Addr, DirectRuntime, LockId, Machine, Memory, ProgramBuilder, RandomSched, SiteId, ThreadId,
    WriteJournal,
};

fn bench_htm(c: &mut Criterion) {
    let mut g = c.benchmark_group("htm");
    g.bench_function("txn_begin_commit_empty", |b| {
        let mut htm = HtmSystem::new(HtmConfig::default(), 4);
        let mut mem = Memory::new();
        b.iter(|| {
            htm.xbegin(ThreadId(0)).unwrap();
            htm.xend(ThreadId(0), &mut mem).unwrap();
        });
    });
    g.bench_function("txn_8_writes_commit", |b| {
        let mut htm = HtmSystem::new(HtmConfig::default(), 4);
        let mut mem = Memory::new();
        b.iter(|| {
            htm.xbegin(ThreadId(0)).unwrap();
            for i in 0..8u64 {
                htm.write(ThreadId(0), &mut mem, Addr(0x1000 + i * 64), i);
            }
            htm.xend(ThreadId(0), &mut mem).unwrap();
        });
    });
    g.bench_function("conflict_scan_4_active_txns", |b| {
        let mut htm = HtmSystem::new(HtmConfig::default(), 5);
        let mut mem = Memory::new();
        for t in 0..4 {
            htm.xbegin(ThreadId(t)).unwrap();
            let _ = htm.read(ThreadId(t), &mut mem, Addr(0x2000 + u64::from(t) * 64));
        }
        b.iter(|| {
            // Non-conflicting non-transactional read scans all four txns.
            black_box(htm.read(ThreadId(4), &mut mem, Addr(0x9000)));
        });
    });
    g.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    // Journal rollback and commit over a populated memory: both pay
    // O(stores in the speculative region), never O(heap).
    let mut g = c.benchmark_group("snapshot");
    let populated = || {
        let mut m = Memory::new();
        for i in 0..4096u64 {
            m.store(Addr(i * 8), i);
        }
        m
    };
    g.bench_function("journal_rollback_8_writes", |b| {
        let mut mem = populated();
        let mut j = WriteJournal::new();
        b.iter(|| {
            let mark = j.mark();
            for i in 0..8u64 {
                mem.store_logged(Addr(i * 8), 999, &mut j);
            }
            j.rollback_to(&mut mem, mark);
        });
    });
    g.bench_function("journal_commit_8_writes", |b| {
        let mut mem = populated();
        let mut j = WriteJournal::new();
        b.iter(|| {
            let mark = j.mark();
            for i in 0..8u64 {
                mem.store_logged(Addr(i * 8), 999, &mut j);
            }
            j.commit_to(mark);
        });
    });
    g.finish();
}

fn bench_fasttrack(c: &mut Criterion) {
    let mut g = c.benchmark_group("fasttrack");
    g.bench_function("read_same_epoch", |b| {
        let mut ft = FastTrack::new(4, ShadowMode::Exact);
        ft.read(ThreadId(0), SiteId(1), Addr(0x100));
        b.iter(|| ft.read(ThreadId(0), SiteId(1), Addr(0x100)));
    });
    g.bench_function("write_alternating_threads", |b| {
        let mut ft = FastTrack::new(4, ShadowMode::Exact);
        let mut t = 0u32;
        b.iter(|| {
            // Alternating same-address writes: the racy path with a report
            // dedup hit each time after the first.
            ft.write(ThreadId(t % 4), SiteId(t % 4 + 1), Addr(0x200));
            t += 1;
        });
    });
    g.bench_function("lock_acquire_release", |b| {
        let mut ft = FastTrack::new(4, ShadowMode::Exact);
        b.iter(|| {
            ft.lock_acquire(ThreadId(0), LockId(0));
            ft.lock_release(ThreadId(0), LockId(0));
        });
    });
    g.bench_function("vector_clock_join_16", |b| {
        let mut a = VectorClock::zero(16);
        let mut other = VectorClock::zero(16);
        for t in 0..16 {
            other.inc(ThreadId(t));
        }
        b.iter(|| a.join(black_box(&other)));
    });
    g.finish();
}

fn bench_dispatch(c: &mut Criterion) {
    // Interpreter dispatch over the packed 16-byte instruction stream:
    // a loop-heavy 4-thread program stepped end-to-end under the no-op
    // DirectRuntime, so the measurement is decode + dispatch + scheduler,
    // not detection. This is the hot loop the packed `Instr` layout and
    // hot-first `InstrKind` ordering exist for.
    let mut b = ProgramBuilder::new(4);
    let l = b.lock_id("l");
    for t in 0..4 {
        let arr = b.array(&format!("a{t}"), 64);
        b.thread(t).loop_n(200, |tb| {
            for i in 0..8 {
                tb.read(txrace_sim::elem(arr, i));
                tb.write(txrace_sim::elem(arr, i), i as u64);
            }
            tb.lock(l).rmw(txrace_sim::elem(arr, 0), 1).unlock(l);
            tb.compute(4);
        });
    }
    let p = b.build();

    let mut g = c.benchmark_group("dispatch");
    g.bench_function("machine_step_loop_heavy_4x200", |bch| {
        bch.iter(|| {
            let mut m = Machine::new(black_box(&p));
            let mut rt = DirectRuntime::default();
            let mut sched = RandomSched::new(7);
            let res = m.run(&mut rt, &mut sched);
            black_box((res.steps, rt.ops))
        });
    });
    g.finish();
}

fn bench_instrument(c: &mut Criterion) {
    let mut b = ProgramBuilder::new(4);
    let l = b.lock_id("l");
    for t in 0..4 {
        let arr = b.array(&format!("a{t}"), 64);
        b.thread(t).loop_n(100, |tb| {
            for i in 0..8 {
                tb.read(txrace_sim::elem(arr, i));
            }
            tb.lock(l).write(txrace_sim::elem(arr, 0), 1).unlock(l);
            tb.syscall(txrace_sim::SyscallKind::Io);
        });
    }
    let p = b.build();
    c.bench_function("instrument/transactionalize_4x100_regions", |bch| {
        bch.iter(|| instrument(black_box(&p), &InstrumentConfig::default()));
    });
}

criterion_group!(
    benches,
    bench_htm,
    bench_snapshot,
    bench_fasttrack,
    bench_dispatch,
    bench_instrument
);
criterion_main!(benches);
