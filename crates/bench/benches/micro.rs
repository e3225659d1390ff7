//! Criterion microbenchmarks for the substrate primitives: HTM access
//! paths, FastTrack checks, vector-clock operations, the replay panel's
//! fan-out, and the instrumentation pass. These measure *simulator*
//! throughput (how fast the reproduction runs), not the modeled cycle
//! costs.
//!
//! Every bench runs in this one process and shares one heap, so a bench
//! that allocates large blocks reads the allocator state the benches
//! before it left (see the `criterion` stand-in's module docs). Two are
//! heap-sensitive: `trace/decode_dedup` (65–68 µs here, 264–308 µs
//! alone) and `mem/store_load_fresh_pages` (614–641 µs here, 127–138 µs
//! alone), on a shared 2-vCPU x86-64 host. Compare them only between
//! runs of this suite.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use txrace::{
    instrument, instrument_pruned, Detector, InstrumentConfig, LocksetConsumer, PanelConsumer,
    RunConfig, SchedKind, Scheme, SiteClassTable, StaticPruneMode,
};
use txrace_hb::{FastTrack, ShadowMode, VectorClock};
use txrace_htm::{HtmConfig, HtmSystem};
use txrace_sim::{
    fan_out, Addr, AddrMap, DirectRuntime, EventLog, FairSched, LockId, Machine, Memory,
    ProgramBuilder, RandomSched, Scheduler, SiteId, ThreadId, TraceConsumer, WriteJournal,
};

fn bench_htm(c: &mut Criterion) {
    let mut g = c.benchmark_group("htm");
    g.bench_function("txn_begin_commit_empty", |b| {
        let mut htm = HtmSystem::new(HtmConfig::default(), 4);
        b.iter(|| {
            htm.xbegin(ThreadId(0)).unwrap();
            htm.xend(ThreadId(0)).unwrap();
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
            htm.xend(ThreadId(0)).unwrap();
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
        let mut j = WriteJournal::default();
        b.iter(|| {
            for i in 0..8u64 {
                mem.store_logged(Addr(i * 8), 999, &mut j);
            }
            j.rollback(&mut mem);
        });
    });
    g.bench_function("journal_commit_8_writes", |b| {
        let mut mem = populated();
        let mut j = WriteJournal::default();
        b.iter(|| {
            for i in 0..8u64 {
                mem.store_logged(Addr(i * 8), 999, &mut j);
            }
            j.clear();
        });
    });
    g.finish();
}

fn bench_paged(c: &mut Criterion) {
    // The two paged address tables from empty, as every run and every
    // decoded log starts them: 64 addresses 40 KB apart, so nearly every
    // first touch allocates a page.
    let addrs: Vec<Addr> = (0..64u64).map(|i| Addr(i * 40_000)).collect();
    c.bench_function("mem/store_load_fresh_pages", |b| {
        b.iter(|| {
            let mut m = Memory::new();
            for (i, &a) in addrs.iter().enumerate() {
                m.store(a, i as u64 + 1);
            }
            addrs.iter().map(|&a| m.load(a)).sum::<u64>()
        });
    });
    c.bench_function("densemap/resolve_first_touch", |b| {
        b.iter(|| {
            let mut m = AddrMap::new();
            for &a in &addrs {
                m.resolve(a);
            }
            addrs.iter().map(|&a| u64::from(m.resolve(a))).sum::<u64>()
        });
    });
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
            ft.acquire(ThreadId(0), SiteId(1), LockId(0));
            ft.release(ThreadId(0), SiteId(1), LockId(0));
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

fn bench_sched(c: &mut Criterion) {
    // One fair-scheduler pick over the five threads of a 4-worker
    // workload (main plus workers), at the workloads' default 10% jitter:
    // the per-step scheduling cost the interpreter pays.
    let runnable: Vec<ThreadId> = (0..5).map(ThreadId).collect();
    let mut g = c.benchmark_group("sched");
    g.bench_function("fair_next_5_threads", |b| {
        let mut s = FairSched::new(7, 0.1);
        b.iter(|| s.next(black_box(&runnable)));
    });
    g.finish();
}

fn bench_exec_floor(c: &mut Criterion) {
    // The interpreter floor on a shipped workload: swaptions built,
    // flattened and stepped to completion under the no-op DirectRuntime
    // and its own fair scheduler, so the time is one scheduler pick plus
    // one instruction dispatch per step, with no detection.
    let w = txrace_workloads::by_name("swaptions", 4).expect("bundled workload");
    let SchedKind::Fair { jitter, slack } = w.sched else {
        panic!("swaptions runs under the fair scheduler");
    };
    let mut g = c.benchmark_group("exec");
    g.bench_function("floor_swaptions", |b| {
        b.iter(|| {
            let mut m = Machine::new(&w.program);
            let mut rt = DirectRuntime::default();
            let mut sched = FairSched::new(42, jitter).with_slack(slack);
            let res = m.run(&mut rt, &mut sched);
            black_box((res.steps, rt.ops))
        });
    });
    g.finish();
}

fn bench_trace(c: &mut Criterion) {
    // The replay pipeline's wire step on a shipped racy workload: one
    // recorded bodytrack run encoded to bytes, and those bytes decoded
    // (and validated) back into a log. Dedup's log adds a sparse final
    // memory of 998 cells, rebuilt on every decode.
    let recorded = |app: &str| {
        let w = txrace_workloads::by_name(app, 4).expect("bundled workload");
        Detector::new(w.config(Scheme::Tsan, 42)).record(&w.program)
    };
    let log = recorded("bodytrack");
    let bytes = log.to_bytes();
    let dedup = recorded("dedup").to_bytes();
    let mut g = c.benchmark_group("trace");
    g.bench_function("encode_bodytrack", |b| {
        b.iter(|| black_box(&log).to_bytes().len());
    });
    g.bench_function("decode_bodytrack", |b| {
        b.iter(|| EventLog::from_bytes(black_box(&bytes)).map(|l| l.len()));
    });
    g.bench_function("decode_dedup", |b| {
        b.iter(|| EventLog::from_bytes(black_box(&dedup)).map(|l| l.len()));
    });
    g.finish();
}

fn bench_replay_panel(c: &mut Criterion) {
    // The replay benchmark's panel on one recorded bodytrack run: full
    // TSan, sampling rates 0.0-1.0, raw FastTrack and lockset, through one
    // fan-out at width 2 (lockset on one group, the fused sweep with raw
    // FastTrack on the other).
    let w = txrace_workloads::by_name("bodytrack", 4).expect("bundled workload");
    let log = Detector::new(w.config(Scheme::Tsan, 42)).record(&w.program);
    let n = log.thread_count();
    let detectors: Vec<Detector> = txrace_bench::rate_sweep()
        .into_iter()
        .map(|s| Detector::new(w.config(s, 42)))
        .collect();
    let cost = w.config(Scheme::Tsan, 42).cost;
    let tsan = Detector::new(w.config(Scheme::Tsan, 42));
    let mut g = c.benchmark_group("replay");
    // One standalone full-TSan replay of the same log: the one-shadow
    // consumer outside any fan-out.
    g.bench_function("tsan_full_bodytrack", |b| {
        b.iter(|| {
            tsan.replay(black_box(&log), tsan.consumer(&w.program))
                .races
                .distinct_count()
        });
    });
    g.bench_function("panel_fanout_bodytrack", |b| {
        b.iter(|| {
            let mut panel: Vec<PanelConsumer> = detectors
                .iter()
                .map(|d| PanelConsumer::Tsan(d.consumer(&w.program)))
                .collect();
            panel.push(PanelConsumer::FastTrack(FastTrack::new(
                n,
                ShadowMode::Exact,
            )));
            panel.push(PanelConsumer::Lockset(LocksetConsumer::new(n, cost)));
            fan_out(black_box(&log), panel, 2).len()
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

fn bench_build(c: &mut Criterion) {
    // Building one generated program through `ProgramBuilder`: three
    // threads of 60 ops with channels, the median `smallprog` shape.
    let cfg = txrace_workloads::GenConfig::default();
    c.bench_function("ir/build_genprog", |b| {
        b.iter(|| txrace_workloads::random_program(black_box(&cfg), 42).site_count());
    });
}

fn bench_static_analysis(c: &mut Criterion) {
    // One generated program with channels, the shape of a `smallprog`
    // job: the flow-sensitive analysis alone, and a TxRace+SA-flow run of
    // the program instrumented against that analysis's table.
    let p = txrace_workloads::random_program(&txrace_workloads::GenConfig::default(), 42);
    let table = SiteClassTable::analyze_flow(&p);
    let d =
        Detector::new(RunConfig::new(Scheme::txrace(), 42).with_prune(StaticPruneMode::FullFlow));
    let icfg = InstrumentConfig::from_knobs(&d.config().knobs);
    let ip = instrument_pruned(&p, &icfg, Some(&table));
    c.bench_function("sa/analyze_flow_genprog", |b| {
        b.iter(|| SiteClassTable::analyze_flow(black_box(&p)));
    });
    c.bench_function("detector/run_instrumented_genprog", |b| {
        b.iter(|| d.run_instrumented(black_box(&ip)).checks);
    });
}

criterion_group!(
    benches,
    bench_htm,
    bench_snapshot,
    bench_paged,
    bench_fasttrack,
    bench_dispatch,
    bench_sched,
    bench_exec_floor,
    bench_trace,
    bench_replay_panel,
    bench_instrument,
    bench_build,
    bench_static_analysis
);
criterion_main!(benches);
