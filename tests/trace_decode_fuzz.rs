//! The trace decoder under corruption: a mutated encoding of a recorded
//! log either fails to decode, or decodes to a log that re-encodes to the
//! very same bytes and replays without panicking through FastTrack, a
//! TSan consumer, and a fused fan-out panel (the TSan sweep, raw
//! FastTrack, lockset and the vector-clock reference).
//!
//! Logs are recorded from generated programs (locks, conditions and
//! channels on), then mutated by bit flips, truncations, perturbed event
//! ids and threads, and inflated header words. Run it in release mode for
//! a quick pass over many cases:
//!
//! ```text
//! cargo test --release -p txrace --test trace_decode_fuzz
//! ```

use proptest::prelude::*;
use txrace::{CostModel, LocksetConsumer, PanelConsumer, TsanConsumer};
use txrace_hb::{FastTrack, ShadowMode, VectorClockDetector};
use txrace_sim::{
    fan_out, record_run, EventLog, RandomSched, StepLimit, TraceEvent, MAX_LOG_LOCKS,
    MAX_LOG_THREADS,
};
use txrace_workloads::{random_program, GenConfig};

/// One corruption of an encoded log.
#[derive(Debug, Clone)]
enum Mutation {
    /// Flip bit `bit` of the byte at `at` (modulo the length).
    BitFlip { at: u64, bit: u8 },
    /// Keep only the first `len` bytes (modulo the length).
    Truncate { len: u64 },
    /// Overwrite the arg of event `event` (modulo the count) with `arg`.
    EventArg { event: u64, arg: u32 },
    /// Overwrite the thread of event `event` with `thread`.
    EventThread { event: u64, thread: u16 },
    /// Overwrite header word `word` (thread count or one of the four
    /// declared id counts) with `value`.
    HeaderWord { word: usize, value: u64 },
}

/// Values near the decoder's bounds, plus arbitrary ones.
fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..8,
        Just(MAX_LOG_THREADS),
        Just(MAX_LOG_THREADS + 1),
        Just(MAX_LOG_LOCKS),
        Just(MAX_LOG_LOCKS + 1),
        Just(1 << 32),
        Just(u64::MAX),
        any::<u64>(),
    ]
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        3 => (any::<u64>(), 0u8..8).prop_map(|(at, bit)| Mutation::BitFlip { at, bit }),
        1 => any::<u64>().prop_map(|len| Mutation::Truncate { len }),
        3 => (
            any::<u64>(),
            prop_oneof![0u32..8, Just(u32::MAX), any::<u32>()]
        )
            .prop_map(|(event, arg)| Mutation::EventArg { event, arg }),
        1 => (any::<u64>(), prop_oneof![0u16..8, Just(u16::MAX)])
            .prop_map(|(event, thread)| Mutation::EventThread { event, thread }),
        2 => (2usize..7, edge_u64()).prop_map(|(word, value)| Mutation::HeaderWord { word, value }),
    ]
}

/// The encoding of one generated program's recorded run, and the byte
/// offset of its first event: events sit just before the final-memory
/// section (a cell count, then 16 bytes per cell).
fn recorded(gen_seed: u64, sched_seed: u64) -> (Vec<u8>, usize, usize) {
    let p = random_program(&GenConfig::default(), gen_seed);
    let log = record_run(&p, &mut RandomSched::new(sched_seed), StepLimit::default());
    let bytes = log.to_bytes();
    let cells = 8 + 16 * log.final_memory().len();
    let events_at = bytes.len() - cells - TraceEvent::BYTES * log.len();
    (bytes, events_at, log.len())
}

fn apply(bytes: &mut Vec<u8>, events_at: usize, events: usize, m: &Mutation) {
    let event = |i: u64| events_at + TraceEvent::BYTES * (i % events.max(1) as u64) as usize;
    match *m {
        Mutation::BitFlip { at, bit } if !bytes.is_empty() => {
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << bit;
        }
        Mutation::BitFlip { .. } => {}
        Mutation::Truncate { len } => {
            let len = (len % (bytes.len() as u64 + 1)) as usize;
            bytes.truncate(len);
        }
        Mutation::EventArg { event: i, arg } if events > 0 => {
            let at = event(i) + 8;
            if at + 4 <= bytes.len() {
                bytes[at..at + 4].copy_from_slice(&arg.to_le_bytes());
            }
        }
        Mutation::EventThread { event: i, thread } if events > 0 => {
            let at = event(i) + 2;
            if at + 2 <= bytes.len() {
                bytes[at..at + 2].copy_from_slice(&thread.to_le_bytes());
            }
        }
        Mutation::EventArg { .. } | Mutation::EventThread { .. } => {}
        Mutation::HeaderWord { word, value } => {
            let at = 8 * word;
            if at + 8 <= bytes.len() {
                bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
        }
    }
}

/// A TSan consumer for `n` threads: full TSan for `None`, else sampling
/// at `rate` from one seed.
fn tsan(n: usize, rate: Option<f64>) -> TsanConsumer {
    TsanConsumer::new(n, CostModel::default(), 1.0, ShadowMode::Exact, rate, 7)
}

/// Replays `log` through the detectors a replay pipeline runs, sized
/// from the decoded header: FastTrack and a sampled TSan consumer on
/// their own, then a panel through [`fan_out`] at width 2, which runs
/// the TSan members and raw FastTrack as one fused sweep beside lockset
/// and the vector-clock reference, and must leave the fused members as
/// their standalone replays left them.
fn replay_all(log: &EventLog) {
    let n = log.thread_count();
    let mut ft = FastTrack::new(n, ShadowMode::Exact);
    log.replay(&mut ft);
    let mut sampled = tsan(n, Some(0.5));
    log.replay(&mut sampled);
    let panel = vec![
        PanelConsumer::Tsan(tsan(n, None)),
        PanelConsumer::Tsan(tsan(n, Some(0.1))),
        PanelConsumer::Tsan(tsan(n, Some(0.5))),
        PanelConsumer::FastTrack(FastTrack::new(n, ShadowMode::Exact)),
        PanelConsumer::Lockset(LocksetConsumer::new(n, CostModel::default())),
        PanelConsumer::VcRef(VectorClockDetector::new(n)),
    ];
    let fanned = fan_out(log, panel, 2);
    assert_eq!(fanned.len(), 6);
    // The fused members equal their standalone replays.
    let alone = [
        (2, PanelConsumer::Tsan(sampled)),
        (3, PanelConsumer::FastTrack(ft)),
    ];
    for (i, want) in alone {
        assert_eq!(fanned[i].consumer.fingerprint(), want.fingerprint());
    }
}

/// The unmutated logs decode, so a mutant's rejection is the mutation's
/// doing.
#[test]
fn unmutated_logs_round_trip() {
    for seed in 0..8 {
        let (bytes, ..) = recorded(seed, seed);
        let log = EventLog::from_bytes(&bytes).expect("a recorded log decodes");
        assert_eq!(log.to_bytes(), bytes);
        replay_all(&log);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn corrupted_logs_are_rejected_or_replay_cleanly(
        gen_seed in 0u64..64,
        sched_seed in 0u64..16,
        mutations in proptest::collection::vec(mutation(), 1..4),
    ) {
        let (mut bytes, events_at, events) = recorded(gen_seed, sched_seed);
        for m in &mutations {
            apply(&mut bytes, events_at, events, m);
        }
        if let Ok(log) = EventLog::from_bytes(&bytes) {
            prop_assert!(log.to_bytes() == bytes, "{mutations:?}: re-encoding differs");
            replay_all(&log);
        }
    }
}
