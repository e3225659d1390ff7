//! The simulated HTM: transaction slots, conflict detection, capacity
//! model, and commit/abort.

use txrace_sim::{Addr, CacheLine, InterruptKind, Memory, ThreadId};

use crate::status::{AbortReason, AbortStatus};
use crate::txn::{Txn, TxnState};

/// How a transaction's stores are versioned while it is in flight.
///
/// Both policies are observationally equivalent — doom order, abort
/// statistics, and every value any non-doomed access observes are
/// bit-identical (verified by `tests/rollback_equivalence.rs`) — they
/// differ only in what the simulator pays per access and per abort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VersionPolicy {
    /// Eager in-place stores under a per-transaction undo journal
    /// ([`txrace_sim::WriteJournal`]): transaction begin is an O(1)
    /// journal mark, commit an O(1) truncate, rollback O(stores in the
    /// transaction) — and transactional *reads* are plain memory loads
    /// (no store-buffer lookup). The default.
    #[default]
    Undo,
    /// Lazy write buffering: stores accumulate in a per-transaction
    /// buffer and reach memory only at commit. The previous
    /// implementation, kept as the equivalence oracle for the undo path.
    Buffer,
}

impl VersionPolicy {
    /// True when stores go to memory eagerly under an undo journal.
    pub fn is_eager(self) -> bool {
        self == VersionPolicy::Undo
    }
}

/// Hardware parameters of the simulated HTM.
///
/// Defaults model a Haswell L1D: transactional *writes* must fit the
/// 32 KiB 8-way L1 (64 sets of 8 ways of 64-byte lines); *reads* can spill
/// to a larger structure but are still bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HtmConfig {
    /// Number of cache sets available to the transactional write set.
    pub write_sets: usize,
    /// Associativity of each write-set cache set.
    pub write_ways: usize,
    /// Maximum distinct lines in the read set.
    pub read_set_max_lines: usize,
    /// Maximum simultaneously active transactions (hardware threads).
    pub max_concurrent_txns: usize,
    /// Future-hardware feature (the paper's §9 TxIntro/RaceTM direction):
    /// report the conflicting cache line to the aborted transaction.
    /// Commodity RTM does not do this; keep `false` for fidelity.
    pub report_conflict_address: bool,
    /// How in-flight stores are versioned (undo journal vs write buffer);
    /// observationally equivalent, see [`VersionPolicy`].
    pub version: VersionPolicy,
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig {
            write_sets: 64,
            write_ways: 8,
            read_set_max_lines: 4096,
            max_concurrent_txns: 8,
            report_conflict_address: false,
            version: VersionPolicy::default(),
        }
    }
}

/// Why `xbegin` refused to start a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XbeginError {
    /// The thread already has a transaction in flight (TxRace never nests).
    Nested,
    /// All hardware transaction slots are busy.
    NoSlot,
}

impl std::fmt::Display for XbeginError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XbeginError::Nested => f.write_str("transaction already in flight on this thread"),
            XbeginError::NoSlot => f.write_str("no hardware transaction slot available"),
        }
    }
}

impl std::error::Error for XbeginError {}

/// Aggregate transaction statistics, matching the columns of the paper's
/// Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HtmStats {
    /// Transactions that committed.
    pub committed: u64,
    /// Aborts whose status had the CONFLICT bit.
    pub conflict_aborts: u64,
    /// Aborts whose status had the CAPACITY bit.
    pub capacity_aborts: u64,
    /// Aborts with an empty status word.
    pub unknown_aborts: u64,
    /// Aborts with only the RETRY bit.
    pub retry_aborts: u64,
    /// Aborts raised by `xabort`.
    pub explicit_aborts: u64,
}

impl HtmStats {
    /// Total aborts of any kind.
    pub fn total_aborts(&self) -> u64 {
        self.conflict_aborts
            + self.capacity_aborts
            + self.unknown_aborts
            + self.retry_aborts
            + self.explicit_aborts
    }
}

/// One conflict event, as recorded by the [`ConflictOracle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictRecord {
    /// The thread whose access won (requester-wins).
    pub requester: ThreadId,
    /// The transaction that was doomed.
    pub victim: ThreadId,
    /// The contended cache line.
    pub line: CacheLine,
    /// Whether the requester itself was inside a transaction (false means
    /// a strong-isolation conflict with non-transactional code).
    pub requester_in_txn: bool,
}

/// Test-only visibility into conflicts.
///
/// Real RTM reports none of this; the TxRace engine must never consult it.
/// It exists so tests can verify invariants like "overlapping conflicting
/// transactions always produce a conflict abort".
#[derive(Debug, Clone, Default)]
pub struct ConflictOracle {
    records: Vec<ConflictRecord>,
}

impl ConflictOracle {
    /// All conflicts so far, in occurrence order.
    pub fn records(&self) -> &[ConflictRecord] {
        &self.records
    }

    /// The most recent conflict.
    pub fn last(&self) -> Option<&ConflictRecord> {
        self.records.last()
    }

    /// Clears the record log.
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

/// One hardware transaction context: the bookkeeping structure is owned
/// permanently by its thread's slot and reset in place between
/// transactions, so `xbegin`/`xend` never move or allocate it.
#[derive(Debug, Default)]
struct Slot {
    txn: Txn,
    /// True while a transaction (active or doomed) occupies this slot.
    /// When false, `txn` is pristine (freshly reset).
    in_flight: bool,
}

/// The simulated best-effort HTM. See the crate docs for semantics.
#[derive(Debug)]
pub struct HtmSystem {
    cfg: HtmConfig,
    slots: Vec<Slot>,
    /// Number of in-flight slots (kept in sync for the conflict fast exit).
    active: usize,
    /// Per-raw-line count of in-flight transactions (including doomed
    /// ones) tracking the line in their read set. Together with
    /// `line_writers` this gives conflict scans an O(1) "no conflict
    /// possible" answer without probing every slot.
    line_readers: Vec<u8>,
    /// Per-raw-line count of in-flight transactions tracking the line in
    /// their write set.
    line_writers: Vec<u8>,
    stats: HtmStats,
    oracle: ConflictOracle,
}

impl HtmSystem {
    /// Creates an HTM for `threads` logical threads.
    pub fn new(cfg: HtmConfig, threads: usize) -> Self {
        HtmSystem {
            cfg,
            slots: (0..threads).map(|_| Slot::default()).collect(),
            active: 0,
            line_readers: Vec::new(),
            line_writers: Vec::new(),
            stats: HtmStats::default(),
            oracle: ConflictOracle::default(),
        }
    }

    /// Pre-sizes every slot's write buffer and line bitsets for a
    /// program whose raw addresses are below `addr_capacity` and raw
    /// cache-line indices below `line_capacity` (both available from
    /// `txrace_sim::Interner`), so the hot path never grows a table's
    /// top level.
    pub fn reserve_capacity(&mut self, addr_capacity: usize, line_capacity: usize) {
        for slot in &mut self.slots {
            slot.txn.read_lines.reserve(line_capacity);
            slot.txn.write_lines.reserve(line_capacity);
            slot.txn.write_buf.reserve(addr_capacity);
        }
        if self.line_readers.len() < line_capacity {
            self.line_readers.resize(line_capacity, 0);
            self.line_writers.resize(line_capacity, 0);
        }
    }

    /// Increments a per-line occupancy counter, growing the table for
    /// lines beyond the reserved capacity.
    #[inline]
    fn bump(counts: &mut Vec<u8>, line: CacheLine) {
        let li = line.0 as usize;
        if li >= counts.len() {
            counts.resize(li + 1, 0);
        }
        counts[li] += 1;
    }

    /// Returns a finished transaction's tracked lines to the occupancy
    /// counters (called with the slot's sets still intact, before reset).
    fn release_lines(readers: &mut [u8], writers: &mut [u8], txn: &Txn) {
        for l in txn.read_lines.iter() {
            readers[l.0 as usize] -= 1;
        }
        for l in txn.write_lines.iter() {
            writers[l.0 as usize] -= 1;
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &HtmConfig {
        &self.cfg
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &HtmStats {
        &self.stats
    }

    /// The testing oracle (never consulted by the detection engine).
    pub fn oracle(&self) -> &ConflictOracle {
        &self.oracle
    }

    /// Clears the oracle log.
    pub fn oracle_clear(&mut self) {
        self.oracle.clear();
    }

    /// Number of transactions currently occupying hardware slots.
    pub fn active_txn_count(&self) -> usize {
        self.active
    }

    /// The state of thread `t`'s transaction slot.
    pub fn txn_state(&self, t: ThreadId) -> TxnState {
        let slot = &self.slots[t.index()];
        if slot.in_flight {
            slot.txn.state()
        } else {
            TxnState::Idle
        }
    }

    /// True if `t` has a transaction in flight (active or doomed).
    pub fn in_txn(&self, t: ThreadId) -> bool {
        self.slots[t.index()].in_flight
    }

    /// The doom status of `t`'s transaction, if the hardware aborted it.
    pub fn is_doomed(&self, t: ThreadId) -> Option<AbortStatus> {
        let slot = &self.slots[t.index()];
        if slot.in_flight {
            slot.txn.doom
        } else {
            None
        }
    }

    /// The conflicting cache line of `t`'s doomed transaction, if the
    /// hardware is configured to report it
    /// ([`HtmConfig::report_conflict_address`]). Always `None` on the
    /// commodity configuration.
    pub fn conflict_line_hint(&self, t: ThreadId) -> Option<CacheLine> {
        if !self.cfg.report_conflict_address {
            return None;
        }
        let slot = &self.slots[t.index()];
        if slot.in_flight {
            slot.txn.conflict_line
        } else {
            None
        }
    }

    /// Data accesses performed inside `t`'s current transaction.
    pub fn txn_accesses(&self, t: ThreadId) -> u64 {
        let slot = &self.slots[t.index()];
        if slot.in_flight {
            slot.txn.accesses
        } else {
            0
        }
    }

    /// Distinct cache lines in `t`'s current transactional footprint
    /// (read set ∪ write set).
    pub fn txn_footprint_lines(&self, t: ThreadId) -> usize {
        let slot = &self.slots[t.index()];
        if slot.in_flight {
            slot.txn.footprint_lines()
        } else {
            0
        }
    }

    /// Starts a transaction on thread `t`.
    ///
    /// # Errors
    ///
    /// [`XbeginError::Nested`] if `t` already has one in flight;
    /// [`XbeginError::NoSlot`] if all hardware contexts are busy.
    pub fn xbegin(&mut self, t: ThreadId) -> Result<(), XbeginError> {
        if self.slots[t.index()].in_flight {
            return Err(XbeginError::Nested);
        }
        if self.active_txn_count() >= self.cfg.max_concurrent_txns {
            return Err(XbeginError::NoSlot);
        }
        // The slot's bookkeeping was reset when its last transaction
        // finished, so starting one is just flipping the flag and taking
        // an O(1) journal watermark — never O(state).
        let slot = &mut self.slots[t.index()];
        slot.in_flight = true;
        slot.txn.begin = slot.txn.journal.mark();
        self.active += 1;
        Ok(())
    }

    /// Ends thread `t`'s transaction: makes its stores permanent (for the
    /// journaled policies they are already in memory, so commit is an O(1)
    /// truncate; under [`VersionPolicy::Buffer`] the buffered writes are
    /// applied here), or reports the abort status.
    ///
    /// # Errors
    ///
    /// The abort status, if the transaction was doomed. The slot is freed
    /// either way.
    ///
    /// # Panics
    ///
    /// Panics if `t` has no transaction in flight.
    pub fn xend(&mut self, t: ThreadId, mem: &mut Memory) -> Result<(), AbortStatus> {
        let eager = self.cfg.version.is_eager();
        let slot = &mut self.slots[t.index()];
        assert!(slot.in_flight, "xend without a transaction in flight");
        slot.in_flight = false;
        let result = match slot.txn.doom {
            Some(status) => Err(status),
            None => {
                if eager {
                    // Journaled stores are already in memory; committing
                    // is retiring the undo entries (`reset` truncates).
                    let begin = slot.txn.begin;
                    slot.txn.journal.commit_to(begin);
                } else {
                    for (addr, val) in slot.txn.write_buf.entries() {
                        mem.store(addr, val);
                    }
                }
                Ok(())
            }
        };
        let slot = &self.slots[t.index()];
        Self::release_lines(&mut self.line_readers, &mut self.line_writers, &slot.txn);
        self.slots[t.index()].txn.reset();
        self.active -= 1;
        if result.is_ok() {
            self.stats.committed += 1;
        }
        result
    }

    /// Consumes a doomed transaction after the thread observed the abort,
    /// returning its status. This models the control transfer to the
    /// `xbegin` fallback path.
    ///
    /// # Panics
    ///
    /// Panics if `t`'s transaction is not doomed.
    pub fn abort_rollback(&mut self, t: ThreadId) -> AbortStatus {
        let slot = &mut self.slots[t.index()];
        assert!(slot.in_flight, "abort_rollback without a transaction");
        let status = slot
            .txn
            .doom
            .expect("abort_rollback of a healthy transaction");
        slot.in_flight = false;
        let slot = &self.slots[t.index()];
        Self::release_lines(&mut self.line_readers, &mut self.line_writers, &slot.txn);
        self.slots[t.index()].txn.reset();
        self.active -= 1;
        status
    }

    /// Explicitly aborts `t`'s transaction with the given code.
    ///
    /// # Panics
    ///
    /// Panics if `t` has no transaction in flight.
    pub fn xabort(&mut self, t: ThreadId, mem: &mut Memory, code: u8) {
        assert!(self.in_txn(t), "xabort outside a transaction");
        self.doom(mem, t, AbortStatus::explicit_with_code(code));
    }

    /// Delivers a simulated OS interrupt to thread `t`; any in-flight
    /// transaction aborts (unknown status for context switches, RETRY for
    /// transient events).
    pub fn interrupt(&mut self, t: ThreadId, mem: &mut Memory, kind: InterruptKind) {
        if self.slots[t.index()].in_flight {
            let status = match kind {
                InterruptKind::ContextSwitch => AbortStatus::UNKNOWN,
                InterruptKind::Transient => AbortStatus::RETRY,
            };
            self.doom(mem, t, status);
        }
    }

    /// Performs a read by `t` (transactional if `t` is in a transaction,
    /// non-transactional otherwise), returning the value observed.
    ///
    /// Takes `&mut Memory` because requester-wins conflict detection may
    /// doom another transaction, and under the journaled policies dooming
    /// unwinds the victim's eager stores before this read observes memory.
    pub fn read(&mut self, t: ThreadId, mem: &mut Memory, addr: Addr) -> u64 {
        let line = addr.line();
        let eager = self.cfg.version.is_eager();
        let slot = &self.slots[t.index()];
        match (slot.in_flight, slot.txn.doom) {
            (true, None) => {
                // Active transaction: requester-wins against others' writes.
                self.conflict_scan(mem, t, line, false, true);
                let cap = self.cfg.read_set_max_lines;
                let txn = &mut self.slots[t.index()].txn;
                txn.accesses += 1;
                if !txn.read_lines.contains(line) {
                    if txn.read_lines.len() >= cap {
                        // Capture before the self-doom: dooming unwinds
                        // this transaction's own journal.
                        let val = if eager {
                            mem.load(addr)
                        } else {
                            txn.write_buf.get(addr).unwrap_or_else(|| mem.load(addr))
                        };
                        self.doom(mem, t, AbortStatus::CAPACITY);
                        return val;
                    }
                    txn.read_lines.insert(line);
                    Self::bump(&mut self.line_readers, line);
                }
                if eager {
                    // Own stores are already in place: a transactional
                    // read is a plain load, no buffer lookup.
                    mem.load(addr)
                } else {
                    let txn = &self.slots[t.index()].txn;
                    txn.write_buf.get(addr).unwrap_or_else(|| mem.load(addr))
                }
            }
            (true, Some(_)) => {
                // Zombie execution inside a doomed transaction: no coherence
                // effects. Under the journaled policies the undo log was
                // unwound at doom time, so memory is the pre-transaction
                // state; under buffering the dead buffer still answers.
                if eager {
                    mem.load(addr)
                } else {
                    slot.txn
                        .write_buf
                        .get(addr)
                        .unwrap_or_else(|| mem.load(addr))
                }
            }
            (false, _) => {
                // Non-transactional read: strong isolation dooms writers
                // (and unwinds their journals) before the load.
                self.conflict_scan(mem, t, line, false, false);
                mem.load(addr)
            }
        }
    }

    /// Performs a write by `t` (journaled in place or buffered if
    /// transactional, per the version policy; direct otherwise).
    pub fn write(&mut self, t: ThreadId, mem: &mut Memory, addr: Addr, val: u64) {
        let line = addr.line();
        let eager = self.cfg.version.is_eager();
        let slot = &self.slots[t.index()];
        match (slot.in_flight, slot.txn.doom) {
            (true, None) => {
                self.conflict_scan(mem, t, line, true, true);
                if !self.reserve_write_line(mem, t, line) {
                    return; // capacity doom; store never becomes visible
                }
                let txn = &mut self.slots[t.index()].txn;
                txn.accesses += 1;
                if eager {
                    mem.store_logged(addr, val, &mut txn.journal);
                } else {
                    txn.write_buf.insert(addr, val);
                }
            }
            (true, Some(_)) => {
                // Zombie store: under journaling it simply vanishes (the
                // undo log is already unwound and must stay retired);
                // under buffering it lands in the dead buffer.
                if !eager {
                    let txn = &mut self.slots[t.index()].txn;
                    txn.write_buf.insert(addr, val);
                }
            }
            (false, _) => {
                self.conflict_scan(mem, t, line, true, false);
                mem.store(addr, val);
            }
        }
    }

    /// Performs an atomic fetch-add by `t`, returning the previous value.
    pub fn rmw(&mut self, t: ThreadId, mem: &mut Memory, addr: Addr, delta: u64) -> u64 {
        let line = addr.line();
        let eager = self.cfg.version.is_eager();
        let slot = &self.slots[t.index()];
        match (slot.in_flight, slot.txn.doom) {
            (true, None) => {
                self.conflict_scan(mem, t, line, true, true);
                // Reads and writes the line.
                let cap = self.cfg.read_set_max_lines;
                {
                    let txn = &mut self.slots[t.index()].txn;
                    if !txn.read_lines.contains(line) && txn.read_lines.len() >= cap {
                        // Pre-doom capture: the self-doom below unwinds
                        // this transaction's own journal.
                        let old = if eager {
                            mem.load(addr)
                        } else {
                            txn.write_buf.get(addr).unwrap_or_else(|| mem.load(addr))
                        };
                        self.doom(mem, t, AbortStatus::CAPACITY);
                        return old;
                    }
                    if txn.read_lines.insert(line) {
                        Self::bump(&mut self.line_readers, line);
                    }
                }
                let old = if eager {
                    mem.load(addr)
                } else {
                    let txn = &self.slots[t.index()].txn;
                    txn.write_buf.get(addr).unwrap_or_else(|| mem.load(addr))
                };
                if !self.reserve_write_line(mem, t, line) {
                    return old;
                }
                let txn = &mut self.slots[t.index()].txn;
                txn.accesses += 1;
                if eager {
                    mem.store_logged(addr, old.wrapping_add(delta), &mut txn.journal);
                } else {
                    txn.write_buf.insert(addr, old.wrapping_add(delta));
                }
                old
            }
            (true, Some(_)) => {
                // Zombie rmw: observe without publishing (see `write`).
                if eager {
                    mem.load(addr)
                } else {
                    let txn = &mut self.slots[t.index()].txn;
                    let old = txn.write_buf.get(addr).unwrap_or_else(|| mem.load(addr));
                    txn.write_buf.insert(addr, old.wrapping_add(delta));
                    old
                }
            }
            (false, _) => {
                self.conflict_scan(mem, t, line, true, false);
                let old = mem.load(addr);
                mem.store(addr, old.wrapping_add(delta));
                old
            }
        }
    }

    /// Adds `line` to `t`'s write set, dooming `t` with CAPACITY if the
    /// L1-shaped structure overflows. Returns false on doom.
    fn reserve_write_line(&mut self, mem: &mut Memory, t: ThreadId, line: CacheLine) -> bool {
        let (sets, ways) = (self.cfg.write_sets, self.cfg.write_ways);
        let txn = &mut self.slots[t.index()].txn;
        if txn.write_lines.contains(line) {
            return true;
        }
        let set = line.0 as usize % sets;
        if txn.set_occupancy.is_empty() {
            txn.set_occupancy = vec![0; sets];
        }
        if usize::from(txn.set_occupancy[set]) >= ways {
            self.doom(mem, t, AbortStatus::CAPACITY);
            return false;
        }
        txn.set_occupancy[set] += 1;
        txn.write_lines.insert(line);
        Self::bump(&mut self.line_writers, line);
        true
    }

    /// Requester-wins conflict detection: dooms every *other* active
    /// transaction whose tracked lines conflict with this access.
    fn conflict_scan(
        &mut self,
        mem: &mut Memory,
        requester: ThreadId,
        line: CacheLine,
        is_write: bool,
        in_txn: bool,
    ) {
        // Fast exit for the overwhelmingly common case: no *other*
        // transaction is in flight, so nothing can conflict.
        let req = &self.slots[requester.index()];
        let others = self.active - usize::from(req.in_flight);
        if others == 0 {
            return;
        }
        // Second fast exit: the occupancy counters say no transaction
        // other than the requester tracks this line in a conflicting way.
        // The counters overcount (they include doomed transactions), so a
        // zero here is exact while a nonzero only licenses the full scan.
        let li = line.0 as usize;
        let writers = i32::from(self.line_writers.get(li).copied().unwrap_or(0));
        let (own_r, own_w) = if req.in_flight {
            (
                i32::from(req.txn.read_lines.contains(line)),
                i32::from(req.txn.write_lines.contains(line)),
            )
        } else {
            (0, 0)
        };
        let possible = if is_write {
            let readers = i32::from(self.line_readers.get(li).copied().unwrap_or(0));
            readers > own_r || writers > own_w
        } else {
            writers > own_w
        };
        if !possible {
            return;
        }
        for i in 0..self.slots.len() {
            if i == requester.index() {
                continue;
            }
            let slot = &self.slots[i];
            let conflicts = slot.in_flight
                && slot.txn.doom.is_none()
                && if is_write {
                    slot.txn.read_lines.contains(line) || slot.txn.write_lines.contains(line)
                } else {
                    slot.txn.write_lines.contains(line)
                };
            if conflicts {
                let victim = ThreadId(i as u32);
                self.doom(mem, victim, AbortStatus::CONFLICT | AbortStatus::RETRY);
                self.slots[i].txn.conflict_line.get_or_insert(line);
                self.oracle.records.push(ConflictRecord {
                    requester,
                    victim,
                    line,
                    requester_in_txn: in_txn,
                });
            }
        }
    }

    /// Marks `victim`'s transaction aborted and updates statistics. The
    /// first doom wins; later ones do not overwrite the status.
    ///
    /// Under the journaled policies this is also where isolation is
    /// restored: the victim's undo log is unwound to its begin watermark
    /// *before* the requester's own access proceeds, so no thread ever
    /// observes a doomed transaction's stores.
    fn doom(&mut self, mem: &mut Memory, victim: ThreadId, status: AbortStatus) {
        let eager = self.cfg.version.is_eager();
        let slot = &mut self.slots[victim.index()];
        assert!(slot.in_flight, "dooming a thread without a transaction");
        let txn = &mut slot.txn;
        if txn.doom.is_some() {
            return;
        }
        txn.doom = Some(status);
        if eager {
            let begin = txn.begin;
            txn.journal.rollback_to(mem, begin);
        }
        match status.reason() {
            AbortReason::Conflict => self.stats.conflict_aborts += 1,
            AbortReason::Capacity => self.stats.capacity_aborts += 1,
            AbortReason::Unknown => self.stats.unknown_aborts += 1,
            AbortReason::Retry => self.stats.retry_aborts += 1,
            AbortReason::Explicit => self.stats.explicit_aborts += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);
    const T2: ThreadId = ThreadId(2);

    fn fresh(threads: usize) -> (HtmSystem, Memory) {
        (HtmSystem::new(HtmConfig::default(), threads), Memory::new())
    }

    fn fresh_with(version: VersionPolicy, threads: usize) -> (HtmSystem, Memory) {
        let cfg = HtmConfig {
            version,
            ..HtmConfig::default()
        };
        (HtmSystem::new(cfg, threads), Memory::new())
    }

    fn line_addr(line: u64) -> Addr {
        CacheLine(line).base()
    }

    #[test]
    fn buffered_committed_writes_become_visible_atomically() {
        // Buffer is the only policy where uncommitted stores are invisible
        // to a direct memory probe (under journaling they are in place and
        // isolation comes from doom-time rollback instead).
        let (mut htm, mut mem) = fresh_with(VersionPolicy::Buffer, 1);
        htm.xbegin(T0).unwrap();
        htm.write(T0, &mut mem, line_addr(1), 11);
        htm.write(T0, &mut mem, line_addr(2), 22);
        assert_eq!(mem.load(line_addr(1)), 0);
        assert_eq!(mem.load(line_addr(2)), 0);
        htm.xend(T0, &mut mem).unwrap();
        assert_eq!(mem.load(line_addr(1)), 11);
        assert_eq!(mem.load(line_addr(2)), 22);
        assert_eq!(htm.stats().committed, 1);
    }

    #[test]
    fn journaled_stores_land_eagerly_and_unwind_on_doom() {
        let (mut htm, mut mem) = fresh(2);
        mem.store(line_addr(1), 7);
        htm.xbegin(T0).unwrap();
        htm.write(T0, &mut mem, line_addr(1), 11);
        htm.write(T0, &mut mem, line_addr(2), 22);
        assert_eq!(mem.load(line_addr(1)), 11, "journaled store is in place");
        assert_eq!(mem.load(line_addr(2)), 22);
        // A conflicting non-transactional store dooms T0; the undo log
        // unwinds before the requester's store lands.
        htm.write(T1, &mut mem, line_addr(2), 99);
        assert_eq!(mem.load(line_addr(1)), 7, "old value restored");
        assert_eq!(mem.load(line_addr(2)), 99, "requester's store wins");
        assert!(htm.xend(T0, &mut mem).is_err());
    }

    #[test]
    fn journaled_commit_keeps_stores_in_place() {
        let (mut htm, mut mem) = fresh(1);
        htm.xbegin(T0).unwrap();
        htm.write(T0, &mut mem, line_addr(1), 11);
        htm.xend(T0, &mut mem).unwrap();
        assert_eq!(mem.load(line_addr(1)), 11);
        assert_eq!(htm.stats().committed, 1);
        // The retired journal must not unwind a later doom's rollback past
        // the committed store.
        htm.xbegin(T0).unwrap();
        htm.write(T0, &mut mem, line_addr(1), 12);
        htm.interrupt(T0, &mut mem, InterruptKind::ContextSwitch);
        assert_eq!(mem.load(line_addr(1)), 11, "rollback stops at commit");
        assert!(htm.xend(T0, &mut mem).is_err());
    }

    #[test]
    fn transaction_reads_its_own_writes() {
        let (mut htm, mut mem) = fresh(1);
        mem.store(line_addr(1), 5);
        htm.xbegin(T0).unwrap();
        assert_eq!(htm.read(T0, &mut mem, line_addr(1)), 5);
        htm.write(T0, &mut mem, line_addr(1), 9);
        assert_eq!(htm.read(T0, &mut mem, line_addr(1)), 9);
    }

    #[test]
    fn write_write_conflict_dooms_victim_requester_wins() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        htm.xbegin(T1).unwrap();
        htm.write(T0, &mut mem, line_addr(3), 1);
        htm.write(T1, &mut mem, line_addr(3), 2); // requester: T1 wins
        assert!(htm.is_doomed(T0).is_some());
        assert!(htm.is_doomed(T1).is_none());
        assert!(htm.is_doomed(T0).unwrap().contains(AbortStatus::CONFLICT));
        assert!(htm.is_doomed(T0).unwrap().contains(AbortStatus::RETRY));
        assert!(htm.xend(T1, &mut mem).is_ok());
        assert_eq!(
            htm.xend(T0, &mut mem).unwrap_err().reason(),
            AbortReason::Conflict
        );
        assert_eq!(mem.load(line_addr(3)), 2);
    }

    #[test]
    fn read_write_conflict_dooms_reader_when_writer_requests() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        htm.xbegin(T1).unwrap();
        let _ = htm.read(T0, &mut mem, line_addr(4));
        htm.write(T1, &mut mem, line_addr(4), 1);
        assert!(htm.is_doomed(T0).is_some());
        assert!(htm.is_doomed(T1).is_none());
    }

    #[test]
    fn write_read_conflict_dooms_writer_when_reader_requests() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        htm.xbegin(T1).unwrap();
        htm.write(T0, &mut mem, line_addr(4), 1);
        let _ = htm.read(T1, &mut mem, line_addr(4));
        assert!(
            htm.is_doomed(T0).is_some(),
            "writer loses to reader-requester"
        );
        assert!(htm.is_doomed(T1).is_none());
    }

    #[test]
    fn read_read_never_conflicts() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        htm.xbegin(T1).unwrap();
        let _ = htm.read(T0, &mut mem, line_addr(4));
        let _ = htm.read(T1, &mut mem, line_addr(4));
        assert!(htm.is_doomed(T0).is_none());
        assert!(htm.is_doomed(T1).is_none());
    }

    #[test]
    fn false_sharing_conflicts_at_line_granularity() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        htm.xbegin(T1).unwrap();
        // Distinct variables, same 64-byte line.
        htm.write(T0, &mut mem, line_addr(7), 1);
        htm.write(T1, &mut mem, line_addr(7).offset(8), 2);
        assert!(htm.is_doomed(T0).is_some(), "false sharing must conflict");
    }

    #[test]
    fn distinct_lines_do_not_conflict() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        htm.xbegin(T1).unwrap();
        htm.write(T0, &mut mem, line_addr(8), 1);
        htm.write(T1, &mut mem, line_addr(9), 2);
        assert!(htm.is_doomed(T0).is_none());
        assert!(htm.is_doomed(T1).is_none());
    }

    #[test]
    fn strong_isolation_nontx_write_aborts_readers() {
        let (mut htm, mut mem) = fresh(3);
        htm.xbegin(T0).unwrap();
        htm.xbegin(T1).unwrap();
        let flag = line_addr(12);
        let _ = htm.read(T0, &mut mem, flag);
        let _ = htm.read(T1, &mut mem, flag);
        // T2 is NOT in a transaction; its plain store must doom both.
        htm.write(T2, &mut mem, flag, 1);
        assert!(htm.is_doomed(T0).is_some());
        assert!(htm.is_doomed(T1).is_some());
        assert_eq!(mem.load(flag), 1, "non-tx store goes straight to memory");
        let recs = htm.oracle().records();
        assert!(recs.iter().all(|r| !r.requester_in_txn));
    }

    #[test]
    fn strong_isolation_nontx_read_aborts_writer() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        htm.write(T0, &mut mem, line_addr(13), 5);
        let v = htm.read(T1, &mut mem, line_addr(13));
        assert_eq!(v, 0, "uncommitted transactional store must be invisible");
        assert!(htm.is_doomed(T0).is_some());
    }

    #[test]
    fn aborted_writes_are_discarded() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        htm.write(T0, &mut mem, line_addr(14), 99);
        htm.write(T1, &mut mem, line_addr(14), 1); // dooms T0
        assert!(htm.xend(T0, &mut mem).is_err());
        assert_eq!(mem.load(line_addr(14)), 1);
    }

    #[test]
    fn zombie_doomed_txn_has_no_coherence_effects() {
        let (mut htm, mut mem) = fresh(3);
        htm.xbegin(T0).unwrap();
        htm.xbegin(T1).unwrap();
        htm.write(T0, &mut mem, line_addr(15), 1);
        htm.write(T2, &mut mem, line_addr(15), 2); // dooms T0 (T2 non-tx)
        assert!(htm.is_doomed(T0).is_some());
        // T1 reads a line T0 "writes" post-doom; T1 must not be doomed.
        let probe = line_addr(16);
        let _ = htm.read(T1, &mut mem, probe);
        htm.write(T0, &mut mem, probe, 3); // zombie write
        assert!(htm.is_doomed(T1).is_none());
        assert_eq!(mem.load(probe), 0);
    }

    #[test]
    fn capacity_abort_on_way_overflow() {
        let cfg = HtmConfig {
            write_sets: 4,
            write_ways: 2,
            ..HtmConfig::default()
        };
        let mut htm = HtmSystem::new(cfg, 1);
        let mut mem = Memory::new();
        htm.xbegin(T0).unwrap();
        // Lines 0, 4, 8 all map to set 0 with 4 sets; ways = 2 -> third dooms.
        htm.write(T0, &mut mem, line_addr(0), 1);
        htm.write(T0, &mut mem, line_addr(4), 1);
        assert!(htm.is_doomed(T0).is_none());
        htm.write(T0, &mut mem, line_addr(8), 1);
        assert_eq!(htm.is_doomed(T0).unwrap().reason(), AbortReason::Capacity);
        assert_eq!(htm.stats().capacity_aborts, 1);
    }

    #[test]
    fn capacity_abort_on_read_set_overflow() {
        let cfg = HtmConfig {
            read_set_max_lines: 3,
            ..HtmConfig::default()
        };
        let mut htm = HtmSystem::new(cfg, 1);
        let mut mem = Memory::new();
        htm.xbegin(T0).unwrap();
        for i in 0..3 {
            let _ = htm.read(T0, &mut mem, line_addr(20 + i));
        }
        assert!(htm.is_doomed(T0).is_none());
        let _ = htm.read(T0, &mut mem, line_addr(30));
        assert_eq!(htm.is_doomed(T0).unwrap().reason(), AbortReason::Capacity);
    }

    #[test]
    fn rereading_same_line_never_overflows() {
        let cfg = HtmConfig {
            read_set_max_lines: 1,
            ..HtmConfig::default()
        };
        let mut htm = HtmSystem::new(cfg, 1);
        let mut mem = Memory::new();
        htm.xbegin(T0).unwrap();
        for _ in 0..100 {
            let _ = htm.read(T0, &mut mem, line_addr(5));
        }
        assert!(htm.is_doomed(T0).is_none());
    }

    #[test]
    fn interrupt_dooms_with_unknown_status() {
        let (mut htm, mut mem) = fresh(1);
        htm.xbegin(T0).unwrap();
        htm.interrupt(T0, &mut mem, InterruptKind::ContextSwitch);
        assert_eq!(htm.is_doomed(T0).unwrap(), AbortStatus::UNKNOWN);
        assert_eq!(htm.stats().unknown_aborts, 1);
    }

    #[test]
    fn transient_interrupt_dooms_with_retry() {
        let (mut htm, mut mem) = fresh(1);
        htm.xbegin(T0).unwrap();
        htm.interrupt(T0, &mut mem, InterruptKind::Transient);
        assert_eq!(htm.is_doomed(T0).unwrap().reason(), AbortReason::Retry);
        assert_eq!(htm.stats().retry_aborts, 1);
    }

    #[test]
    fn interrupt_outside_txn_is_harmless() {
        let (mut htm, mut mem) = fresh(1);
        htm.interrupt(T0, &mut mem, InterruptKind::ContextSwitch);
        assert_eq!(htm.stats().unknown_aborts, 0);
    }

    #[test]
    fn xabort_reports_code() {
        let (mut htm, mut mem) = fresh(1);
        htm.xbegin(T0).unwrap();
        htm.xabort(T0, &mut mem, 0x42);
        let status = htm.xend(T0, &mut mem).unwrap_err();
        assert_eq!(status.explicit_code(), 0x42);
        assert_eq!(htm.stats().explicit_aborts, 1);
    }

    #[test]
    fn nested_xbegin_rejected() {
        let (mut htm, _mem) = fresh(1);
        htm.xbegin(T0).unwrap();
        assert_eq!(htm.xbegin(T0), Err(XbeginError::Nested));
    }

    #[test]
    fn slot_exhaustion_rejected() {
        let cfg = HtmConfig {
            max_concurrent_txns: 1,
            ..HtmConfig::default()
        };
        let mut htm = HtmSystem::new(cfg, 2);
        htm.xbegin(T0).unwrap();
        assert_eq!(htm.xbegin(T1), Err(XbeginError::NoSlot));
    }

    #[test]
    fn abort_rollback_frees_slot() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        htm.write(T0, &mut mem, line_addr(5), 1);
        htm.write(T1, &mut mem, line_addr(5), 2);
        let status = htm.abort_rollback(T0);
        assert_eq!(status.reason(), AbortReason::Conflict);
        assert!(!htm.in_txn(T0));
        htm.xbegin(T0).unwrap(); // slot reusable
    }

    #[test]
    fn doom_keeps_first_status() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        htm.write(T0, &mut mem, line_addr(5), 1);
        htm.write(T1, &mut mem, line_addr(5), 2); // conflict doom
        htm.interrupt(T0, &mut mem, InterruptKind::ContextSwitch); // must not overwrite
        assert_eq!(htm.is_doomed(T0).unwrap().reason(), AbortReason::Conflict);
        assert_eq!(htm.stats().total_aborts(), 1);
    }

    #[test]
    fn oracle_records_conflict_details() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        htm.xbegin(T1).unwrap();
        htm.write(T0, &mut mem, line_addr(6), 1);
        htm.write(T1, &mut mem, line_addr(6), 2);
        let rec = htm.oracle().last().copied().unwrap();
        assert_eq!(rec.requester, T1);
        assert_eq!(rec.victim, T0);
        assert_eq!(rec.line, CacheLine(6));
        assert!(rec.requester_in_txn);
    }

    #[test]
    fn committed_txn_lines_stop_conflicting() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        htm.write(T0, &mut mem, line_addr(5), 1);
        htm.xend(T0, &mut mem).unwrap();
        htm.xbegin(T1).unwrap();
        htm.write(T1, &mut mem, line_addr(5), 2);
        assert!(htm.is_doomed(T1).is_none());
    }

    #[test]
    fn rmw_is_read_and_write_for_conflicts() {
        let (mut htm, mut mem) = fresh(2);
        mem.store(line_addr(9), 10);
        htm.xbegin(T0).unwrap();
        let old = htm.rmw(T0, &mut mem, line_addr(9), 5);
        assert_eq!(old, 10);
        // A non-tx READ by T1 hits T0's write set -> dooms T0.
        let _ = htm.read(T1, &mut mem, line_addr(9));
        assert!(htm.is_doomed(T0).is_some());
        assert!(htm.xend(T0, &mut mem).is_err());
        assert_eq!(mem.load(line_addr(9)), 10, "rmw rolled back");
    }

    #[test]
    fn nontx_rmw_applies_directly_and_dooms_readers() {
        let (mut htm, mut mem) = fresh(2);
        htm.xbegin(T0).unwrap();
        let _ = htm.read(T0, &mut mem, line_addr(9));
        let old = htm.rmw(T1, &mut mem, line_addr(9), 3);
        assert_eq!(old, 0);
        assert_eq!(mem.load(line_addr(9)), 3);
        assert!(htm.is_doomed(T0).is_some());
    }

    #[test]
    fn footprint_counts_distinct_lines() {
        let (mut htm, mut mem) = fresh(1);
        htm.xbegin(T0).unwrap();
        assert_eq!(htm.txn_footprint_lines(T0), 0);
        let _ = htm.read(T0, &mut mem, line_addr(1));
        htm.write(T0, &mut mem, line_addr(1).offset(8), 1); // same line
        htm.write(T0, &mut mem, line_addr(2), 1);
        assert_eq!(htm.txn_footprint_lines(T0), 2);
        assert_eq!(htm.txn_accesses(T0), 3);
    }

    #[test]
    #[should_panic(expected = "xend without a transaction")]
    fn xend_without_txn_panics() {
        let (mut htm, mut mem) = fresh(1);
        let _ = htm.xend(T0, &mut mem);
    }
}
