#include "uarch/core.hh"

#include <algorithm>

#include "common/failsoft.hh"
#include "common/logging.hh"
#include "uarch/sampled_run.hh"

namespace mg {

namespace {

/** Smallest power of two >= @p want (in-flight ring sizing). */
std::size_t
ringSize(std::size_t want)
{
    std::size_t s = 64;
    while (s < want)
        s <<= 1;
    return s;
}

} // namespace

Core::Core(const Program &p, const MgTable *t, const CoreConfig &c)
    : prog(p), mgt(t), cfg(c),
      emu(p, t),
      mem(c.mem),
      bp(c.bp),
      ss(c.ss),
      regs(c.physRegs, numArchRegs),
      rob(c.robSize),
      iq(c.iqSize, c.physRegs),
      lsq(c.lsqSize),
      fu(c.fu),
      seqs(c.sequencers),
      window(WindowResources{c.fu.intAlus, 1, c.fu.loadPorts,
                             c.fu.storePorts, c.fu.aluPipes}),
      slab(static_cast<std::size_t>(c.robSize + c.fetchQueueSize) + 8),
      replayQueue(static_cast<std::size_t>(c.robSize + c.fetchQueueSize) + 8),
      fetchQueue(static_cast<std::size_t>(c.fetchQueueSize) + 1)
{
    // Live seqs span at most the ROB contents; 4x slack absorbs the
    // seq-number churn of squash/refetch storms before a (rare,
    // self-healing) ring growth is needed.
    std::size_t n = ringSize(
        4 * static_cast<std::size_t>(c.robSize + c.fetchQueueSize));
    window_.assign(n, nullptr);
    windowMask = n - 1;
    std::uint32_t lb = c.mem.l1i.lineBytes;
    if (lb != 0 && (lb & (lb - 1)) == 0) {
        fetchLineShift = 0;
        while ((1u << fetchLineShift) < lb)
            ++fetchLineShift;
    }
    memOps.reserve(static_cast<std::size_t>(c.lsqSize));
    pendingMem.reserve(static_cast<std::size_t>(c.lsqSize));
    replayScratch.reserve(
        static_cast<std::size_t>(c.robSize + c.fetchQueueSize));
}

Core::~Core() = default;

Addr
Core::lineOf(Addr pc) const
{
    return fetchLineShift >= 0 ? pc >> fetchLineShift
                               : pc / cfg.mem.l1i.lineBytes;
}

void
Core::windowInsert(DynInst *d)
{
    for (;;) {
        DynInst *&slot = window_[d->seq & windowMask];
        if (!slot || !slot->inWindow || slot->seq == d->seq) {
            slot = d;
            return;
        }
        // A live entry aliases this slot: double the ring and
        // re-register the window contents (exactly the ROB), growing
        // again if any live pair still aliases at the new size.
        bool clean;
        do {
            std::size_t n = (windowMask + 1) * 2;
            std::vector<DynInst *> bigger(n, nullptr);
            window_.swap(bigger);
            windowMask = n - 1;
            clean = true;
            for (DynInst *r : rob) {
                DynInst *&s = window_[r->seq & windowMask];
                if (s && s->inWindow && s->seq != r->seq) {
                    clean = false;
                    break;
                }
                s = r;
            }
        } while (!clean);
    }
}

DynInst *
Core::findInWindow(std::uint64_t seq) const
{
    DynInst *d = window_[seq & windowMask];
    return (d && d->inWindow && d->seq == seq) ? d : nullptr;
}

DynInst *
Core::pullOracle()
{
    // Replay queue first (squash recovery), then the live oracle.
    if (!replayQueue.empty()) {
        DynInst *d = replayQueue.front();
        replayQueue.pop_front();
        return d;
    }
    if (oracleDone || draining)
        return nullptr;
    // The oracle steps straight into the slot's record: no
    // intermediate ExecRecord copy on the per-instruction path.
    DynInst *d = slab.alloc();
    for (;;) {
        bool more = emu.step(&d->rec);
        if (d->rec.insn == nullptr) {
            oracleDone = true;
            slab.release(d);
            return nullptr;
        }
        if (d->rec.padNop) {
            // Pad nops are squashed pre-decode: they consume no slot
            // but still advance the fetch PC (their icache footprint
            // is modelled in doFetch via the line walk).
            if (!more) {
                oracleDone = true;
                slab.release(d);
                return nullptr;
            }
            continue;
        }
        if (shadow_)
            shadow_->observe(d->rec, emu.dynWork());
        d->pc = d->rec.pc;
        d->insn = *d->rec.insn;
        d->cls = d->rec.cls;        // classified once, at predecode
        d->rec.insn = nullptr;      // records outlive emulator views
        d->memAddr = d->rec.memAddr;    // hot copies for the LSQ scans
        d->memBytes = d->rec.memBytes;
        if (d->insn.isHandle()) {
            d->tmpl = &mgt->at(static_cast<MgId>(d->insn.imm));
            d->work = d->tmpl->size();
            d->isLoadKind = d->tmpl->hdr.hasLoad;
            d->isStoreKind = d->tmpl->hdr.hasStore;
            d->isCtrl = d->tmpl->hdr.endsInBranch;
        } else {
            d->work = 1;
            d->isLoadKind = d->cls == InsnClass::Load;
            d->isStoreKind = d->cls == InsnClass::Store;
            d->isCtrl = d->cls == InsnClass::CondBranch ||
                d->cls == InsnClass::UncondBranch ||
                d->cls == InsnClass::IndirectJump;
            // Precompute the issue-slot kind and effective latency the
            // select loop needs, once per slot instead of per attempt.
            switch (d->cls) {
              case InsnClass::IntAlu:
              case InsnClass::CondBranch:
              case InsnClass::UncondBranch:
              case InsnClass::IndirectJump:
                d->selFu = FuKind::IntAlu;
                d->selLat = 1;
                break;
              case InsnClass::IntMult:
                // Competes for the grouped integer slots (the window
                // lane distinction matters only inside mini-graphs).
                d->selFu = FuKind::IntAlu;
                d->selLat = static_cast<std::int16_t>(
                    opLatency(d->insn.op));
                break;
              case InsnClass::FpAlu:
              case InsnClass::FpDiv:
                d->selFu = FuKind::FpAlu;
                d->selLat = static_cast<std::int16_t>(
                    opLatency(d->insn.op));
                break;
              case InsnClass::Load:
                d->selFu = FuKind::LoadPort;
                d->selLat = static_cast<std::int16_t>(
                    1 + cfg.mem.l1dLat);
                break;
              case InsnClass::Store:
                d->selFu = FuKind::StorePort;
                d->selLat = static_cast<std::int16_t>(
                    opLatency(d->insn.op));
                break;
              default:
                d->selFu = FuKind::IntAlu;
                d->selLat = static_cast<std::int16_t>(
                    opLatency(d->insn.op));
                break;
            }
        }
        if (!more)
            oracleDone = true;
        return d;
    }
}

void
Core::predictControl(DynInst *d)
{
    ++stats_.branches;
    bool actualTaken = d->rec.taken;
    Addr actualTarget = d->rec.nextPc;
    InsnClass cls = d->cls;
    bool condLike = cls == InsnClass::CondBranch ||
        (d->isHandle() && d->tmpl->hdr.endsInBranch);

    if (condLike) {
        bool predTaken = bp.predictDirection(d->pc);
        bp.updateDirection(d->pc, actualTaken);
        if (predTaken != actualTaken) {
            d->mispredicted = true;
        } else if (actualTaken) {
            Addr predTarget = bp.predictTarget(d->pc);
            if (predTarget != actualTarget) {
                // Direct target: computable at decode (misfetch).
                fetchStalledUntil = std::max(
                    fetchStalledUntil,
                    now + static_cast<Cycle>(cfg.misfetchPenalty));
                ++stats_.misfetches;
            }
            bp.updateTarget(d->pc, actualTarget);
        }
        return;
    }

    switch (d->insn.op) {
      case Op::BR:
      case Op::BSR: {
          if (d->insn.op == Op::BSR)
              bp.pushReturn(d->pc + insnBytes);
          Addr predTarget = bp.predictTarget(d->pc);
          if (predTarget != actualTarget) {
              fetchStalledUntil = std::max(
                  fetchStalledUntil,
                  now + static_cast<Cycle>(cfg.misfetchPenalty));
              ++stats_.misfetches;
              bp.updateTarget(d->pc, actualTarget);
          }
          return;
      }
      case Op::RET: {
          Addr predTarget = bp.popReturn();
          if (predTarget != actualTarget)
              d->mispredicted = true;
          return;
      }
      case Op::JSR:
      case Op::JMP: {
          if (d->insn.op == Op::JSR)
              bp.pushReturn(d->pc + insnBytes);
          Addr predTarget = bp.predictTarget(d->pc);
          if (predTarget != actualTarget)
              d->mispredicted = true;
          bp.updateTarget(d->pc, actualTarget);
          return;
      }
      default:
        return;
    }
}

void
Core::doFetch()
{
    if (fetchBlockedBySeq != 0 || now < fetchStalledUntil)
        return;

    int fetched = 0;
    int linesTouched = 0;
    while (fetched < cfg.fetchWidth &&
           static_cast<int>(fetchQueue.size()) < cfg.fetchQueueSize) {
        DynInst *d = pullOracle();
        if (!d)
            return;

        // Instruction cache: touch the line; charge misses.
        Addr line = lineOf(d->pc);
        if (line != lastFetchLine) {
            ++linesTouched;
            if (linesTouched > 2) {
                // Third line this cycle: defer to next cycle.
                replayQueue.push_front(d);
                return;
            }
            MemAccess acc = mem.instAccess(d->pc, now);
            lastFetchLine = line;
            if (!acc.l1Hit) {
                ++stats_.icacheMisses;
                fetchStalledUntil = std::max(fetchStalledUntil,
                                             acc.readyAt);
                replayQueue.push_front(d);
                return;
            }
        }

        d->seq = nextSeq++;
        d->fetchAt = now;
        d->dispatchReadyAt = now +
            static_cast<Cycle>(cfg.frontendDepth);
        ++stats_.fetchedSlots;
        ++fetched;

        bool taken = false;
        if (d->isCtrl) {
            predictControl(d);
            taken = d->rec.taken;
            if (d->mispredicted)
                fetchBlockedBySeq = d->seq;
        }
        fetchQueue.push_back(d);
        if (taken || fetchBlockedBySeq != 0)
            return;   // taken branches end the fetch cycle
    }
}

RegId
Core::renameDstOf(const DynInst *d) const
{
    // Class-driven mirror of Instruction::dst()/writesReg(), using the
    // predecoded class instead of re-deriving it per lookup.
    RegId dd;
    switch (d->cls) {
      case InsnClass::Handle:
        return (d->tmpl->outIdx >= 0 && !isZeroReg(d->insn.rc))
            ? d->insn.rc : regNone;
      case InsnClass::IntAlu:
      case InsnClass::IntMult:
      case InsnClass::FpAlu:
      case InsnClass::FpDiv:
        dd = d->insn.rc;
        break;
      case InsnClass::Load:
      case InsnClass::UncondBranch:
      case InsnClass::IndirectJump:
        dd = d->insn.ra;
        break;
      default:
        return regNone;
    }
    return (dd != regNone && !isZeroReg(dd)) ? dd : regNone;
}

void
Core::doDispatch()
{
    int moved = 0;
    while (moved < cfg.renameWidth && !fetchQueue.empty()) {
        DynInst *d = fetchQueue.front();
        if (d->dispatchReadyAt > now)
            break;
        if (rob.full()) {
            ++stats_.robFullStalls;
            break;
        }
        if (iq.full()) {
            ++stats_.iqFullStalls;
            break;
        }
        if ((d->isLoadKind || d->isStoreKind) && lsq.full()) {
            ++stats_.lsqFullStalls;
            break;
        }

        // Rename: two source lookups, at most one allocation. DISE's
        // dedicated registers never reach renaming (expansion is a
        // decode-stage mechanism); reject them loudly. (The raw-field
        // guard subsumes the per-slot src()/dst() probes: unused
        // operand fields of well-formed instructions hold regNone.)
        if (d->insn.ra >= numArchRegs || d->insn.rb >= numArchRegs ||
            d->insn.rc >= numArchRegs)
            fatal("DISE register reached rename at PC 0x%llx; run "
                  "expanded programs through the emulator",
                  static_cast<unsigned long long>(d->pc));
        // Class-driven mirror of Instruction::src(0)/src(1).
        RegId s0 = regNone, s1 = regNone;
        switch (d->cls) {
          case InsnClass::IntAlu:
          case InsnClass::IntMult:
          case InsnClass::FpAlu:
          case InsnClass::FpDiv:
            s0 = d->insn.ra;
            s1 = d->insn.useImm ? regNone : d->insn.rb;
            break;
          case InsnClass::Load:
            s0 = d->insn.rb;
            break;
          case InsnClass::Store:
            s0 = d->insn.rb;
            s1 = d->insn.ra;
            break;
          case InsnClass::CondBranch:
            s0 = d->insn.ra;
            break;
          case InsnClass::IndirectJump:
            s0 = d->insn.rb;
            break;
          case InsnClass::Handle:
            s0 = d->insn.ra;
            s1 = d->insn.rb;
            break;
          default:
            break;
        }
        RegId dst = renameDstOf(d);
        PhysReg np = physNone;
        if (dst != regNone) {
            np = regs.alloc();
            if (np == physNone) {
                ++stats_.regFullStalls;
                break;
            }
        }
        d->srcPhys[0] = rmap.lookup(s0);
        d->srcPhys[1] = rmap.lookup(s1);
        if (dst != regNone) {
            d->archDst = dst;
            d->dstPhys = np;
            d->prevPhys = rmap.rename(dst, np);
            regs.markPending(np);
        }

        d->dispatchedAt = now;
        if (trace_) {
            // Observational producer tracking: the writer table maps
            // physical registers to the seq that last renamed them, so
            // the retired trace carries register dependence edges. A
            // squashed producer's entry is simply overwritten when the
            // register is reallocated; it never retires, and the
            // analyzer drops edges whose producer seq is absent.
            for (int s = 0; s < 2; ++s) {
                PhysReg p = d->srcPhys[s];
                d->traceSrcSeq[s] =
                    p != physNone &&
                        static_cast<std::size_t>(p) < physWriterSeq_.size()
                    ? physWriterSeq_[p]
                    : 0;
            }
            if (d->dstPhys != physNone &&
                static_cast<std::size_t>(d->dstPhys) <
                    physWriterSeq_.size())
                physWriterSeq_[d->dstPhys] = d->seq;
        }

        // Memory dependence prediction by (handle) PC.
        if (d->isStoreKind)
            d->depStoreSeq = ss.dispatchStore(d->pc, d->seq);
        else if (d->isLoadKind)
            d->depStoreSeq = ss.dispatchLoad(d->pc);

        d->dispatched = true;
        d->inWindow = true;
        rob.push(d);
        windowInsert(d);
        DynInst *depStore = d->depStoreSeq
            ? findInWindow(d->depStoreSeq) : nullptr;
        iq.insert(d, regs, depStore, now);
        if (d->isLoadKind)
            lsq.insertLoad(d);
        else if (d->isStoreKind)
            lsq.insertStore(d);
        fetchQueue.pop_front();
        ++moved;
    }
}

void
Core::publishDest(DynInst *d, int effLat, Cycle value)
{
    if (d->dstPhys == physNone)
        return;
    Cycle sched = static_cast<Cycle>(
        std::max(effLat, cfg.schedulerCycles));
    regs.setTimes(d->dstPhys, d->issueAt + sched, value);
    iq.wakeReg(d->dstPhys, regs, now);
}

bool
Core::issueSingleton(DynInst *d, int ports)
{
    InsnClass cls = d->cls;
    // Slot kind and effective latency are precomputed at fetch
    // (pullOracle); read ports were gathered by the select loop.
    FuKind slotKind = d->selFu;
    int effLat = d->selLat;

    // Probe every resource before claiming any: a failed claim after
    // a successful one would waste slots and skew saturation points.
    Cycle completion = now + static_cast<Cycle>(cfg.regReadLat) +
        static_cast<Cycle>(effLat);
    if (fu.readPortsFree() < ports)
        return false;
    if (!fu.canIssueSingleton(slotKind))
        return false;
    if (d->dstPhys != physNone && !fu.writePortFree(completion))
        return false;
    fu.claimSingleton(slotKind);
    if (d->dstPhys != physNone)
        fu.claimWritePort(completion);
    fu.claimReadPorts(ports);

    d->issued = true;
    d->issueAt = now;
    iq.markIssued(d);

    switch (cls) {
      case InsnClass::Load:
        d->memExecAt = now + static_cast<Cycle>(cfg.regReadLat) + 1;
        publishDest(d, effLat, completion);   // optimistic (hit)
        d->completeAt = completion;           // revised on miss
        pendingMem.push_back({d, d->seq});
        break;
      case InsnClass::Store:
        d->memExecAt = now + static_cast<Cycle>(cfg.regReadLat) + 1;
        d->completeAt = d->memExecAt;
        pendingMem.push_back({d, d->seq});
        break;
      case InsnClass::CondBranch:
      case InsnClass::UncondBranch:
      case InsnClass::IndirectJump:
        d->resolveAt = now + static_cast<Cycle>(cfg.regReadLat) + 1;
        d->completeAt = d->resolveAt;
        publishDest(d, effLat, completion);   // link register
        break;
      default:
        publishDest(d, effLat, completion);
        d->completeAt = completion;
        break;
    }
    return true;
}

bool
Core::issueHandle(DynInst *d, int ports)
{
    const MgTemplate &t = *d->tmpl;
    const MgHeader &h = t.hdr;

    if (fu.readPortsFree() < ports)
        return false;

    Cycle outReady = now + static_cast<Cycle>(cfg.regReadLat) +
        static_cast<Cycle>(h.lat);
    bool intOnly = !h.hasLoad && !h.hasStore;
    if (intOnly) {
        // Whole graph rides one ALU pipeline. Probe, then claim.
        if (cfg.fu.aluPipes == 0)
            fatal("integer mini-graph handle but no ALU pipelines "
                  "configured");
        if (!fu.canIssueAluPipe(h.lat))
            return false;
        if (seqs.freeAt(now) == 0)
            return false;
        if (d->dstPhys != physNone && !fu.writePortFree(outReady))
            return false;
        fu.tryIssueAluPipe(h.lat);
        seqs.tryStart(now, h.totalLat);
    } else {
        // Integer-memory handle: sliding-window scheduler.
        if (!cfg.slidingWindow)
            fatal("integer-memory handle but the sliding-window "
                  "scheduler is disabled");
        if (intMemIssuedThisCycle >= cfg.maxIntMemHandlesPerCycle) {
            ++stats_.intMemIssueConflicts;
            return false;
        }
        if (window.conflicts(h.packed, now)) {
            ++stats_.intMemIssueConflicts;
            return false;
        }
        FuKind fu0 = h.fu0;
        bool fu0Pipe = fu0 == FuKind::AluPipe;
        if (fu0 == FuKind::IntMult)
            fu0 = FuKind::IntAlu;
        bool fu0Ok = fu0Pipe ? fu.canIssueAluPipe(h.lat)
                             : fu.canIssueSingleton(fu0);
        if (!fu0Ok)
            return false;
        if (seqs.freeAt(now) == 0)
            return false;
        if (d->dstPhys != physNone && !fu.writePortFree(outReady))
            return false;
        if (fu0Pipe)
            fu.tryIssueAluPipe(h.lat);
        else
            fu.claimSingleton(fu0);
        seqs.tryStart(now, h.totalLat);
        window.reserve(h.packed, now);
        ++intMemIssuedThisCycle;
    }

    if (d->dstPhys != physNone)
        fu.claimWritePort(outReady);
    fu.claimReadPorts(ports);

    d->issued = true;
    d->issueAt = now;
    // The scheduler entry is freed by the sequencer at the terminal
    // bank (paper Section 4.1); model by removing at issue + totalLat.
    // We keep it in the IQ container but it no longer competes; remove
    // now and account the extra occupancy via heldUntil bookkeeping.
    iq.markIssued(d);

    publishDest(d, h.lat, outReady);
    d->completeAt = now + static_cast<Cycle>(cfg.regReadLat) +
        static_cast<Cycle>(h.totalLat);
    if (d->isLoadKind || d->isStoreKind) {
        int b = 0;
        int mi = t.memIdx();
        if (mi >= 0)
            b = t.startCycle[static_cast<size_t>(mi)];
        d->memExecAt = now + static_cast<Cycle>(cfg.regReadLat) +
            static_cast<Cycle>(b);
        pendingMem.push_back({d, d->seq});
    }
    if (d->isCtrl)
        d->resolveAt = d->completeAt;
    return true;
}

void
Core::doIssue()
{
    // Select over the ready set only (age-ordered). Entries whose
    // operand times moved later since their wakeup re-park quietly —
    // exactly the entries the exhaustive scan would have skipped with
    // no side effects — so attempted candidates, and every stat they
    // bump, match the scan bit for bit.
    iq.beginSelect(now);
    intMemIssuedThisCycle = 0;
    if (!iq.readyFirst())
        return;   // nothing can attempt: skip the per-cycle FU setup

    fu.beginCycle(now);
    if (cfg.slidingWindow) {
        // FUBMP reservations made by in-flight integer-memory handles
        // claim their units in the cycle they fire.
        int res[4];
        window.usedNow(now, res);
        fu.preClaimUsed(res);
    }

    // Chunked gather/issue over the ready chain, in age order. The
    // gather phase snapshots a chunk of candidates into structure-of-
    // arrays scratch, batching their scoreboard reads — operand issue
    // readiness and bypass-window read-port needs — in one pass over
    // the register timestamps instead of interleaving probes with FU
    // claims; the issue phase then attempts the gathered entries.
    // Chunking keeps the overscan bounded: a cycle that fills its
    // issue slots in the first few candidates never walks (or probes)
    // the rest of a long ready chain.
    //
    // The snapshot is bit-identical to live per-attempt probing:
    // issuing publishes destination times of at least now + 1
    // (sched >= schedulerCycles >= 1), so mid-select wakeups only
    // ever park (never extend the ready chain at now), and published
    // registers were pending (not ready, not bypassable) before — no
    // gathered bit can differ from what an interleaved probe would
    // have read. Attempts unlink only their own entry, so the chunk
    // snapshot and the cursor into the chain both stay valid.
    constexpr int chunk = 16;
    DynInst *gInst[chunk];
    std::uint8_t gReady[chunk];
    std::uint8_t gPorts[chunk];
    const Cycle bypass = static_cast<Cycle>(cfg.bypassWindow);
    DynInst *cursor = iq.readyFirst();
    int issued = 0;
    while (cursor && issued < cfg.issueWidth) {
        int gn = 0;
        for (DynInst *d = cursor; gn < chunk && d; d = d->rdyNext) {
            bool srcsReady = true;
            int ports = 0;
            for (PhysReg s : d->srcPhys) {
                if (s == physNone)
                    continue;
                if (!regs.readyForIssue(s, now)) {
                    srcsReady = false;
                    break;
                }
                // Values in the bypass network need no read port.
                if (regs.valueAt(s) + bypass < now)
                    ++ports;
            }
            gInst[gn] = d;
            gReady[gn] = srcsReady;
            gPorts[gn] = static_cast<std::uint8_t>(ports);
            ++gn;
            cursor = d->rdyNext;   // first ungathered entry
        }

        for (int i = 0; i < gn && issued < cfg.issueWidth; ++i) {
            DynInst *d = gInst[i];

            // Both interface inputs (or both sources) must be ready:
            // this is exactly the paper's external serialization.
            if (!gReady[i]) {
                iq.requeueNotReady(d, regs, now);
                continue;
            }
            // Store-set ordering: loads (and ordered stores) wait for
            // their predicted store.
            if ((d->isLoadKind || d->isStoreKind) &&
                d->depStoreSeq != 0) {
                DynInst *st = findInWindow(d->depStoreSeq);
                if (st && !st->memDone) {
                    iq.requeueDepWait(d, st);
                    continue;
                }
            }

            if (d->isHandle() ? issueHandle(d, gPorts[i])
                              : issueSingleton(d, gPorts[i]))
                ++issued;
        }
    }
}

void
Core::executeLoad(DynInst *d)
{
    // Store-to-load forwarding: youngest older store with a known
    // overlapping address supplies the value in one cycle.
    DynInst *fwd = lsq.forwardingStore(d);
    Cycle dataAt;
    if (fwd) {
        dataAt = now + 1;
    } else {
        MemAccess acc = mem.dataAccess(d->memAddr, false, now);
        if (!acc.l1Hit)
            ++stats_.dcacheMisses;
        dataAt = acc.readyAt;
    }

    // The bank/pipeline schedule planned for a hit completing
    // l1dLat cycles after the access (now == d->memExecAt).
    Cycle plannedData = d->memExecAt + cfg.mem.l1dLat;

    if (d->isHandle()) {
        const MgTemplate &t = *d->tmpl;
        int mi = t.memIdx();
        bool terminal = (mi == t.size() - 1);
        if (dataAt > plannedData) {
            Cycle delta = dataAt - plannedData;
            if (!terminal) {
                // Interior-load miss: replay the whole mini-graph
                // (paper Section 4.3). The graph re-executes once the
                // fill returns; everything shifts by the miss delta
                // plus one replay pass through the sequencer.
                ++stats_.handleReplays;
                ++d->handleReplays;
                Cycle shift = delta + static_cast<Cycle>(t.hdr.totalLat);
                d->completeAt += shift;
                if (d->dstPhys != physNone) {
                    regs.setTimes(d->dstPhys,
                                  regs.readyForIssueAt(d->dstPhys) + shift,
                                  regs.valueAt(d->dstPhys) + shift);
                    iq.rewakeReg(d->dstPhys, regs, now);
                }
                if (d->isCtrl)
                    d->resolveAt = d->completeAt;
                seqs.tryStart(now, t.hdr.totalLat);   // replay walk
            } else {
                // Terminal load miss: behaves like a singleton miss.
                d->completeAt += delta;
                if (t.outIdx == mi && d->dstPhys != physNone) {
                    regs.setTimes(d->dstPhys,
                                  dataAt -
                                      static_cast<Cycle>(cfg.regReadLat),
                                  dataAt);
                    iq.rewakeReg(d->dstPhys, regs, now);
                }
                if (d->isCtrl)
                    d->resolveAt = d->completeAt;
            }
        }
    } else {
        if (dataAt != plannedData) {
            if (dataAt > plannedData)
                ++stats_.loadReplays;
            d->completeAt = dataAt;
            if (d->dstPhys != physNone) {
                regs.setTimes(d->dstPhys,
                              dataAt - static_cast<Cycle>(cfg.regReadLat),
                              dataAt);
                // A forwarded load completes *earlier* than published:
                // its parked consumers must be re-parked earlier too.
                iq.rewakeReg(d->dstPhys, regs, now);
            }
        }
    }
    d->memDone = true;
    if (!d->depWaiters.empty())
        iq.wakeDepStore(d, regs, now);
}

void
Core::executeStore(DynInst *d)
{
    d->memDone = true;
    if (!d->depWaiters.empty())
        iq.wakeDepStore(d, regs, now);
    // Ordering check: a younger load that already ran with an
    // overlapping address used stale data.
    DynInst *viol = lsq.violatingLoad(d);
    if (viol) {
        ++stats_.ordViolations;
        ss.recordViolation(viol->pc, d->pc);
        if (shadow_)
            shadow_->recordViolation(viol->pc, d->pc);
        squashFrom(viol->seq);
    }
}

void
Core::doMemAndResolve()
{
    // Memory operations whose address resolves this cycle, from the
    // issued-pending list (compacting resolved and squashed entries
    // as we go). Collect (entry, seq) first: violation squashes
    // mutate the queues and recycle squashed entries, which a seq
    // mismatch then reveals.
    memOps.clear();
    std::size_t keep = 0;
    bool compact = false;
    for (std::size_t i = 0; i < pendingMem.size(); ++i) {
        const auto &[d, seq] = pendingMem[i];
        if (d->seq != seq || d->memDone) {
            compact = true;   // squashed / already resolved: drop
            continue;
        }
        if (d->memExecAt <= now)
            memOps.push_back(pendingMem[i]);
        if (compact)
            pendingMem[keep] = pendingMem[i];
        ++keep;
    }
    if (compact)
        pendingMem.resize(keep);
    if (memOps.size() > 1) {
        std::sort(memOps.begin(), memOps.end(),
                  [](const std::pair<DynInst *, std::uint64_t> &a,
                     const std::pair<DynInst *, std::uint64_t> &b) {
                      return a.second < b.second;
                  });
    }
    for (const auto &[d, seq] : memOps) {
        if (d->seq != seq)
            continue;   // squashed (and possibly recycled) mid-loop
        if (d->isLoadKind)
            executeLoad(d);
        else
            executeStore(d);
    }

    // Control resolution: unblock fetch.
    if (fetchBlockedBySeq != 0) {
        DynInst *b = findInWindow(fetchBlockedBySeq);
        if (!b) {
            fetchBlockedBySeq = 0;   // squashed away
        } else if (b->issued && b->resolveAt <= now) {
            fetchBlockedBySeq = 0;
            ++stats_.mispredicts;
            bp.countMispredict();
        }
    }
}

void
Core::traceRetire(const DynInst *d)
{
    auto delta = [&](Cycle at) -> std::uint32_t {
        if (at <= d->fetchAt)
            return 0;
        Cycle v = at - d->fetchAt;
        return v > 0xffffffffull ? 0xffffffffu
                                 : static_cast<std::uint32_t>(v);
    };
    TraceEvent e;
    e.seq = d->seq;
    e.pc = d->pc;
    e.fetchAt = d->fetchAt;
    e.dispatchD = delta(d->dispatchedAt);
    e.issueD = delta(d->issueAt);
    e.completeD = delta(d->completeAt);
    e.commitD = delta(now);
    e.memExecD = (d->isLoadKind || d->isStoreKind)
        ? delta(d->memExecAt) : 0;
    e.srcSeq[0] = d->traceSrcSeq[0];
    e.srcSeq[1] = d->traceSrcSeq[1];
    e.depStoreSeq = d->depStoreSeq;
    e.work = static_cast<std::uint16_t>(
        std::min(d->work, 0xffff));
    e.handleReplays = static_cast<std::uint16_t>(
        std::min(d->handleReplays, 0xffff));
    e.cls = d->cls;
    e.flags = static_cast<std::uint8_t>(
        (d->isLoadKind ? TraceEvent::FlagLoad : 0) |
        (d->isStoreKind ? TraceEvent::FlagStore : 0) |
        (d->isCtrl ? TraceEvent::FlagCtrl : 0) |
        (d->isHandle() ? TraceEvent::FlagHandle : 0) |
        (d->mispredicted ? TraceEvent::FlagMispredicted : 0) |
        (d->isCtrl && d->rec.taken ? TraceEvent::FlagTaken : 0));
    trace_->push(e);
}

void
Core::retire(DynInst *d)
{
    if (trace_)
        traceRetire(d);
    ++stats_.committedSlots;
    stats_.committedWork += static_cast<std::uint64_t>(d->work);
    if (d->isHandle())
        ++stats_.committedHandles;
    if (d->isStoreKind) {
        // The retiring store (or the mini-graph's one store queue
        // entry) drains to the data cache.
        mem.dataAccess(d->memAddr, true, now);
        ss.completeStore(d->pc, d->seq);
    }
    if (d->prevPhys != physNone)
        regs.free(d->prevPhys);
    d->inWindow = false;
}

void
Core::doCommit()
{
    int n = 0;
    while (n < cfg.commitWidth && !rob.empty()) {
        DynInst *d = rob.head();
        bool done = d->issued && d->completeAt <= now &&
            (!d->isLoadKind || d->memDone) &&
            (!d->isStoreKind || d->memDone);
        if (!done)
            break;
        retire(d);
        rob.popHead();
        if (d->isLoadKind || d->isStoreKind)
            lsq.remove(d);
        // Handles hold their scheduler entry until the terminal bank;
        // both paths removed the entry at issue, so nothing to do.
        ++n;
        // Eager reclamation: the slot is free the moment it retires.
        slab.release(d);
    }
}

void
Core::squashFrom(std::uint64_t fromSeq)
{
    // Remove young entries from the back of the ROB, restoring the
    // rename map and freeing their registers; then reset the slots in
    // place (no copies, no allocation) and re-feed them to fetch via
    // the replay queue.
    std::vector<DynInst *> gone = rob.squashFrom(fromSeq);
    iq.squashFrom(fromSeq);
    lsq.squashFrom(fromSeq);

    // Also squash not-yet-dispatched fetched slots (they are younger
    // than anything in the ROB), youngest first.
    replayScratch.clear();
    std::size_t nGone = gone.size();
    for (DynInst *d : gone) {
        // Youngest first: undo rename in reverse order.
        if (d->archDst != regNone) {
            rmap.restore(d->archDst, d->prevPhys);
            if (d->dstPhys != physNone)
                regs.free(d->dstPhys);
        }
        d->inWindow = false;
        replayScratch.push_back(d);
        ++stats_.squashedSlots;
    }
    while (!fetchQueue.empty() && fetchQueue.back()->seq >= fromSeq) {
        replayScratch.push_back(fetchQueue.back());
        fetchQueue.pop_back();
        ++stats_.squashedSlots;
    }

    if (fetchBlockedBySeq >= fromSeq)
        fetchBlockedBySeq = 0;

    // Rebuild the replay stream oldest-first at the front of the
    // queue: the ROB entries (collected youngest-first) reversed,
    // then the fetch-queue leftovers (youngest-first) reversed.
    // Resetting *before* any push keeps stale references (this
    // cycle's memOps, wakeup records) detectably dead via seq 0.
    for (DynInst *d : replayScratch)
        d->resetForReplay();
    // Both groups sit youngest-first in the scratch; pushing each to
    // the front youngest-first leaves its oldest entry frontmost.
    for (std::size_t i = nGone; i < replayScratch.size(); ++i)
        replayQueue.push_front(replayScratch[i]);
    for (std::size_t i = 0; i < nGone; ++i)
        replayQueue.push_front(replayScratch[i]);

    // Refetch restarts after the squash resolves (next cycle) with a
    // cold line tracker.
    fetchStalledUntil = std::max(fetchStalledUntil, now + 1);
    lastFetchLine = ~Addr(0);
}

Cycle
Core::idleSkipTarget(std::uint64_t **stallCounter)
{
    *stallCounter = nullptr;

    // Anything ready (or waking) in the scheduler issues or counts
    // conflicts this cycle.
    if (!iq.quietAt(now))
        return 0;

    Cycle next = ~Cycle(0);
    bool have = false;
    auto event = [&](Cycle c) {
        if (c < next)
            next = c;
        have = true;
    };

    // Fetch: progress now means no skip; a pending stall is an event.
    bool queueRoom =
        static_cast<int>(fetchQueue.size()) < cfg.fetchQueueSize;
    bool canPull = !replayQueue.empty() || (!oracleDone && !draining);
    if (fetchBlockedBySeq == 0 && queueRoom && canPull) {
        if (now >= fetchStalledUntil)
            return 0;
        event(fetchStalledUntil);
    }

    if (Cycle w = iq.nextWakeAt(now))
        event(w);   // quietAt guarantees w > now

    // Pending memory accesses.
    for (const auto &[d, seq] : pendingMem) {
        if (d->seq != seq || d->memDone)
            continue;
        if (d->memExecAt <= now)
            return 0;
        event(d->memExecAt);
    }

    // Branch resolution unblocking fetch.
    if (fetchBlockedBySeq != 0) {
        DynInst *b = findInWindow(fetchBlockedBySeq);
        if (!b)
            return 0;   // resolves by absence this cycle
        if (b->issued) {
            if (b->resolveAt <= now)
                return 0;
            event(b->resolveAt);
        }
        // Unissued: its wakeup (above) precedes resolution.
    }

    // Commit of the ROB head.
    if (!rob.empty()) {
        DynInst *h = rob.head();
        if (h->issued) {
            bool memPending =
                (h->isLoadKind || h->isStoreKind) && !h->memDone;
            if (!memPending) {
                if (h->completeAt <= now)
                    return 0;
                event(h->completeAt);
            }
            // memPending: the LSQ scan above supplied the event.
        }
        // Unissued head wakes through the scheduler events.
    }

    // Dispatch: progress now means no skip; a structural stall must
    // keep counting once per skipped cycle (nothing a skipped cycle
    // touches can change the stall reason).
    if (!fetchQueue.empty()) {
        DynInst *f = fetchQueue.front();
        if (f->dispatchReadyAt > now) {
            event(f->dispatchReadyAt);
        } else if (rob.full()) {
            *stallCounter = &stats_.robFullStalls;
        } else if (iq.full()) {
            *stallCounter = &stats_.iqFullStalls;
        } else if ((f->isLoadKind || f->isStoreKind) && lsq.full()) {
            *stallCounter = &stats_.lsqFullStalls;
        } else if (renameDstOf(f) != regNone && regs.freeCount() == 0) {
            *stallCounter = &stats_.regFullStalls;
        } else {
            return 0;   // dispatch progresses now
        }
    }

    if (!have) {
        *stallCounter = nullptr;
        return 0;
    }
    return next;
}

void
Core::stepCycle()
{
    // Event-aware idle skipping: jump straight to the next cycle at
    // which any pipeline event fires, accumulating the per-cycle
    // dispatch-stall statistics the skipped cycles would have counted.
    std::uint64_t *stall = nullptr;
    Cycle target = idleSkipTarget(&stall);
    if (target > now) {
        if (stall)
            *stall += target - now;
        now = target;
    }

    doMemAndResolve();
    doCommit();
    doIssue();
    doDispatch();
    doFetch();
    ++now;
    stats_.cycles = now;
}

void
Core::pollCancel()
{
    if (cancel_ && (++cancelPoll_ & cancelPollMask) == 0 &&
        cancel_->load(std::memory_order_relaxed))
        throw CellTimeout("cell deadline exceeded (timing loop "
                          "cancelled by watchdog)");
}

void
Core::runDetailedUntil(std::uint64_t targetWork)
{
    for (;;) {
        pollCancel();
        stepCycle();
        if (stats_.committedWork >= targetWork)
            break;
        if (oracleDone && replayQueue.empty() && fetchQueue.empty() &&
            rob.empty())
            break;
        if (now > (1ull << 40))
            panic("simulation did not terminate");
    }
}

CoreStats
Core::run(std::uint64_t maxWork)
{
    stats_ = CoreStats();
    runDetailedUntil(maxWork);
    return stats_;
}

bool
Core::pipelineEmpty() const
{
    return replayQueue.empty() && fetchQueue.empty() && rob.empty();
}

void
Core::drainPipeline()
{
    // Retire everything in flight without admitting new oracle slots
    // (pullOracle serves only the replay queue while draining), so the
    // subsequent fast-forward starts from a committed boundary.
    draining = true;
    while (!pipelineEmpty()) {
        stepCycle();
        if (now > (1ull << 40))
            panic("pipeline did not drain");
    }
    draining = false;
}

void
Core::warmControl(const Instruction &in, const ExecRecord &rec)
{
    // Functional-warming mirror of predictControl's *training* effects:
    // same tables, same PCs, but no penalties and no stats.
    InsnClass cls = rec.cls;
    bool condLike = cls == InsnClass::CondBranch ||
        (in.isHandle() && mgt &&
         mgt->at(static_cast<MgId>(in.imm)).hdr.endsInBranch);
    if (condLike) {
        bp.updateDirection(rec.pc, rec.taken);
        if (rec.taken)
            bp.updateTarget(rec.pc, rec.nextPc);
        return;
    }
    switch (in.op) {
      case Op::BSR:
        bp.pushReturn(rec.pc + insnBytes);
        [[fallthrough]];
      case Op::BR:
        bp.updateTarget(rec.pc, rec.nextPc);
        break;
      case Op::RET:
        bp.popReturn();
        break;
      case Op::JSR:
        bp.pushReturn(rec.pc + insnBytes);
        [[fallthrough]];
      case Op::JMP:
        bp.updateTarget(rec.pc, rec.nextPc);
        break;
      default:
        break;
    }
}

void
Core::fastForward(std::uint64_t workTarget, double ipcEst)
{
    if (!pipelineEmpty())
        panic("fastForward with a non-empty pipeline");
    if (!(ipcEst > 0))
        panic("fastForward needs a positive IPC estimate");
    ExecRecord rec;
    Cycle base = now;
    std::uint64_t work0 = emu.dynWork();
    while (!emu.halted() && emu.dynWork() < workTarget) {
        pollCancel();
        if (!emu.step(&rec))
            break;
        now = base + static_cast<Cycle>(
                         static_cast<double>(emu.dynWork() - work0) /
                         ipcEst);
        if (!rec.insn)
            continue;
        Addr line = lineOf(rec.pc);
        if (line != lastFetchLine) {
            mem.instAccess(rec.pc, now);
            lastFetchLine = line;
        }
        if (rec.padNop)
            continue;
        if (rec.isMem) {
            mem.dataAccess(rec.memAddr, rec.memIsStore, now);
            if (shadow_)
                shadow_->warm(rec, emu.dynWork(), ss);
        }
        if (rec.insn->isControl() || rec.insn->isHandle())
            warmControl(*rec.insn, rec);
    }
    stats_.cycles = now;        // keep interval deltas pure-detailed
    lastFetchLine = ~Addr(0);   // fetch restarts on a cold line tracker
}

/** Layout version of serializeWarm records (independent of the store's
 *  file format version: this one tracks the core's state shape). */
static constexpr std::uint32_t warmStateVersion = 3;

void
Core::serializeWarm(SerialWriter &w, const WarmBase &base) const
{
    w.u32(warmStateVersion);
    w.u64(base.tag);
    w.u64(now);
    w.u64(nextSeq);
    emu.serializeState(w, base.mem);
    mem.exportState().serialize(w);
    bp.exportState().serialize(w);
    ss.exportState().serialize(w);
    if (shadow_)
        shadow_->serialize(w);
    else
        ViolationShadow().serialize(w);
}

bool
Core::tryRestoreWarm(const std::vector<std::uint8_t> &bytes,
                     const WarmBase &base)
{
    if (!pipelineEmpty())
        panic("tryRestoreWarm with a non-empty pipeline");
    // Parse the whole record into temporaries and validate every
    // piece before mutating anything: a truncated or incompatible
    // record must leave the core exactly as it was (the caller then
    // warms through functionally and the run stays correct).
    SerialReader r(bytes);
    if (r.u32() != warmStateVersion || r.u64() != base.tag)
        return false;
    std::uint64_t now_ = r.u64();
    std::uint64_t nextSeq_ = r.u64();
    EmuCheckpoint ck;           // ck.mem: the pages that differ from base
    if (!deserializeCheckpoint(r, ck))
        return false;
    HierarchyState hs;
    BranchPredState bs;
    StoreSetsState sss;
    if (!hs.deserialize(r) || !bs.deserialize(r) ||
        !sss.deserialize(r) || !r.ok())
        return false;
    ViolationShadow shadow;
    if (!shadow.deserialize(r))
        return false;
    if (!emu.checkpointCompatible(ck) || !mem.stateCompatible(hs) ||
        !bp.stateCompatible(bs) || !ss.stateCompatible(sss))
        return false;
    // Records are keyed to positions ahead of the run; never move the
    // oracle (or the clock) backwards.
    if (ck.work < emu.dynWork() || now_ < now)
        return false;

    emu.restore(std::move(ck), base.mem);
    now = now_;
    nextSeq = nextSeq_;
    mem.adoptState(hs);
    bp.adoptState(bs);
    ss.adoptState(sss);
    if (shadow_)
        shadow_->adopt(std::move(shadow));
    stats_.cycles = now;        // as after fastForward
    lastFetchLine = ~Addr(0);
    return true;
}

} // namespace mg
