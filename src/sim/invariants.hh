/**
 * @file
 * End-of-cycle machine-state invariant checker.
 *
 * A soft-error *study* lives and dies by the integrity of its simulator's
 * bookkeeping: a leaked physical register or an over-counted AVF interval
 * does not crash anything — it silently skews every AVF number downstream.
 * This pass validates the cross-structure consistency properties the
 * pipeline maintains by construction and raises a structured
 * InvariantError (sim/errors.hh) the cycle they first fail, so a
 * corrupted run lands in the campaign's retry/quarantine path instead of
 * contributing poisoned results.
 *
 * Checked invariants (names appear in InvariantError::invariant):
 *
 *  - regfile.freelist      free-list sizes match the free counters; every
 *                          free entry is in its bank's index range, not
 *                          marked allocated, and listed exactly once
 *  - regfile.conservation  every allocated physical register is reachable
 *                          as exactly one rename-map entry or exactly one
 *                          in-flight instruction's displaced old mapping,
 *                          and nothing else is allocated
 *  - rename.mapping        every rename-map entry points at an allocated
 *                          register of the correct bank
 *  - rob.order             per-thread program order (strictly increasing
 *                          seq) and occupancy <= capacity
 *  - iq.occupancy          shared-queue occupancy <= capacity, entries in
 *                          global dispatch order, per-thread occupancy
 *                          counters consistent, partition bound respected
 *                          when MachineConfig::iqPartitioned
 *  - iq.keys               every IQ entry's wakeup keys are its srcPhys1
 *                          and (stores: invalidReg) srcPhys2; the dense
 *                          ready table marks invalidReg ready, free
 *                          registers not ready, and an allocated register
 *                          ready iff its in-flight producer completed (or
 *                          its producer committed)
 *  - lsq.order             per-thread LSQ holds only memory instructions,
 *                          in program order, occupancy <= capacity
 *  - lsq.disambiguation    the LSQ cursor is at most the LSQ's size, and
 *                          no unissued store lies before it
 *  - ledger.accounting     per structure, accumulated ACE + un-ACE
 *                          bit-cycles never exceed capacity x elapsed
 *                          cycles (bit conservation)
 *  - slots.ownership       the instruction slots partition into the free
 *                          list and live slots; every handle in the fetch
 *                          queues, ROBs, IQ, LSQs and completion wheel
 *                          points at a live slot, each live slot is held
 *                          by exactly one fetch queue or ROB, and IQ, LSQ
 *                          and wheel entries are ROB-resident
 *
 * Enabled via MachineConfig::invariantCheckCycles (the check period); the
 * test suite turns it on for every simulation through the
 * SMTAVF_INVARIANTS environment variable.
 */

#ifndef SMTAVF_SIM_INVARIANTS_HH
#define SMTAVF_SIM_INVARIANTS_HH

#include "base/types.hh"

namespace smtavf
{

class SmtCore;
class AvfLedger;

/**
 * Validate the machine state at the end of cycle @p now; throws
 * InvariantError on the first violation found.
 */
void checkInvariants(const SmtCore &core, const AvfLedger &ledger,
                     Cycle now);

/**
 * slots.ownership where nothing may be in flight — after
 * SmtCore::finalizeAvf and at a drained checkpoint boundary: every
 * instruction slot is back on the free list.
 */
void checkSlotsReleased(const SmtCore &core, Cycle now);

} // namespace smtavf

#endif // SMTAVF_SIM_INVARIANTS_HH
