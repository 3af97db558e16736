// Incremental, Merkle-authenticated snapshots of AVM state (§4.4).
//
// The AVMM maintains a hash tree over the AVM's memory pages (plus a leaf
// for the CPU state); after each snapshot it records the top-level value
// in the tamper-evident log. Snapshots are incremental: only pages dirtied
// since the previous snapshot are stored. Auditors reconstruct the state
// at a snapshot by replaying increments, and authenticate it against the
// root hash in the log (spot checking, §3.5/§6.12).
#ifndef SRC_AVMM_SNAPSHOT_H_
#define SRC_AVMM_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "src/crypto/merkle.h"
#include "src/util/bytes.h"
#include "src/util/clock.h"
#include "src/vm/machine.h"

namespace avm {

// What goes into the kSnapshot log entry.
struct SnapshotMeta {
  uint64_t snapshot_id = 0;  // Dense, starting at 0 (the initial state).
  uint64_t icount = 0;       // Instruction count at the snapshot point.
  SimTime sim_time = 0;
  Hash256 root;              // Merkle root over pages + CPU leaf.
  uint32_t total_pages = 0;
  uint32_t incremental_pages = 0;  // Pages stored in this increment.
  uint64_t stored_bytes = 0;       // Increment size (Figure 9's transfer metric).

  Bytes Serialize() const;
  static SnapshotMeta Deserialize(ByteView data);
};

// One stored increment.
struct SnapshotDelta {
  SnapshotMeta meta;
  Bytes cpu_state;
  std::vector<std::pair<uint32_t, Bytes>> pages;  // (page index, contents).

  Bytes Serialize() const;
  static SnapshotDelta Deserialize(ByteView data);
};

// A fully materialized machine state.
struct MaterializedState {
  CpuState cpu;
  Bytes memory;
  Hash256 root;

  // Wire form (audit checkpoints, src/audit/checkpoint): CPU state plus
  // LZSS-compressed memory, carrying the Merkle root the state must
  // hash to. Deserialize recomputes the root from the decoded state and
  // throws SerdeError when it does not match — the same authenticate-
  // before-trust rule as snapshot verification.
  Bytes Serialize() const;
  static MaterializedState Deserialize(ByteView data);
};

// Computes the Merkle root the AVMM commits to: leaves are the memory
// pages followed by one leaf holding the serialized CPU state.
Hash256 ComputeStateRoot(const Machine& m);
Hash256 ComputeStateRoot(const CpuState& cpu, ByteView memory);

// Holds a machine's snapshot chain; the recording side appends, the
// auditing side reconstructs. (An audit "downloads" a snapshot by reading
// it from the auditee's store and then *verifying* it against the root in
// the verified log, so the store itself need not be trusted.)
class SnapshotStore {
 public:
  void Add(SnapshotDelta delta);

  const SnapshotDelta& Get(uint64_t snapshot_id) const;
  bool Has(uint64_t snapshot_id) const;
  uint64_t Count() const { return deltas_.size(); }

  // Applies increments 0..snapshot_id and returns the full state.
  // mem_size must match the recorded machine.
  MaterializedState Materialize(uint64_t snapshot_id, size_t mem_size) const;

  // Bytes an auditor must transfer to start replay at `snapshot_id`,
  // assuming it already has the base image (delta 0 is the base):
  // increments 1..snapshot_id.
  uint64_t TransferBytesUpTo(uint64_t snapshot_id) const;

 private:
  std::map<uint64_t, SnapshotDelta> deltas_;
};

// Recording-side helper: takes snapshots of a machine, storing increments
// and returning the metadata to log.
class SnapshotManager {
 public:
  explicit SnapshotManager(SnapshotStore* store) : store_(store) {}

  // Takes a snapshot. The first call stores every page (the base); later
  // calls store only pages dirtied since the previous call. Clears the
  // machine's dirty-page tracking.
  SnapshotMeta Take(Machine& m, SimTime sim_time);

 private:
  SnapshotStore* store_;
  uint64_t next_id_ = 0;
};

}  // namespace avm

#endif  // SRC_AVMM_SNAPSHOT_H_
