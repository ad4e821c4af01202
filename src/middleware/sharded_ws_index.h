#ifndef SIREP_MIDDLEWARE_SHARDED_WS_INDEX_H_
#define SIREP_MIDDLEWARE_SHARDED_WS_INDEX_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/partition_map.h"
#include "obs/profiler.h"
#include "storage/types.h"
#include "storage/write_set.h"

namespace sirep::middleware {

/// One retained certification-window entry: the validation tid, the
/// writeset, and its per-tuple digests (what certification keys on).
/// Recovery snapshots ship these verbatim so the recovering replica's
/// verdicts match the donor's bit for bit.
struct WsWindowEntry {
  uint64_t tid = 0;
  std::shared_ptr<const storage::WriteSet> ws;
  std::vector<uint64_t> digests;
};

/// Drop-in replacement for WsList (the paper's `ws_list`) that turns the
/// certification probe from an O(window-suffix x writeset) scan into an
/// O(writeset) hash lookup, sharded by digest range so probes and
/// appends touching disjoint shards never contend.
///
/// The insight: validation of Ti only asks "does any Tj with tid >
/// Ti.cert write a tuple Ti writes?". Appends are tid-monotone, so the
/// per-tuple *last* writer tid answers that exactly — if the newest
/// writer of a tuple is <= cert, every older writer is too. The index
/// keeps, per shard, a map digest -> last-writer tid; a window deque of
/// WsWindowEntry drives pruning, MinRetainedTid() and recovery
/// snapshots, exactly mirroring WsList's sliding window.
///
/// **Why digests, not tuples.** The index keys on the 64-bit FNV-1a
/// digest of each written tuple (cluster::PartitionMap::TupleDigest): a
/// fixed-size hash key, computed the same way at every replica. A
/// digest collision between distinct tuples can only manufacture a
/// conflict that is not there, i.e. a spurious abort — always safe
/// under SI, and vanishingly rare at 64 bits.
///
/// Decision-equivalence with WsList (relied on by recovery and by the
/// cross-replica determinism argument): for any append sequence and any
/// (cert, ws) probe, ConflictsAfter() returns the same verdict as
/// WsList::ConflictsAfter — see middleware_unit_test's differential
/// tests, including the prune/snapshot/load boundary sweep around
/// MinRetainedTid.
///
/// Threading: appends and window pruning are serialized by the caller
/// (the replica's wsmutex, taken in delivery order by the member's baton
/// holder, as in the paper's pseudo-code). The per-shard mutexes make concurrent read-only probes
/// (and the per-shard size gauges) safe against an in-flight append, and
/// are the hook for concurrent certification of non-overlapping
/// writesets: two probes over disjoint shards proceed fully in parallel.
class ShardedWsIndex {
 public:
  explicit ShardedWsIndex(size_t max_entries = 65536, size_t num_shards = 16)
      : max_entries_(max_entries),
        shards_(num_shards == 0 ? 1 : num_shards) {}

  ShardedWsIndex(const ShardedWsIndex&) = delete;
  ShardedWsIndex& operator=(const ShardedWsIndex&) = delete;

  void Append(uint64_t tid, std::shared_ptr<const storage::WriteSet> ws) {
    std::vector<uint64_t> digests;
    digests.reserve(ws->entries().size());
    for (const auto& we : ws->entries()) {
      digests.push_back(cluster::PartitionMap::TupleDigest(we.tuple));
    }
    AppendEntry(WsWindowEntry{tid, std::move(ws), std::move(digests)});
  }

  /// True iff some validated Tj with tid > cert conflicts with `ws`.
  /// `first_conflict`, if non-null, receives one conflicting tuple (the
  /// flight recorder tags abort verdicts with it).
  bool ConflictsAfter(uint64_t cert, const storage::WriteSet& ws,
                      storage::TupleId* first_conflict = nullptr) const {
    for (const auto& we : ws.entries()) {
      if (LastWriterAfter(cluster::PartitionMap::TupleDigest(we.tuple),
                          cert)) {
        if (first_conflict != nullptr) *first_conflict = we.tuple;
        return true;
      }
    }
    return false;
  }

  /// Oldest tid still retained; a validation with cert < MinRetainedTid()-1
  /// cannot be decided exactly and must abort conservatively.
  uint64_t MinRetainedTid() const {
    return window_.empty() ? 0 : window_.front().tid;
  }

  size_t size() const { return window_.size(); }
  bool empty() const { return window_.empty(); }

  size_t num_shards() const { return shards_.size(); }

  /// Contention accounting shared by all shard mutexes (one logical
  /// lock with 16 stripes; per-stripe split adds nothing a regression
  /// hunt needs). Set once at replica construction.
  void SetLockStats(const obs::LockStats& stats) { lock_stats_ = stats; }

  /// Distinct digests currently indexed in `shard` (per-shard gauges).
  size_t ShardSize(size_t shard) const {
    const Shard& s = shards_[shard % shards_.size()];
    std::lock_guard<std::mutex> lock(s.mu);
    return s.last_writer.size();
  }

  /// State transfer for online recovery: export the retained window...
  std::vector<WsWindowEntry> Snapshot() const {
    return std::vector<WsWindowEntry>(window_.begin(), window_.end());
  }

  /// ...and adopt a donor's window verbatim (replaces current content),
  /// so the recovering replica's validation decisions match the donor's.
  /// Re-appending entry by entry re-runs the normal prune, so a snapshot
  /// wider than this index's own window converges to the same retained
  /// suffix (and the same MinRetainedTid) a live replica would hold.
  void Load(const std::vector<WsWindowEntry>& snapshot) {
    window_.clear();
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.last_writer.clear();
    }
    for (const auto& entry : snapshot) AppendEntry(entry);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, uint64_t> last_writer;
  };

  void AppendEntry(WsWindowEntry entry) {
    for (const uint64_t digest : entry.digests) {
      Shard& shard = ShardFor(digest);
      auto lock = obs::AcquireProfiled(shard.mu, lock_stats_);
      shard.last_writer[digest] = entry.tid;
    }
    window_.push_back(std::move(entry));
    while (window_.size() > max_entries_) {
      const WsWindowEntry& evicted = window_.front();
      for (const uint64_t digest : evicted.digests) {
        Shard& shard = ShardFor(digest);
        std::lock_guard<std::mutex> lock(shard.mu);
        auto it = shard.last_writer.find(digest);
        // Only drop the map entry if no younger writeset in the window
        // overwrote it; a stale smaller tid can never be present because
        // appends are tid-monotone.
        if (it != shard.last_writer.end() && it->second == evicted.tid) {
          shard.last_writer.erase(it);
        }
      }
      window_.pop_front();
    }
  }

  bool LastWriterAfter(uint64_t digest, uint64_t cert) const {
    const Shard& shard = ShardFor(digest);
    auto lock = obs::AcquireProfiled(shard.mu, lock_stats_);
    auto it = shard.last_writer.find(digest);
    return it != shard.last_writer.end() && it->second > cert;
  }

  Shard& ShardFor(uint64_t digest) {
    return shards_[digest % shards_.size()];
  }
  const Shard& ShardFor(uint64_t digest) const {
    return shards_[digest % shards_.size()];
  }

  size_t max_entries_;
  obs::LockStats lock_stats_;
  /// Sliding window in tid order; mutated only by the (single) appender.
  std::deque<WsWindowEntry> window_;
  /// Fixed shard array — never resized, so ShardFor stays stable.
  std::vector<Shard> shards_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_SHARDED_WS_INDEX_H_
