#ifndef SIREP_MIDDLEWARE_WS_INDEX_H_
#define SIREP_MIDDLEWARE_WS_INDEX_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/partition_map.h"
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
/// O(writeset) hash lookup.
///
/// The insight: validation of Ti only asks "does any Tj with tid >
/// Ti.cert write a tuple Ti writes?". Appends are tid-monotone, so the
/// per-tuple *last* writer tid answers that exactly — if the newest
/// writer of a tuple is <= cert, every older writer is too. The index
/// keeps a map digest -> last-writer tid; a window deque of
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
/// Not internally synchronized: like WsList, every call runs under the
/// replica's `wsmutex`, as in the paper's pseudo-code.
class WsIndex {
 public:
  explicit WsIndex(size_t max_entries = 65536) : max_entries_(max_entries) {}

  WsIndex(const WsIndex&) = delete;
  WsIndex& operator=(const WsIndex&) = delete;

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
      auto it =
          last_writer_.find(cluster::PartitionMap::TupleDigest(we.tuple));
      if (it != last_writer_.end() && it->second > cert) {
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
    last_writer_.clear();
    for (const auto& entry : snapshot) AppendEntry(entry);
  }

 private:
  void AppendEntry(WsWindowEntry entry) {
    for (const uint64_t digest : entry.digests) {
      last_writer_[digest] = entry.tid;
    }
    window_.push_back(std::move(entry));
    while (window_.size() > max_entries_) {
      const WsWindowEntry& evicted = window_.front();
      for (const uint64_t digest : evicted.digests) {
        auto it = last_writer_.find(digest);
        // Only drop the map entry if no younger writeset in the window
        // overwrote it; a stale smaller tid can never be present because
        // appends are tid-monotone.
        if (it != last_writer_.end() && it->second == evicted.tid) {
          last_writer_.erase(it);
        }
      }
      window_.pop_front();
    }
  }

  size_t max_entries_;
  /// Sliding window in tid order.
  std::deque<WsWindowEntry> window_;
  /// Tuple digest -> tid of its newest writer in the window.
  std::unordered_map<uint64_t, uint64_t> last_writer_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_WS_INDEX_H_
