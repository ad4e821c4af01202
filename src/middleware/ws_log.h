#ifndef SIREP_MIDDLEWARE_WS_LOG_H_
#define SIREP_MIDDLEWARE_WS_LOG_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "middleware/global_txn_id.h"
#include "storage/types.h"
#include "storage/write_set.h"

namespace sirep::middleware {

/// One validated writeset (or DDL statement) of a replica's writeset
/// log, at its validation tid.
struct WsLogEntry {
  uint64_t tid = 0;
  GlobalTxnId gid;
  std::shared_ptr<const storage::WriteSet> ws;  ///< null for DDL entries
  std::string ddl;  ///< set for DDL entries
};

/// A replica's validated writesets: the paper's `ws_list` with its
/// `lastvalidated_tid` (Fig. 4), which is also the writeset log its
/// recovery note asks for (§5.4: "the middleware probably has to log
/// writesets"). Certification, recovery donation and adoption all read
/// this one structure.
///
/// **Retention.** The log keeps the tids at or above floor() =
/// max(1, lastvalidated + 1 - capacity). The floor depends only on
/// lastvalidated and the capacity (ReplicaOptions::ws_log_capacity, one
/// value per cluster), so every replica at the same position of the
/// total order retains the same tids and reaches the same verdicts. A
/// certification with cert + 1 < floor() cannot be decided exactly and
/// aborts conservatively; every cert that passes that check is at least
/// floor() - 1, so the trimmed entries cannot change a verdict.
///
/// **The index.** Validating Ti only asks "does any Tj with tid > Ti.cert
/// write a tuple Ti writes?". Appends are tid-monotone, so each tuple's
/// *last* writer answers that exactly: if the newest writer of a tuple is
/// <= cert, every older writer is too. A map from each written tuple to
/// its last writer's tid makes the probe O(writeset) instead of WsList's
/// O(log-suffix x writeset) scan. The map keys on the exact TupleId, so
/// no hash collision can manufacture an abort. middleware_unit_test
/// checks every verdict against WsList, the literal formulation.
///
/// Not internally synchronized: every call runs under the replica's
/// `wsmutex`, as in the paper's pseudo-code.
class WsLog {
 public:
  explicit WsLog(size_t capacity = 65536)
      : capacity_(std::max<size_t>(capacity, 1)) {}

  WsLog(const WsLog&) = delete;
  WsLog& operator=(const WsLog&) = delete;

  /// The tid of the latest validated writeset or DDL statement.
  uint64_t lastvalidated() const { return lastvalidated_; }

  /// The oldest tid the log retains.
  uint64_t floor() const {
    return lastvalidated_ >= capacity_ ? lastvalidated_ + 1 - capacity_ : 1;
  }

  /// True iff some retained Tj with tid > cert writes a tuple `ws`
  /// writes. `first_conflict`, if non-null, receives one conflicting
  /// tuple (the flight recorder tags abort verdicts with it).
  bool ConflictsAfter(uint64_t cert, const storage::WriteSet& ws,
                      storage::TupleId* first_conflict = nullptr) const {
    for (const auto& we : ws.entries()) {
      auto it = last_writer_.find(we.tuple);
      if (it != last_writer_.end() && it->second > cert) {
        if (first_conflict != nullptr) *first_conflict = we.tuple;
        return true;
      }
    }
    return false;
  }

  /// Logs a validated writeset at the next tid and returns that tid.
  uint64_t AppendWriteSet(const GlobalTxnId& gid,
                          std::shared_ptr<const storage::WriteSet> ws) {
    const uint64_t tid = ++lastvalidated_;
    for (const auto& we : ws->entries()) last_writer_[we.tuple] = tid;
    entries_.push_back(WsLogEntry{tid, gid, std::move(ws), {}});
    Trim();
    return tid;
  }

  /// A replicated DDL statement takes the next tid, so recovery replays
  /// it at its position, and returns that tid; one that failed (`ran`
  /// false) takes the tid but is not logged.
  uint64_t AppendDdl(const GlobalTxnId& gid, const std::string& sql,
                     bool ran) {
    const uint64_t tid = ++lastvalidated_;
    if (ran) entries_.push_back(WsLogEntry{tid, gid, nullptr, sql});
    Trim();
    return tid;
  }

  /// Replaces the log with a donor's: `lastvalidated` and its entries,
  /// in ascending tid order, trimmed to this log's own floor.
  void Adopt(uint64_t lastvalidated, std::deque<WsLogEntry> entries) {
    lastvalidated_ = lastvalidated;
    entries_ = std::move(entries);
    last_writer_.clear();
    for (const auto& entry : entries_) {
      if (entry.ws == nullptr) continue;
      for (const auto& we : entry.ws->entries()) {
        last_writer_[we.tuple] = entry.tid;
      }
    }
    Trim();
  }

  /// The retained entries, in ascending tid order.
  const std::deque<WsLogEntry>& entries() const { return entries_; }
  size_t size() const { return entries_.size(); }

 private:
  /// Drops the entries below the floor. A trimmed writeset's tuples
  /// leave the map only while it is still their last writer.
  void Trim() {
    const uint64_t first_kept = floor();
    while (!entries_.empty() && entries_.front().tid < first_kept) {
      const WsLogEntry& trimmed = entries_.front();
      if (trimmed.ws != nullptr) {
        for (const auto& we : trimmed.ws->entries()) {
          auto it = last_writer_.find(we.tuple);
          if (it != last_writer_.end() && it->second == trimmed.tid) {
            last_writer_.erase(it);
          }
        }
      }
      entries_.pop_front();
    }
  }

  const size_t capacity_;
  uint64_t lastvalidated_ = 0;
  /// Ascending tids, none below floor().
  std::deque<WsLogEntry> entries_;
  /// Written tuple -> tid of its newest writer in entries_.
  std::unordered_map<storage::TupleId, uint64_t, storage::TupleIdHash>
      last_writer_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_WS_LOG_H_
