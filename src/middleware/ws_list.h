#ifndef SIREP_MIDDLEWARE_WS_LIST_H_
#define SIREP_MIDDLEWARE_WS_LIST_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "storage/write_set.h"

namespace sirep::middleware {

/// The list of validated writesets (`ws_list` in the paper's Fig. 1 and
/// Fig. 4), ordered by validation id (tid). Validation of transaction Ti
/// checks whether any Tj with Ti.cert < Tj.tid has a writeset overlapping
/// Ti's.
///
/// Not internally synchronized: the caller serializes access under its
/// `wsmutex`, exactly as in the paper's pseudo-code.
///
/// Entries are pruned by a sliding window to bound memory. Because a
/// validation request's cert normally lags current tids by at most the
/// in-flight multicast depth (a few hundred), a generous window never
/// affects results; if a cert ever falls below the window the caller must
/// abort conservatively (see MinRetainedTid()).
///
/// This is the literal O(window-suffix x writeset) formulation, kept for
/// the reference SRCA middleware and as the oracle in differential
/// tests; SrcaRepReplica's hot path uses the decision-equivalent
/// WsLog (ws_log.h), whose probes are O(writeset).
class WsList {
 public:
  explicit WsList(size_t max_entries = 65536) : max_entries_(max_entries) {}

  void Append(uint64_t tid, std::shared_ptr<const storage::WriteSet> ws) {
    entries_.push_back(Entry{tid, std::move(ws)});
    while (entries_.size() > max_entries_) entries_.pop_front();
  }

  /// True iff some validated Tj with tid > cert conflicts with `ws`.
  /// `first_conflict`, if non-null, receives one conflicting tuple (the
  /// flight recorder tags abort verdicts with it).
  bool ConflictsAfter(uint64_t cert, const storage::WriteSet& ws,
                      storage::TupleId* first_conflict = nullptr) const {
    // Entries are tid-ordered; binary-search the first tid > cert.
    size_t lo = 0, hi = entries_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (entries_[mid].tid > cert) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    for (size_t i = lo; i < entries_.size(); ++i) {
      for (const auto& we : ws.entries()) {
        if (entries_[i].ws->Contains(we.tuple)) {
          if (first_conflict != nullptr) *first_conflict = we.tuple;
          return true;
        }
      }
    }
    return false;
  }

  /// Oldest tid still retained; a validation with cert < MinRetainedTid()-1
  /// cannot be decided exactly and must abort conservatively.
  uint64_t MinRetainedTid() const {
    return entries_.empty() ? 0 : entries_.front().tid;
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  struct Entry {
    uint64_t tid;
    std::shared_ptr<const storage::WriteSet> ws;
  };
  size_t max_entries_;
  std::deque<Entry> entries_;
};

}  // namespace sirep::middleware

#endif  // SIREP_MIDDLEWARE_WS_LIST_H_
