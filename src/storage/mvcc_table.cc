#include "storage/mvcc_table.h"

#include <mutex>

namespace sirep::storage {

std::shared_ptr<const Version> MvccTable::ReadVisible(
    const sql::Key& key, Timestamp snapshot) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  const Entry* entry = FindLocked(key);
  if (entry == nullptr) return nullptr;
  for (auto v = entry->second; v != nullptr; v = v->prev) {
    if (v->commit_ts <= snapshot) return v;
  }
  return nullptr;
}

std::shared_ptr<const Version> MvccTable::ReadNewest(
    const sql::Key& key) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  const Entry* entry = FindLocked(key);
  return entry == nullptr ? nullptr : entry->second;
}

size_t MvccTable::Install(const sql::Key& key, Timestamp commit_ts,
                          bool deleted, sql::Row data) {
  auto version = std::make_shared<Version>();
  version->commit_ts = commit_ts;
  version->deleted = deleted;
  version->data = std::move(data);
  std::unique_lock<std::shared_mutex> latch(latch_);
  if (!version->deleted) IndexInsertLocked(key, version->data);
  Entry* entry = FindLocked(key);
  if (entry == nullptr) {
    entry = &*rows_.try_emplace(key, nullptr).first;
    point_.insert(entry);
  }
  version->prev = entry->second;
  if (version->prev != nullptr) {
    version->chain_len = version->prev->chain_len + 1;
  }
  entry->second = std::move(version);
  return entry->second->chain_len;
}

void MvccTable::IndexInsertLocked(const sql::Key& key, const sql::Row& data) {
  for (auto& [column, entries] : indexes_) {
    const int idx = schema_.FindColumn(column);
    if (idx < 0) continue;
    entries[data[static_cast<size_t>(idx)]].insert(key);
  }
}

Status MvccTable::CreateIndex(const std::string& column) {
  const int idx = schema_.FindColumn(column);
  if (idx < 0) {
    return Status::InvalidArgument("no column '" + column + "' in table '" +
                                   name_ + "'");
  }
  std::unique_lock<std::shared_mutex> latch(latch_);
  if (indexes_.count(column)) {
    return Status::AlreadyExists("index on '" + name_ + "." + column +
                                 "' already exists");
  }
  auto& entries = indexes_[column];
  // Backfill from every version so the index stays conservative.
  for (const auto& [key, head] : rows_) {
    for (auto v = head; v != nullptr; v = v->prev) {
      if (!v->deleted) {
        entries[v->data[static_cast<size_t>(idx)]].insert(key);
      }
    }
  }
  return Status::OK();
}

bool MvccTable::HasIndex(const std::string& column) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return indexes_.count(column) > 0;
}

std::vector<sql::Key> MvccTable::IndexLookup(const std::string& column,
                                             const sql::Value& value) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  auto it = indexes_.find(column);
  if (it == indexes_.end()) return {};
  auto entry = it->second.find(value);
  if (entry == it->second.end()) return {};
  return std::vector<sql::Key>(entry->second.begin(), entry->second.end());
}

std::vector<std::string> MvccTable::IndexedColumns() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  std::vector<std::string> out;
  for (const auto& [column, entries] : indexes_) out.push_back(column);
  return out;
}

size_t MvccTable::Vacuum(Timestamp horizon) {
  std::unique_lock<std::shared_mutex> latch(latch_);
  size_t freed = 0;
  std::vector<Chains::iterator> dead;
  for (auto it = rows_.begin(); it != rows_.end(); ++it) {
    const auto& head = it->second;
    // Find the newest version visible at the horizon; everything older
    // can never be read again.
    std::shared_ptr<const Version> v = head;
    while (v != nullptr && v->commit_ts > horizon) {
      v = v->prev;
    }
    if (v == nullptr) continue;  // nothing at or below the horizon
    // v is the horizon version: cut the chain below it.
    for (auto old = v->prev; old != nullptr; old = old->prev) ++freed;
    // const_cast is confined to vacuum: versions are immutable to
    // readers, and we only sever the tail (and recount the survivors'
    // chain lengths, which readers never look at) under the exclusive
    // latch.
    if (v->prev != nullptr) {
      const_cast<Version*>(v.get())->prev = nullptr;
      size_t len = head->chain_len - v->chain_len + 1;
      for (const Version* live = head.get(); live != nullptr;
           live = live->prev.get()) {
        const_cast<Version*>(live)->chain_len = len--;
      }
    }
    if (v == head && v->deleted) dead.push_back(it);
  }
  for (auto it : dead) {
    point_.erase(&*it);
    rows_.erase(it);
    ++freed;
  }
  // Rebuild indexes from the surviving versions (simple and correct; a
  // production system would prune incrementally).
  for (auto& [column, entries] : indexes_) {
    const int idx = schema_.FindColumn(column);
    entries.clear();
    for (const auto& [key, head] : rows_) {
      for (auto v = head; v != nullptr; v = v->prev) {
        if (!v->deleted) {
          entries[v->data[static_cast<size_t>(idx)]].insert(key);
        }
      }
    }
  }
  return freed;
}

void MvccTable::ScanVisible(
    Timestamp snapshot,
    const std::function<void(const sql::Key&, const sql::Row&)>& fn) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  for (const auto& [key, head] : rows_) {
    for (auto v = head; v != nullptr; v = v->prev) {
      if (v->commit_ts <= snapshot) {
        if (!v->deleted) fn(key, v->data);
        break;
      }
    }
  }
}

size_t MvccTable::KeyCount() const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  return rows_.size();
}

}  // namespace sirep::storage
