#include "storage/mvcc_table.h"

#include <mutex>

namespace sirep::storage {

std::shared_ptr<const Version> MvccTable::ReadVisible(
    const sql::Key& key, Timestamp snapshot) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  auto it = rows_.find(key);
  if (it == rows_.end()) return nullptr;
  for (auto v = it->second; v != nullptr; v = v->prev) {
    if (v->commit_ts <= snapshot) return v;
  }
  return nullptr;
}

std::shared_ptr<const Version> MvccTable::ReadNewest(
    const sql::Key& key) const {
  std::shared_lock<std::shared_mutex> latch(latch_);
  auto it = rows_.find(key);
  if (it == rows_.end()) return nullptr;
  return it->second;
}

size_t MvccTable::Install(const sql::Key& key, Timestamp commit_ts,
                          bool deleted, sql::Row data) {
  auto version = std::make_shared<Version>();
  version->commit_ts = commit_ts;
  version->deleted = deleted;
  version->data = std::move(data);
  std::unique_lock<std::shared_mutex> latch(latch_);
  if (!version->deleted) IndexInsertLocked(key, version->data);
  auto [it, inserted] = rows_.try_emplace(key, nullptr);
  version->prev = it->second;
  if (version->prev != nullptr) {
    version->chain_len = version->prev->chain_len + 1;
  }
  it->second = std::move(version);
  return it->second->chain_len;
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
  std::vector<sql::Key> dead_keys;
  for (auto& [key, head] : rows_) {
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
    if (v == head && v->deleted) dead_keys.push_back(key);
  }
  for (const auto& key : dead_keys) {
    rows_.erase(key);
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
