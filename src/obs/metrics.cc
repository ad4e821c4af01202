#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <chrono>
#include <cmath>
#include <thread>

#include "obs/json.h"

namespace sirep::obs {

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t Counter::SlotIndex() {
  // Hash the thread id once per thread; threads spread across stripes so
  // concurrent increments mostly touch distinct cache lines.
  static thread_local const size_t slot =
      std::hash<std::thread::id>()(std::this_thread::get_id()) % kStripes;
  return slot;
}

const std::vector<double>& LatencyBucketsUs() {
  static const std::vector<double>* const buckets = [] {
    auto* b = new std::vector<double>;
    for (int i = 0; i < 24; ++i) b->push_back(static_cast<double>(1u << i));
    return b;
  }();
  return *buckets;
}

const std::vector<double>& LengthBuckets() {
  static const std::vector<double>* const buckets = [] {
    auto* b = new std::vector<double>;
    for (int i = 1; i <= 16; ++i) b->push_back(i);
    for (double v : {24, 32, 48, 64, 96, 128, 256, 1024}) b->push_back(v);
    return b;
  }();
  return *buckets;
}

// ---- Histogram ----

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(double value) {
  const size_t idx =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  // Lock-free running sum; fetch_add on atomic<double> is C++20.
  sum_.fetch_add(value, std::memory_order_relaxed);
  // Racy-but-monotone min/max via CAS loops.
  double seen = min_.load(std::memory_order_relaxed);
  while ((count_.load(std::memory_order_relaxed) == 0 || value < seen) &&
         !min_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while ((count_.load(std::memory_order_relaxed) == 0 || value > seen) &&
         !max_.compare_exchange_weak(seen, value,
                                     std::memory_order_relaxed)) {
  }
  // Count is bumped last with release ordering: a snapshot that reads
  // count first (acquire) then buckets is guaranteed bucket-sum >= count.
  count_.fetch_add(1, std::memory_order_release);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_acquire);
  snap.bounds = bounds_;
  snap.buckets.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = snap.count == 0 ? 0 : min_.load(std::memory_order_relaxed);
  snap.max = snap.count == 0 ? 0 : max_.load(std::memory_order_relaxed);
  return snap;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const uint64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : max;
      const double frac =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      double value = lo + (hi - lo) * std::min(1.0, std::max(0.0, frac));
      return std::min(max, std::max(min, value));
    }
    cumulative += in_bucket;
  }
  return max;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  if (bounds == other.bounds) {
    for (size_t i = 0; i < buckets.size(); ++i) buckets[i] += other.buckets[i];
  } else {
    // Shape mismatch (should not happen for same-named metrics): fold the
    // other side's mass into our overflow bucket so counts stay honest.
    buckets.back() += other.count;
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

// ---- MetricsSnapshot ----

HistogramSnapshot::Percentiles HistogramSnapshot::SummaryPercentiles()
    const {
  Percentiles p;
  p.count = count;
  p.mean = Mean();
  p.p50 = Quantile(0.50);
  p.p95 = Quantile(0.95);
  p.p99 = Quantile(0.99);
  return p;
}

HistogramSnapshot::Percentiles MetricsSnapshot::Percentiles(
    const std::string& name) const {
  auto it = histograms.find(name);
  if (it == histograms.end()) return {};
  return it->second.SummaryPercentiles();
}

bool IsValidMetricName(std::string_view name) {
  // component.noun[_unit]: >= 2 lowercase dot-separated segments, each
  // [a-z][a-z0-9_]*. Underscores separate words within a segment, so a
  // segment may not end in one or contain a run of them ("mw.foo_",
  // "mw.foo__bar") — tightened when the mw.partial.* / mw.recovery.*
  // families joined the registry so their noun_unit suffixes
  // (bytes_sent, buffered_msgs, ...) are lintable, not just legal.
  bool at_segment_start = true;
  bool prev_underscore = false;
  size_t segments = 0;
  for (const char c : name) {
    if (at_segment_start) {
      if (c < 'a' || c > 'z') return false;
      at_segment_start = false;
      prev_underscore = false;
      ++segments;
    } else if (c == '.') {
      if (prev_underscore) return false;  // segment ends in '_'
      at_segment_start = true;
    } else if (c == '_') {
      if (prev_underscore) return false;  // "__" run
      prev_underscore = true;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
      prev_underscore = false;
    } else {
      return false;
    }
  }
  return segments >= 2 && !at_segment_start && !prev_underscore;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name] += value;
  for (const auto& [name, hist] : other.histograms) {
    auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms[name] = hist;
    } else {
      it->second.Merge(hist);
    }
  }
}

namespace {

using json::AppendDouble;
using json::AppendI64;
using json::AppendU64;

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':') {
      c = '_';
    }
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    json::AppendString(&out, name);
    out.push_back(':');
    AppendU64(&out, value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    json::AppendString(&out, name);
    out.push_back(':');
    AppendI64(&out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, hist] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    json::AppendString(&out, name);
    out += ":{\"bounds\":[";
    for (size_t i = 0; i < hist.bounds.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendDouble(&out, hist.bounds[i]);
    }
    out += "],\"buckets\":[";
    for (size_t i = 0; i < hist.buckets.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendU64(&out, hist.buckets[i]);
    }
    out += "],\"count\":";
    AppendU64(&out, hist.count);
    out += ",\"sum\":";
    AppendDouble(&out, hist.sum);
    out += ",\"min\":";
    AppendDouble(&out, hist.min);
    out += ",\"max\":";
    AppendDouble(&out, hist.max);
    out.push_back('}');
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    const std::string pname = PromName(name);
    out += "# TYPE " + pname + " counter\n" + pname + " ";
    AppendU64(&out, value);
    out.push_back('\n');
  }
  for (const auto& [name, value] : gauges) {
    const std::string pname = PromName(name);
    out += "# TYPE " + pname + " gauge\n" + pname + " ";
    AppendI64(&out, value);
    out.push_back('\n');
  }
  for (const auto& [name, hist] : histograms) {
    const std::string pname = PromName(name);
    out += "# TYPE " + pname + " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < hist.bounds.size(); ++i) {
      cumulative += hist.buckets[i];
      out += pname + "_bucket{le=\"";
      AppendDouble(&out, hist.bounds[i]);
      out += "\"} ";
      AppendU64(&out, cumulative);
      out.push_back('\n');
    }
    cumulative += hist.buckets.empty() ? 0 : hist.buckets.back();
    out += pname + "_bucket{le=\"+Inf\"} ";
    AppendU64(&out, cumulative);
    out += "\n" + pname + "_sum ";
    AppendDouble(&out, hist.sum);
    out += "\n" + pname + "_count ";
    AppendU64(&out, hist.count);
    out.push_back('\n');
  }
  return out;
}

namespace {

bool ParseHistogram(const json::Value& v, HistogramSnapshot* hist) {
  using Type = json::Value::Type;
  if (v.type != Type::kObject) return false;
  for (const auto& [field, f] : v.object) {
    if (field == "bounds" || field == "buckets") {
      if (f.type != Type::kArray) return false;
      for (const json::Value& e : f.array) {
        if (field == "buckets") {
          if (!e.AsU64(&hist->buckets.emplace_back())) return false;
        } else if (e.type == Type::kNumber) {
          hist->bounds.push_back(e.number);
        } else {
          return false;
        }
      }
    } else if (field == "count") {
      if (!f.AsU64(&hist->count)) return false;
    } else if (f.type != Type::kNumber) {
      return false;
    } else if (field == "sum") {
      hist->sum = f.number;
    } else if (field == "min") {
      hist->min = f.number;
    } else if (field == "max") {
      hist->max = f.number;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<MetricsSnapshot> MetricsSnapshot::FromJson(const std::string& text) {
  auto parsed = json::Parse(text);
  SIREP_RETURN_IF_ERROR(parsed.status());
  const auto bad = [](const std::string& what) {
    return Status::InvalidArgument("bad metrics JSON: " + what);
  };
  const json::Value& root = parsed.value();
  if (root.type != json::Value::Type::kObject) return bad("not an object");
  MetricsSnapshot snap;
  for (const auto& [section, entries] : root.object) {
    if (section != "counters" && section != "gauges" &&
        section != "histograms") {
      return bad("unknown section '" + section + "'");
    }
    if (entries.type != json::Value::Type::kObject) {
      return bad("section '" + section + "' is not an object");
    }
    for (const auto& [name, v] : entries.object) {
      const bool ok = section == "counters" ? v.AsU64(&snap.counters[name])
                      : section == "gauges"
                          ? v.AsI64(&snap.gauges[name])
                          : ParseHistogram(v, &snap.histograms[name]);
      if (!ok) return bad(section + " entry '" + name + "'");
    }
  }
  return snap;
}

// ---- MetricsRegistry ----

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  assert(IsValidMetricName(name) && "metric name violates component.noun");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  assert(IsValidMetricName(name) && "metric name violates component.noun");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const std::vector<double>& bounds) {
  assert(IsValidMetricName(name) && "metric name violates component.noun");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(bounds))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, hist] : histograms_) {
    snap.histograms[name] = hist->Snapshot();
  }
  return snap;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

// ---- ScopedLatency ----

ScopedLatency::ScopedLatency(Histogram* hist)
    : hist_(hist), start_ns_(hist == nullptr ? 0 : MonotonicNanos()) {}

ScopedLatency::~ScopedLatency() { Stop(); }

void ScopedLatency::Stop() {
  if (hist_ == nullptr) return;
  hist_->Observe(NanosToUs(MonotonicNanos() - start_ns_));
  hist_ = nullptr;
}

}  // namespace sirep::obs
