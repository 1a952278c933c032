#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

// Spans this thread has open, innermost last, tagged with their tracer.
thread_local std::vector<std::pair<const Tracer*, int64_t>> open_spans;

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

double Tracer::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int64_t Tracer::Begin(const std::string& name, uint64_t op_id) {
  if (!recording()) return -1;
  int64_t parent = -1;
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  const double now = Now();
  int64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (op_id == 0 && parent >= 0) op_id = spans_[parent].op_id;
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back(Span{name, now, now, parent, op_id});
  }
  open_spans.emplace_back(this, id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const double now = Now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[id].end_s = now;
  }
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this && it->second == id) {
      open_spans.erase(std::next(it).base());
      break;
    }
  }
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size()) {
      children[span.parent].emplace_back(span.start_s, span.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = lo;  // end of the union covered so far
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, std::pair<double, size_t>> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, std::pair<double, size_t>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& entry = by_name[spans[i].name];
    entry.first += self[i];
    ++entry.second;
  }
  return by_name;
}

bool WriteSpansJson(const std::string& path, const std::string& header_json,
                    const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<double> self = SelfTimes(spans);
  std::fprintf(out, "{\"run\": %s,\n\"self_time_s\": {", header_json.c_str());
  bool first = true;
  for (const auto& [name, entry] : SelfTimeByName(spans)) {
    std::fprintf(out, "%s\n  \"%s\": {\"self_s\": %.9f, \"spans\": %zu}",
                 first ? "" : ",", name.c_str(), entry.first, entry.second);
    first = false;
  }
  std::fprintf(out, "},\n\"spans\": [");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                 "\"end_s\": %.9f, \"self_s\": %.9f, \"parent\": %lld, "
                 "\"op\": %llu}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.start_s, s.end_s,
                 self[i], static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op_id));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
