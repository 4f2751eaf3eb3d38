#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<uint64_t> t_open_stack;

uint32_t ThreadNumber() {
  static std::mutex mu;
  static uint32_t next = 0;
  thread_local uint32_t mine = [] {
    std::lock_guard<std::mutex> lock(mu);
    return next++;
  }();
  return mine;
}

std::string LayerOf(const std::string& name) {
  const size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable(bool on) { enabled_ = on; }

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::Begin(const char* name, uint64_t trace_id) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.parent = t_open_stack.empty() ? 0 : t_open_stack.back();
  span.tid = ThreadNumber();
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  span.id = id;
  if (trace_id == 0 && span.parent != 0) {
    auto it = open_.find(span.parent);
    if (it != open_.end()) trace_id = it->second.trace_id;
  }
  span.trace_id = trace_id;
  t_open_stack.push_back(id);
  span.start_ns = NowNs();
  open_.emplace(id, std::move(span));
  return id;
}

void Tracer::End(uint64_t id) {
  if (id == 0) return;
  const int64_t now = NowNs();
  if (!t_open_stack.empty() && t_open_stack.back() == id) {
    t_open_stack.pop_back();
  } else {
    t_open_stack.erase(
        std::remove(t_open_stack.begin(), t_open_stack.end(), id),
        t_open_stack.end());
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  it->second.end_ns = now;
  closed_.push_back(std::move(it->second));
  open_.erase(it);
}

std::vector<Tracer::Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t Tracer::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_.size();
}

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  const std::vector<Span> spans = Spans();
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<int64_t, int64_t>> cover;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const int64_t lo = std::max(c->start_ns, s.start_ns);
        const int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = -1;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    const int64_t self = (s.end_ns - s.start_ns) - covered;
    out[LayerOf(s.name)] += static_cast<double>(std::max<int64_t>(self, 0)) * 1e-9;
  }
  return out;
}

bool Tracer::WriteChromeJson(
    const std::string& path,
    const std::map<std::string, std::string>& metadata) const {
  const std::vector<Span> spans = Spans();
  int64_t origin = 0;
  for (const Span& s : spans) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"trace_id\":%llu}}%s\n",
                 JsonEscape(s.name).c_str(), JsonEscape(LayerOf(s.name)).c_str(),
                 s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace_id),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "],\"displayTimeUnit\":\"ms\",\"otherData\":{");
  size_t k = 0;
  for (const auto& [key, value] : metadata) {
    std::fprintf(f, "%s\"%s\":\"%s\"", k++ == 0 ? "" : ",",
                 JsonEscape(key).c_str(), JsonEscape(value).c_str());
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
