#include "spans.h"

#include <cstdio>
#include <cstring>

namespace perfbench {

Spans::Spans(bool enabled) : enabled_(enabled), t0_(std::chrono::steady_clock::now()) {}

double Spans::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0_)
      .count();
}

int Spans::open(const char* name, int64_t call) {
  const int parent = open_.empty() ? -1 : open_.back();
  if (call < 0) call = parent >= 0 ? wall_[static_cast<std::size_t>(parent)].call : 0;
  wall_.push_back(Span{name, now_us(), -1.0, parent, call});
  open_.push_back(static_cast<int>(wall_.size()) - 1);
  return open_.back();
}

void Spans::close(int index) {
  wall_[static_cast<std::size_t>(index)].end_us = now_us();
  // Scopes nest, so the span being closed is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int Spans::add_virtual(const char* name, double start_ms, double end_ms, int64_t request,
                       int parent) {
  virtual_.push_back(Span{name, start_ms * 1000.0, end_ms * 1000.0, parent, request});
  return static_cast<int>(virtual_.size()) - 1;
}

namespace {

void write_event(std::FILE* f, bool& first, int pid, int index, const char* name, double start,
                 double end, int parent, int64_t call) {
  const char* dot = std::strchr(name, '.');
  const std::string layer = dot ? std::string(name, dot) : std::string(name);
  std::fprintf(f,
               "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":1,"
               "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"call\":%lld}}",
               first ? "" : ",", name, layer.c_str(), pid, start, end - start, index, parent,
               static_cast<long long>(call));
  first = false;
}

}  // namespace

bool Spans::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  std::fprintf(f,
               "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"wall clock (benchmark calls)\"}},"
               "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
               "\"args\":{\"name\":\"virtual time (serving requests, model ms)\"}}");
  first = false;
  for (std::size_t i = 0; i < wall_.size(); ++i) {
    const Span& s = wall_[i];
    write_event(f, first, 1, static_cast<int>(i), s.name, s.start_us, s.end_us, s.parent,
                s.call);
  }
  for (std::size_t i = 0; i < virtual_.size(); ++i) {
    const Span& s = virtual_[i];
    write_event(f, first, 2, static_cast<int>(i), s.name, s.start_us, s.end_us, s.parent,
                s.call);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
