#include "trace.hpp"

#include <fstream>
#include <unordered_map>

#include "support/json.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, std::string_view name, std::int64_t request) {
  if (!tracer->enabled_) return;
  tracer_ = tracer;
  index_ = tracer->spans_.size();
  Span s;
  s.name = std::string(name);
  s.id = static_cast<std::uint32_t>(index_ + 1);
  s.parent = tracer->open_.empty() ? 0 : tracer->spans_[tracer->open_.back()].id;
  s.request = request;
  s.start_us = tracer->now_us();
  tracer->spans_.push_back(std::move(s));
  tracer->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& s = tracer_->spans_[index_];
  s.dur_us = tracer_->now_us() - s.start_us;
  tracer_->open_.pop_back();
}

void Tracer::Scope::detail(std::string text) {
  if (tracer_ != nullptr) tracer_->spans_[index_].detail = std::move(text);
}

void Tracer::Scope::count(std::string key, double value) {
  if (tracer_ != nullptr) tracer_->spans_[index_].counts.emplace_back(std::move(key), value);
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

bool Tracer::write_chrome(const std::string& path, const std::string& metadata_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json << ",\"traceEvents\":[\n";
  out << R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"benchmark"}})";
  for (const Span& s : spans_) {
    hls::JsonWriter w;
    w.begin_object();
    w.key("name"), w.value(s.name);
    w.key("cat"), w.value(layer_of(s.name));
    w.key("ph"), w.value("X");
    w.key("pid"), w.value(1);
    w.key("tid"), w.value(1);
    w.key("ts"), w.value(s.start_us);
    w.key("dur"), w.value(s.dur_us);
    w.key("args");
    w.begin_object();
    w.key("id"), w.value(static_cast<std::uint64_t>(s.id));
    w.key("parent"), w.value(static_cast<std::uint64_t>(s.parent));
    w.key("request"), w.value(s.request);
    if (!s.detail.empty()) w.key("detail"), w.value(s.detail);
    for (const auto& [key, value] : s.counts) w.key(key), w.value(value);
    w.end_object();
    w.end_object();
    out << ",\n" << w.str();
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

std::string_view layer_of(std::string_view span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::map<std::string, double> layer_self_seconds(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) child_us[s.parent] += s.dur_us;
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    const auto it = child_us.find(s.id);
    const double covered = it == child_us.end() ? 0 : it->second;
    self[std::string(layer_of(s.name))] += (s.dur_us - covered) * 1e-6;
  }
  return self;
}

double span_seconds(const std::vector<Span>& spans, std::string_view name) {
  double us = 0;
  for (const Span& s : spans) {
    if (s.name == name) us += s.dur_us;
  }
  return us * 1e-6;
}

}  // namespace perfbench
