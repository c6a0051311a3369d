#include "stream.hpp"

#include <map>
#include <set>

#include "support/json.hpp"

namespace perfbench {

StreamLine parse_stream_line(std::string_view line) {
  StreamLine out;
  hls::JsonValue v;
  std::string error;
  if (!hls::parse_json(line, &v, &error) || !v.is_object()) return out;
  if (v.find("stats") != nullptr) {
    out.kind = StreamLine::Kind::kStats;
    return out;
  }
  const hls::JsonValue* job = v.find("job");
  if (job == nullptr || !job->is_number()) return out;
  out.job = job->as_int();
  if (const hls::JsonValue* e = v.find("error"); e != nullptr && e->is_string()) {
    out.kind = StreamLine::Kind::kError;
    out.failure = e->as_string();
    return out;
  }
  if (const hls::JsonValue* d = v.find("done"); d != nullptr && d->as_bool()) {
    out.kind = StreamLine::Kind::kDone;
    return out;
  }
  const hls::JsonValue* point = v.find("point");
  const hls::JsonValue* feasible = v.find("feasible");
  if (point == nullptr || !point->is_number() || feasible == nullptr || !feasible->is_bool()) {
    return out;
  }
  out.point = point->as_int();
  out.feasible = feasible->as_bool();
  auto number = [&](const char* key, double* dst) {
    const hls::JsonValue* n = v.find(key);
    if (n == nullptr || !n->is_number()) return false;
    *dst = n->as_number();
    return true;
  };
  if (!number("tclk_ps", &out.tclk_ps)) return out;
  if (out.feasible) {
    if (!number("delay_ns", &out.delay_ns) || !number("area", &out.area) ||
        !number("power_mw", &out.power_mw)) {
      return out;
    }
  } else {
    const hls::JsonValue* f = v.find("failure");
    if (f == nullptr || !f->is_string()) return out;
    out.failure = f->as_string();
  }
  out.kind = StreamLine::Kind::kPoint;
  return out;
}

std::vector<StreamLine> check_stream(const std::vector<std::string>& lines,
                                     const std::vector<std::int64_t>& job_ids,
                                     Failures* failures) {
  std::vector<StreamLine> parsed;
  parsed.reserve(lines.size());
  const std::set<std::int64_t> submitted(job_ids.begin(), job_ids.end());
  std::map<std::int64_t, int> done;
  for (const std::int64_t id : submitted) done[id] = 0;
  for (const std::string& line : lines) {
    StreamLine l = parse_stream_line(line);
    switch (l.kind) {
      case StreamLine::Kind::kMalformed:
        ++failures->stream_malformed;
        break;
      case StreamLine::Kind::kError:
        ++failures->unexpected_code;
        break;
      case StreamLine::Kind::kDone:
        ++done[l.job];
        break;
      case StreamLine::Kind::kPoint:
        if (classify_failure(l.failure) == Outcome::kFailed) ++failures->unexpected_code;
        break;
      case StreamLine::Kind::kStats:
        break;
    }
    parsed.push_back(std::move(l));
  }
  for (const auto& [id, count] : done) {
    // A done line for a job nobody submitted is as malformed as a missing one.
    if (count == 0) ++failures->missing_done;
    if (count > 1 || submitted.count(id) == 0) {
      ++failures->stream_malformed;
    }
  }
  return parsed;
}

}  // namespace perfbench
