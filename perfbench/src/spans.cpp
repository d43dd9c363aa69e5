#include "spans.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "common/json.hpp"

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder& rec, const char* name) {
  if (!rec.enabled_) return;
  rec_ = &rec;
  index_ = static_cast<int>(rec.spans_.size());
  rec.spans_.push_back(Span{name, rec.now_ns(), 0, rec.open_, rec.item_});
  rec.open_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  Span& s = rec_->spans_[static_cast<std::size_t>(index_)];
  s.end_ns = rec_->now_ns();
  rec_->open_ = s.parent;
}

std::map<std::string, SelfTime> SpanRecorder::self_times() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SelfTime& t = out[s.name];
    t.calls++;
    t.total_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    t.self_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
  }
  return out;
}

std::vector<double> SpanRecorder::durations_s(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (name == s.name)
      out.push_back(1e-9 * static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

namespace {

std::ofstream open_out(const std::filesystem::path& path) {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path.string());
  return os;
}

} // namespace

void SpanRecorder::write_chrome_trace(const std::filesystem::path& path) const {
  std::ofstream os = open_out(path);
  esarp::JsonWriter w(os, 0);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  w.begin_object();
  w.kv("ph", "M");
  w.kv("pid", 1);
  w.kv("tid", 1);
  w.kv("name", "thread_name");
  w.key("args");
  w.begin_object();
  w.kv("name", "perfbench");
  w.end_object();
  w.end_object();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", 1);
    w.kv("name", s.name);
    w.kv("ts", 1e-3 * static_cast<double>(s.start_ns));
    w.kv("dur", 1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    w.key("args");
    w.begin_object();
    w.kv("id", static_cast<std::uint64_t>(i));
    w.kv("parent", s.parent);
    w.kv("item", s.item);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

void SpanRecorder::write_self_time_table(const std::filesystem::path& path,
                                         double traced_wall_s,
                                         double overhead_s) const {
  std::ofstream os = open_out(path);
  os << "span\tcalls\ttotal_s\tself_s\tself_share\n";
  os << std::setprecision(9);
  double self_sum = 0.0;
  for (const auto& [name, t] : self_times()) {
    os << name << '\t' << t.calls << '\t' << t.total_s << '\t' << t.self_s
       << '\t' << (traced_wall_s > 0.0 ? t.self_s / traced_wall_s : 0.0)
       << '\n';
    self_sum += t.self_s;
  }
  os << "# self_sum_s\t" << self_sum << "\n# traced_wall_s\t" << traced_wall_s
     << "\n# trace_overhead_s_per_round\t" << overhead_s << '\n';
}

} // namespace perfbench
