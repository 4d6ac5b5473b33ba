#pragma once

/// In-memory span recorder for the pipeline benchmark.
///
/// pipebench wraps every call it makes into a chisimnet layer in a Span.
/// A Span always measures its own wall time (two steady_clock reads), so
/// the untraced run times its phases with the same code; only when the
/// Tracer is enabled is the span kept, with its parent link, and written
/// out as Chrome trace-event JSON when the run ends.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pipebench {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  double startUs = 0.0;      ///< since the tracer was created
  double durUs = 0.0;
  /// true: placed from a per-stage total the library reports
  /// (SynthesisReport), not timed around a call by pipebench.
  bool reported = false;
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double nowUs() const noexcept {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  /// Opens a span under the innermost open one; returns its id (0 when
  /// tracing is off).
  std::uint64_t open(const std::string& name, double startUs) {
    if (!enabled_) {
      return 0;
    }
    SpanRecord record;
    record.name = name;
    record.id = ++lastId_;
    record.parent = stack_.empty() ? 0 : stack_.back();
    record.startUs = startUs;
    spans_.push_back(std::move(record));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(std::uint64_t id, double endUs,
             std::vector<std::pair<std::string, double>> args) {
    if (!enabled_ || id == 0) {
      return;
    }
    SpanRecord& record = spans_[id - 1];  // ids are 1-based positions
    record.durUs = endUs - record.startUs;
    record.args = std::move(args);
    if (!stack_.empty() && stack_.back() == id) {
      stack_.pop_back();
    }
  }

  /// Adds a closed child of `parent` whose duration comes from a report.
  void addReported(const std::string& name, std::uint64_t parent,
                   double startUs, double seconds) {
    if (!enabled_ || parent == 0) {
      return;
    }
    SpanRecord record;
    record.name = name;
    record.id = ++lastId_;
    record.parent = parent;
    record.startUs = startUs;
    record.durUs = seconds * 1e6;
    record.reported = true;
    spans_.push_back(std::move(record));
  }

  /// Σ duration in seconds per span name over the spans with id > `after`
  /// (the spans of one pass when `after` is the id before it began).
  std::map<std::string, double> secondsByName(std::uint64_t after) const {
    std::map<std::string, double> totals;
    for (const SpanRecord& record : spans_) {
      if (record.id > after) {
        totals[record.name] += record.durUs * 1e-6;
      }
    }
    return totals;
  }

  std::uint64_t lastId() const noexcept { return lastId_; }
  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// Chrome trace-event JSON (load in chrome://tracing or Perfetto). All
  /// spans share one lane, nested by time; the parent link rides in
  /// args.parent.
  void write(const std::string& path,
             const std::vector<std::pair<std::string, std::string>>& meta)
      const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    for (std::size_t k = 0; k < meta.size(); ++k) {
      out << (k == 0 ? "" : ",") << '"' << meta[k].first << "\":\""
          << meta[k].second << '"';
    }
    out << "},\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord& record : spans_) {
      const std::string layer = record.name.substr(0, record.name.find('.'));
      out << (first ? "" : ",") << "\n{\"name\":\"" << record.name
          << "\",\"cat\":\"" << layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
          << ",\"ts\":" << record.startUs << ",\"dur\":" << record.durUs
          << ",\"args\":{\"id\":" << record.id << ",\"parent\":"
          << record.parent << ",\"reported\":"
          << (record.reported ? "true" : "false");
      for (const auto& [key, value] : record.args) {
        out << ",\"" << key << "\":" << value;
      }
      out << "}}";
      first = false;
    }
    out << "\n]}\n";
  }

 private:
  using Clock = std::chrono::steady_clock;
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::uint64_t lastId_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint64_t> stack_;
};

/// Times one layer call, with tracing on or off; close() returns seconds.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name)
      : tracer_(tracer), startUs_(tracer.nowUs()),
        id_(tracer.open(name, startUs_)) {}

  ~Span() { close(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const std::string& key, double value) {
    args_.emplace_back(key, value);
  }

  double close() {
    if (!closed_) {
      const double endUs = tracer_.nowUs();
      seconds_ = (endUs - startUs_) * 1e-6;
      tracer_.close(id_, endUs, std::move(args_));
      closed_ = true;
    }
    return seconds_;
  }

  double startUs() const noexcept { return startUs_; }
  std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  double startUs_;
  std::uint64_t id_;
  std::vector<std::pair<std::string, double>> args_;
  double seconds_ = 0.0;
  bool closed_ = false;
};

}  // namespace pipebench
