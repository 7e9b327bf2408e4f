#include "harness/trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

int Tracer::begin(const char* name, std::uint64_t request, int parent) {
  spans_.push_back(Span{name, nowNs(), 0, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
  spans_[static_cast<std::size_t>(span)].endNs = nowNs();
}

int Tracer::add(const char* name, std::int64_t startNs, std::int64_t endNs,
                std::uint64_t request, int parent) {
  spans_.push_back(Span{name, startNs, endNs, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::count(const char* name, std::uint64_t request, double value) {
  counts_.push_back(Count{name, request, value});
}

double Tracer::totalUs(const std::string& name) const {
  double ns = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) ns += static_cast<double>(s.endNs - s.startNs);
  return ns / 1e3;
}

double Tracer::totalCount(const std::string& name) const {
  double sum = 0.0;
  for (const Count& c : counts_)
    if (name == c.name) sum += c.value;
  return sum;
}

std::map<std::string, double> Tracer::selfUs() const {
  // Children of one span never overlap (every span is opened and closed
  // on one thread, in sequence), so the covered time is their sum.
  std::vector<double> childNs(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      childNs[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.endNs - s.startNs);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[spans_[i].name] +=
        (static_cast<double>(spans_[i].endNs - spans_[i].startNs) -
         childNs[i]) /
        1e3;
  return self;
}

bool Tracer::write(const std::string& stem, const std::string& header) const {
  std::ofstream spans(stem + ".spans.tsv");
  if (!spans) return false;
  spans << "# " << header << "\n# span\tname\tstart_ns\tend_ns\tparent\trequest\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    spans << "span\t" << s.name << '\t' << s.startNs << '\t' << s.endNs << '\t'
          << s.parent << '\t' << s.request << '\n';
  }
  spans << "# count\tname\tvalue\t-\t-\trequest\n";
  for (const Count& c : counts_)
    spans << "count\t" << c.name << '\t' << c.value << "\t-\t-\t" << c.request
          << '\n';

  std::ofstream summary(stem + ".summary.json");
  if (!summary) return false;
  std::map<std::string, std::pair<double, std::size_t>> total;
  for (const Span& s : spans_) {
    auto& [us, n] = total[s.name];
    us += static_cast<double>(s.endNs - s.startNs) / 1e3;
    ++n;
  }
  const std::map<std::string, double> self = selfUs();
  summary << "{\"fingerprint\": " << header << ", \"spans\": {";
  bool first = true;
  for (const auto& [name, agg] : total) {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n  \"%s\": {\"count\": %zu, \"total_us\": %.3f, "
                  "\"self_us\": %.3f}",
                  first ? "" : ",", name.c_str(), agg.second, agg.first,
                  self.at(name));
    summary << line;
    first = false;
  }
  summary << "\n}}\n";
  return static_cast<bool>(spans) && static_cast<bool>(summary);
}

}  // namespace perfbench
