#include "trace.h"

#include <cstdio>
#include <utility>

namespace perfbench {

std::map<std::string, double> Tracer::MeanUs() const {
  std::map<std::string, std::pair<double, int64_t>> acc;
  for (const Span& s : spans()) {
    auto& a = acc[s.name];
    a.first += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    a.second += 1;
  }
  std::map<std::string, double> out;
  for (const auto& [name, a] : acc) out[name] = a.first / static_cast<double>(a.second);
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const Span& s : spans()) {
    std::fprintf(f, "%lld\t%lld\t%lld\t%s\t%lld\t%lld\n",
                 static_cast<long long>(s.id), static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name.c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
