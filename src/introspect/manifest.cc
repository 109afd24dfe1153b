#include "introspect/manifest.h"

#include <fstream>
#include <sstream>

#include "obs/atomic_file.h"
#include "obs/codec.h"
#include "obs/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sddd::introspect {

namespace {

obs::Counter& manifest_written_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::instance().register_counter("introspect.manifests");
  return c;
}

}  // namespace

std::uint64_t fnv1a_file(const std::string& path, std::uint64_t* size_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw IoError("manifest: cannot read input file " + path);
  }
  std::uint64_t h = obs::kPersistedFnvSeed;
  std::uint64_t bytes = 0;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    const auto got = static_cast<std::size_t>(in.gcount());
    h = obs::fnv1a64(std::string_view(buf, got), h);
    bytes += got;
  }
  if (size_out != nullptr) *size_out = bytes;
  return h;
}

std::string manifest_to_json(const RunManifest& m) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"sddd-manifest-v1\",\n";
  os << "  \"tool\": " << obs::json_string(m.tool) << ",\n";
  os << "  \"circuit\": " << obs::json_string(m.circuit) << ",\n";
  os << "  \"run_id\": " << obs::json_string(m.run_id) << ",\n";
  os << "  \"seed\": " << m.seed << ",\n";
  os << "  \"mc_samples\": " << m.mc_samples << ",\n";
  os << "  \"n_chips\": " << m.n_chips << ",\n";
  os << "  \"threads\": " << m.threads << ",\n";
  os << "  \"git_sha\": " << obs::json_string(m.git_sha) << ",\n";
  os << "  \"faults\": " << obs::json_string(m.faults) << ",\n";
  os << "  \"quarantined_trials\": " << m.quarantined_trials << ",\n";
  os << "  \"resumed_trials\": " << m.resumed_trials << ",\n";
  os << "  \"skipped_trials\": " << m.skipped_trials << ",\n";
  os << "  \"degraded\": " << (m.degraded ? "true" : "false") << ",\n";
  os << "  \"inputs\": [";
  for (std::size_t i = 0; i < m.inputs.size(); ++i) {
    const auto& f = m.inputs[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"path\": "
       << obs::json_string(f.path)
       << ", \"fnv1a\": " << obs::json_string(f.fnv1a)
       << ", \"bytes\": " << f.bytes << "}";
  }
  os << (m.inputs.empty() ? "" : "\n  ") << "],\n";
  os << "  \"artifacts\": [";
  for (std::size_t i = 0; i < m.artifacts.size(); ++i) {
    const auto& a = m.artifacts[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"kind\": "
       << obs::json_string(a.kind)
       << ", \"path\": " << obs::json_string(a.path) << "}";
  }
  os << (m.artifacts.empty() ? "" : "\n  ") << "]\n";
  os << "}\n";
  return os.str();
}

void write_manifest(const RunManifest& m, const std::string& path) {
  SDDD_SPAN(span, "introspect.manifest");
  span.arg("run_id", std::string_view(m.run_id));
  obs::atomic_write_file_or_throw(path, manifest_to_json(m));
  manifest_written_counter().add(1);
}

}  // namespace sddd::introspect
