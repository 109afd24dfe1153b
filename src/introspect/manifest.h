// manifest.h - Run provenance: one manifest.json per experiment artifact.
//
// Diagnosis artifacts (result JSON, checkpoint journals, explain reports,
// trace/metrics captures) are only trustworthy together with the exact
// configuration that produced them.  The manifest stamps that identity:
// the experiment fingerprint (the same hash the checkpoint journal is
// keyed by, exposed everywhere as the 16-hex-digit run id), the seed and
// sample counts, the thread count and git SHA of the producing build,
// FNV-1a hashes of every input file, the fault-injection spec that was
// active, and the quarantine/resume state of the run.  Artifacts sharing a
// run id were computed from the same (circuit, config) and are therefore
// cross-linkable: a checkpoint journal, a result JSON and an explain
// report with equal run ids describe the same deterministic computation.
//
// The manifest deliberately records *how* the run executed (threads,
// faults, resume counts), so unlike the result JSON it is not expected to
// be byte-identical across thread counts; the run id inside it is.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sddd::introspect {

/// FNV-1a 64 hash of a file's bytes; `size_out` (optional) receives the
/// byte count.  Throws sddd::IoError when the file cannot be read.
std::uint64_t fnv1a_file(const std::string& path,
                         std::uint64_t* size_out = nullptr);

struct RunManifest {
  std::string tool;      ///< producing command, e.g. "sddd_cli diagnose"
  std::string circuit;
  std::string run_id;    ///< hex64 experiment fingerprint
  std::uint64_t seed = 0;
  std::size_t mc_samples = 0;
  std::size_t n_chips = 0;
  std::size_t threads = 0;   ///< resolved runtime thread count
  std::string git_sha;       ///< SDDD_GIT_SHA env or "unknown"
  std::string faults;        ///< active SDDD_FAULTS spec, empty = none
  std::size_t quarantined_trials = 0;
  std::size_t resumed_trials = 0;
  std::size_t skipped_trials = 0;
  bool degraded = false;

  struct InputFile {
    std::string path;
    std::string fnv1a;       ///< hex64 content hash
    std::uint64_t bytes = 0;
  };
  std::vector<InputFile> inputs;

  struct Artifact {
    std::string kind;        ///< "result_json", "checkpoint", "explain", ...
    std::string path;
  };
  std::vector<Artifact> artifacts;
};

/// Renders the manifest as pretty-printed JSON (deterministic field
/// order).
std::string manifest_to_json(const RunManifest& m);

/// Atomically writes manifest_to_json(m) to `path`
/// (obs::atomic_write_file_or_throw).
void write_manifest(const RunManifest& m, const std::string& path);

}  // namespace sddd::introspect
