// score_kernel.h - The per-chip scoring loop and its hot path: phi for a
// whole suspect block against one chip's bit-packed behavior column.
//
// score_suspects() is Algorithm E.1 steps 5-8 (F.1 for Alg_rev), written
// once.  Per pattern it packs B's column, asks a ColumnSource for every
// suspect's column, evaluates phi once per distinct column and feeds each
// suspect's ScoreAccumulators in pattern order.  Two sources exist: the
// SignatureCache (Diagnoser::diagnose, columns built on demand from the
// dictionary simulator) and the mmapped dictionary store
// (StoreQueryEngine::diagnose).  The loop runs on the caller's thread.
//
// The scalar reference is phi() in error_fn.h: per suspect, a product over
// primary outputs k of (b_k ? s_k : 1 - s_k).  The kernel evaluates
// kKernelLanes suspects at a time, each lane keeping its own independent
// accumulator chain over a contiguous (suspect-major SoA) signature
// column, and reads the chip's b bits from a 64-bit packed column.
//
// Bit-identity argument (DESIGN.md section 12): each lane multiplies its
// factors in exactly the scalar loop's output order, the factor is the
// same select between s and 1 - s (never an arithmetic blend like
// (1 - s) + b * (2s - 1), which rounds differently), and lanes never mix,
// so every phi the kernel produces equals the scalar phi() bit for bit.
// The independence of the 8 accumulator chains is what keeps the FP
// pipeline fed - the multiply latency of one chain hides behind the other
// seven - without reassociating any suspect's own product.
//
// The kernel performs no per-call contract scan and no per-suspect counter
// update: columns are validated once at cache-ingest time (see
// signature_matrix.h) and score_suspects() batches diag.phi_evals per
// pattern via note_phi_evals().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "diagnosis/behavior.h"
#include "diagnosis/diagnoser.h"

namespace sddd::diagnosis {

/// One chip behavior column B[:, j] packed one bit per primary output.
class PackedBColumn {
 public:
  PackedBColumn() = default;

  /// Packs column `pattern` of B, reusing the word storage across calls.
  void pack(const BehaviorMatrix& B, std::size_t pattern);

  std::size_t bit_count() const { return n_; }

  bool test(std::size_t k) const {
    return ((words_[k >> 6] >> (k & 63)) & 1U) != 0;
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Suspects evaluated per block of independent accumulator chains.
inline constexpr std::size_t kKernelLanes = 8;

/// phi for `n_cols` suspects: cols[i] is suspect i's signature/E column of
/// `n_outputs` doubles, `b` the packed chip column (bit_count() must be
/// n_outputs), out[i] the resulting phi - bit-identical to
/// phi(cols[i], b_unpacked) minus that function's per-call contract scan
/// and counter update (see header comment).
void phi_block(const double* const* cols, std::size_t n_cols,
               std::size_t n_outputs, const PackedBColumn& b, double* out);

/// Where score_suspects() reads suspect columns, one pattern at a time.
class ColumnSource {
 public:
  virtual ~ColumnSource() = default;

  /// Writes the column of suspects[i] under pattern `j` into out[i]: |O|
  /// doubles that stay valid while the source lives.  Returns the column
  /// shared by every suspect the pattern does not sensitize (their E
  /// column is the baseline M column, their S column is zero), or nullptr
  /// when the source hands each suspect its own column.
  virtual const double* columns(std::size_t j,
                                std::span<const netlist::ArcId> suspects,
                                std::vector<const double*>& out) const = 0;
};

/// Scores result.suspects under result.methods against B (Algorithm E.1
/// steps 5-8, F.1 for Alg_rev) and fills result.scores, result.keys and,
/// with `capture_phi`, result.phi.  The suspects holding the source's
/// shared column get one phi evaluation between them.  Every suspect's
/// accumulators see its phi values in pattern order, so the result is
/// bit-identical whichever source supplies the (equal) columns.
void score_suspects(const ColumnSource& source, const BehaviorMatrix& B,
                    bool capture_phi, DiagnosisResult& result);

}  // namespace sddd::diagnosis
