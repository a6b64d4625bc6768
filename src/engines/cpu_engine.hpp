/// \file cpu_engine.hpp
/// The paper's CPU comparator: "a bespoke version of the engine in C++",
/// multi-threaded on a 24-core Xeon Platinum 8260M.
///
/// This engine *really executes*: it prices with native code and reports
/// measured wall-clock time. Its grammar is kernel x mode (CpuKernel x
/// risk_mode). The kernels:
///
///   * kReference (default) -- the paper's naive comparator: per-option
///     schedule allocation avoided via a reused buffer, but per-point
///     O(knots) curve scans and exps exactly as the reference model
///     performs them;
///   * kBatch -- the batched SoA fast path (cds::BatchPricer): schedule
///     dedup + precomputed curve grids, the host-side counterpart of the
///     paper's dataflow restructuring. Spreads are identical to the
///     reference kernel (well under 1e-9 relative; see batch_pricer.hpp), so
///     "cpu-batch" runs merge bit-identically in the sharded runtime;
///   * kVector -- the batch kernel with its tabulation and combine passes
///     running on the SIMD vector kernels at the host's best level
///     (cds/vector_kernel.hpp; AVX-512 8 lanes, AVX2 4 lanes, scalar
///     fallback). The CPU analogue of the paper's Fig. 3 lane replication
///     (hls/replicate.hpp); precision contract in cds::VectorKernelContract
///     and docs/VECTOR_LANES.md;
///   * kSweep -- the scenario-sweep family (cds::SweepPricer /
///     runtime::SweepRuntime). For a plain price() call a sweep engine is the
///     vector kernel, bit for bit -- one scenario on the base curves IS the
///     batch tabulation -- so the kernel only changes the name and lets the
///     registry/planner construct, round-trip and probe sweep candidates
///     through the standard CPU grammar.
///
/// Any kernel can additionally run in *risk mode* (config.risk_mode,
/// registry names "cpu-risk" / "cpu-batch-risk" / ...): the run then carries
/// per-option CS01/IR01/Rec01/JTD (and optionally a bucketed CS01 ladder)
/// next to the spreads -- the reference kernel by per-option bumped
/// repricing, the batch kernels by bumping each unique schedule grid once
/// (BatchPricer::price_with_sensitivities). The risk config is fixed at
/// construction, so the batch kernels' bumped curves (cds::RiskCurveSet)
/// are built there once and shared by every price() call; like the base
/// grids, their columns search through the BatchPricer's knot tables, built
/// once per engine.
///
/// The engine is single-threaded. The paper's replication -- "splitting the
/// entire set up into N chunks" over concurrent engines -- lives outside
/// it, in the runtime lanes (runtime::PortfolioRuntime / SweepRuntime /
/// StreamRuntime, RuntimeConfig::workers): N CpuEngine replicas priced on
/// contiguous shards reproduce a single engine bit for bit.

#pragma once

#include <memory>
#include <optional>

#include "cds/batch_pricer.hpp"
#include "cds/curve.hpp"
#include "cds/pricer.hpp"
#include "engines/engine.hpp"

namespace cdsflow::engine {

/// The CPU kernel a CpuEngine prices with (registry token in brackets).
enum class CpuKernel {
  kReference,  ///< "cpu": scalar reference math, the naive comparator.
  kBatch,      ///< "cpu-batch": batched SoA fast path, scalar level.
  kVector,     ///< "cpu-vec": the batch kernel on the SIMD lanes.
  kSweep,      ///< "cpu-sweep": scenario-sweep family; price() == kVector.
};

/// The SIMD tier a kernel runs its batch passes at: kVector and kSweep run
/// at simd::active_level() (post hardware/CDSFLOW_SIMD clamp), the others
/// at kScalar. On a host without SIMD support -- or under
/// CDSFLOW_SIMD=scalar / -DCDSFLOW_DISABLE_SIMD -- the vector kernels
/// therefore degrade to exactly the batch kernel, bit for bit. The one
/// place the kernel -> level rule lives: the engine, the stream runtime and
/// the stream-fit calibration all ask here.
cds::simd::Level simd_level(CpuKernel kernel);

struct CpuEngineConfig {
  CpuKernel kernel = CpuKernel::kReference;
  /// Compute per-option sensitivities (CS01/IR01/Rec01/JTD, plus the CS01
  /// ladder when ladder_edges is set) instead of spreads alone. With the
  /// reference kernel this loops compute_sensitivities/cs01_ladder per
  /// option (the naive post-pricing workflow); with the batch kernels it
  /// runs BatchPricer::price_with_sensitivities over the precomputed grids.
  /// run.results still carries (id, spread), so risk runs merge through the
  /// sharded runtime unchanged.
  bool risk_mode = false;
  /// Central-difference bump for risk mode (compute_sensitivities default).
  double risk_bump = 1e-4;
  /// CS01 ladder bucket edges for risk mode; empty disables the ladder.
  std::vector<double> ladder_edges = {};
};

class CpuEngine final : public Engine {
 public:
  CpuEngine(cds::TermStructure interest, cds::TermStructure hazard,
            CpuEngineConfig config = {});

  std::string name() const override;
  std::string description() const override;

  PricingRun price(const std::vector<cds::CdsOption>& options) override;

  /// The SIMD tier the kernel actually runs at (simd_level(kernel)).
  cds::simd::Level kernel_level() const { return kernel_level_; }
  bool risk_mode() const { return risk_; }

 private:
  /// Reusable scratch: the batch (risk) workspace or the scalar schedule
  /// buffer, whichever kernel/mode is active.
  struct Scratch {
    cds::BatchPricer::Workspace batch;
    cds::BatchPricer::RiskWorkspace risk;
    std::vector<cds::TimePoint> schedule;
  };

  /// Prices `options` into run.results (and, in risk mode,
  /// run.sensitivities / run.cs01_ladder) with the configured kernel.
  void price_book(const std::vector<cds::CdsOption>& options,
                  PricingRun& run);

  cds::ReferencePricer pricer_;
  /// Present only when a batch kernel (kBatch, kVector, kSweep) is selected.
  std::unique_ptr<cds::BatchPricer> batch_pricer_;
  /// Kept warm across price() calls (an engine object is never priced on
  /// concurrently; runtime replicas are separate objects).
  Scratch scratch_;
  cds::BatchRiskConfig risk_config_;
  /// Batch-kernel risk mode only: the bumped curves of risk_config_.
  std::optional<cds::RiskCurveSet> risk_curves_;
  CpuKernel kernel_;
  bool risk_ = false;
  cds::simd::Level kernel_level_ = cds::simd::Level::kScalar;
};

}  // namespace cdsflow::engine
