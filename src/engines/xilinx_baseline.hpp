/// \file xilinx_baseline.hpp
/// Model of the original Xilinx Vitis library CDS engine (paper Fig. 1).
///
/// The open-source library engine favours "flexibility and ease of
/// integration over performance": each model component is a separate
/// pipelined loop, the loops run *sequentially* communicating through
/// arrays, the engine processes one option per kernel invocation, and the
/// hazard accumulation's carried double-precision add forces II=7 on its
/// scan. Total option cost is therefore the *sum* of the component spans
/// (contrast the dataflow engines, where it is the maximum), plus the
/// per-option kernel restart.
///
/// Cycles are charged per the loop model (option_stage_spans); with a trace
/// attached the engine emits the strictly sequential stage timeline of
/// Fig. 1. Values come from a scalar-level cds::BatchPricer built once per
/// engine, which is bit-identical to the golden ReferencePricer by its
/// documented contract (the in-order summation the library uses), so the
/// host does not repeat the O(knots) scans whose cycles the model charges.

#pragma once

#include "cds/batch_pricer.hpp"
#include "cds/curve.hpp"
#include "engines/engine.hpp"

namespace cdsflow::engine {

class XilinxBaselineEngine final : public Engine {
 public:
  XilinxBaselineEngine(cds::TermStructure interest, cds::TermStructure hazard,
                       FpgaEngineConfig config = {});

  std::string name() const override { return "xilinx-baseline"; }
  std::string description() const override {
    return "Xilinx Vitis library CDS engine (sequential loops, II=7 "
           "accumulation, restart per option)";
  }

  PricingRun price(const std::vector<cds::CdsOption>& options) override;

  /// Cycle cost of one option under the sequential-loop model (exposed for
  /// tests and the Fig. 1 bench).
  struct StageSpan {
    const char* stage;
    sim::Cycle cycles;
  };
  std::vector<StageSpan> option_stage_spans(const cds::CdsOption& option) const;

 private:
  FpgaEngineConfig config_;
  /// Owns the curves; interest()/hazard() also feed the cycle model.
  cds::BatchPricer pricer_;
  cds::BatchPricer::Workspace workspace_;
};

}  // namespace cdsflow::engine
