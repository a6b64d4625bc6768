/// \file registry.hpp
/// Name-based engine construction for examples, benches, the CLI and the
/// sharded runtime.
///
/// Recognised names:
///   "cpu"                   CPU engine, scalar reference kernel
///   "cpu-batch"             batched SoA fast-path kernel
///   "cpu-vec"               batch kernel on the SIMD vector kernels at the
///                           host's best level (cds/vector_kernel.hpp;
///                           scalar fallback when the host has none)
///   "cpu-sweep"             scenario-sweep family (cds::SweepPricer /
///                           runtime::SweepRuntime): the planner probes and
///                           plans these with the scenario count as the
///                           workload axis; for a plain price() call the
///                           engine is "cpu-vec" bit for bit
///   "cpu-risk"              reference kernel + per-option Greeks (naive
///                           bumped-repricing loop)
///   "cpu-batch-risk"        batched Greeks over the precomputed grids
///                           (BatchPricer::price_with_sensitivities)
///   "cpu-vec-risk"          batched Greeks on the vector kernels
///   "cpu-sweep-risk"        as "cpu-vec-risk" (sweep family, risk mode)
///   "xilinx-baseline"       Vitis library model
///   "dataflow"              optimised dataflow, restart per option
///   "dataflow-interoption"  free-running dataflow
///   "vectorised"            vectorised free-running dataflow
///   "multi-<N>"             N vectorised engines (e.g. "multi-5")
///   "cluster-<M>x<N>"       M cards of N vectorised engines each
///
/// The CPU family grammar is kernel x mode, "cpu[-batch|-vec|-sweep][-risk]":
/// the optional kernel token selects the CpuKernel, "-risk" switches the run
/// to sensitivities. Risk-mode details (bump size, ladder edges) ride in the
/// CpuEngineConfig argument. A CPU engine is single-threaded: its lanes come
/// from the runtime that replicates it (RuntimeConfig::workers,
/// `cdsflow_cli --workers`), never from the name.
///
/// Determinism guarantee: engine construction is pure (no global state), and
/// every engine the registry returns prices deterministically for a fixed
/// name + config + inputs, so replicas on contiguous shards reproduce a
/// single engine bit-for-bit, risk variants included. That is the property
/// the sharded runtime's submission-order merge relies on (see
/// runtime/portfolio_runtime.hpp).

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cds/curve.hpp"
#include "engines/cpu_engine.hpp"
#include "engines/engine.hpp"

namespace cdsflow::engine {

/// Constructs an engine by name. Throws cdsflow::Error for unknown names.
std::unique_ptr<Engine> make_engine(const std::string& name,
                                    const cds::TermStructure& interest,
                                    const cds::TermStructure& hazard,
                                    const FpgaEngineConfig& fpga_config = {},
                                    const CpuEngineConfig& cpu_config = {});

/// Parses a "cpu[-batch|-vec|-sweep][-risk]" family name into `config`:
/// sets `kernel`, and sets `risk_mode` when the name carries "-risk" (a name
/// without it leaves risk_mode as given, so a caller can force risk mode on
/// any CPU name); other fields are left untouched. Returns false --
/// leaving `config` unmodified -- when `name` is not a CPU-family name. The
/// one home of the CPU name grammar: make_engine uses it, and the streaming
/// runtime reuses it so `cdsflow_cli stream` accepts the same engine names
/// (risk mode included) as the batch commands.
bool parse_cpu_engine_name(const std::string& name, CpuEngineConfig& config);

/// Assembles the "cpu[-batch|-vec|-sweep][-risk]" family name of a kernel
/// and mode -- the inverse of parse_cpu_engine_name. CpuEngine::name and
/// the planner's candidate names use it.
std::string cpu_engine_name(CpuKernel kernel, bool risk_mode);

/// All fixed registry names (the parametrised multi-N / cluster-MxN forms
/// are represented by "multi-5").
std::vector<std::string> engine_names();

}  // namespace cdsflow::engine
