#pragma once
// CSV export of analysis results, for plotting transient waveforms and AC
// responses with external tools.

#include <string>
#include <vector>

#include "spice/measure.hpp"
#include "spice/simulator.hpp"

namespace olp::spice {

/// Renders selected node waveforms of a transient result as CSV text with a
/// header row ("time,<node>,..."). Node names must exist in the circuit.
std::string tran_to_csv(const Simulator& sim, const TranResult& result,
                        const std::vector<std::string>& nodes);

/// Renders an AC result as CSV ("freq,<node>_mag_db,<node>_phase_deg,...").
std::string ac_to_csv(const Simulator& sim, const AcResult& result,
                      const std::vector<std::string>& nodes);

}  // namespace olp::spice
