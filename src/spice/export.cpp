#include "spice/export.hpp"

#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace olp::spice {

std::string tran_to_csv(const Simulator& sim, const TranResult& result,
                        const std::vector<std::string>& nodes) {
  OLP_CHECK(!nodes.empty(), "CSV export needs at least one node");
  const Circuit& ckt = sim.circuit();
  std::vector<NodeId> ids;
  std::ostringstream os;
  os.precision(9);
  os << "time";
  for (const std::string& n : nodes) {
    ids.push_back(ckt.find_node(n));
    os << ',' << n;
  }
  os << '\n';
  for (std::size_t k = 0; k < result.times.size(); ++k) {
    os << result.times[k];
    for (NodeId id : ids) {
      os << ',' << sim.voltage(result.samples[k], id);
    }
    os << '\n';
  }
  return os.str();
}

std::string ac_to_csv(const Simulator& sim, const AcResult& result,
                      const std::vector<std::string>& nodes) {
  OLP_CHECK(!nodes.empty(), "CSV export needs at least one node");
  const Circuit& ckt = sim.circuit();
  std::vector<NodeId> ids;
  std::ostringstream os;
  os.precision(9);
  os << "freq";
  for (const std::string& n : nodes) {
    ids.push_back(ckt.find_node(n));
    os << ',' << n << "_mag_db," << n << "_phase_deg";
  }
  os << '\n';
  for (std::size_t k = 0; k < result.frequencies.size(); ++k) {
    os << result.frequencies[k];
    for (NodeId id : ids) {
      const std::complex<double> v = sim.ac_voltage(result.solutions[k], id);
      os << ',' << db(std::max(std::abs(v), 1e-30)) << ','
         << std::arg(v) * 180.0 / M_PI;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace olp::spice
