#pragma once
// Every library netlist: each make_* in pcell/primitive.hpp, with a ratio or
// the other device type where the factory takes one. Netlist names repeat
// across those variants, so each entry carries a key that names its variant.

#include <string>
#include <vector>

#include "pcell/primitive.hpp"

namespace olp::pcell {

struct LibraryNetlist {
  std::string key;
  PrimitiveNetlist netlist;
};

inline std::vector<LibraryNetlist> library_netlists() {
  using spice::MosType;
  return {
      {"diff_pair", make_diff_pair()},
      {"current_mirror/1:1", make_current_mirror()},
      {"current_mirror/1:4", make_current_mirror(4)},
      {"cascode_current_mirror/1:1", make_cascode_current_mirror()},
      {"cascode_current_mirror/1:2", make_cascode_current_mirror(2)},
      {"cascode_diff_pair", make_cascode_diff_pair()},
      {"active_current_mirror", make_active_current_mirror()},
      {"current_source/nmos", make_current_source()},
      {"current_source/pmos", make_current_source(MosType::kPmos)},
      {"common_source", make_common_source()},
      {"current_starved_inverter", make_current_starved_inverter()},
      {"cross_coupled_pair/nmos", make_cross_coupled_pair()},
      {"cross_coupled_pair/pmos", make_cross_coupled_pair(MosType::kPmos)},
      {"latch_pair/nmos", make_latch_pair()},
      {"latch_pair/pmos", make_latch_pair(MosType::kPmos)},
      {"switch/nmos", make_switch()},
      {"switch/pmos", make_switch(MosType::kPmos)},
  };
}

}  // namespace olp::pcell
