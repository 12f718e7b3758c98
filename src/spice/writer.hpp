#pragma once
// Netlist writer: serializes a Circuit back to the SPICE dialect understood
// by parser.hpp. Useful for dumping extracted testbenches, diffing
// realizations, and exchanging decks with external tools; write->parse round
// trips reproduce the circuit.

#include <string>

#include "spice/circuit.hpp"

namespace olp::spice {

/// Serializes the circuit (models, devices, initial conditions) as netlist
/// text. Waveforms are emitted in source syntax (DC/PULSE/SIN); PWL sources
/// are emitted as their sample list. Every element line starts with its
/// element letter: a name that does not (a flattened "X1.R1") is written
/// with the letter prefixed ("RX1.R1"); other names are written unchanged.
std::string write_netlist(const Circuit& circuit,
                          const std::string& title = "olp netlist");

}  // namespace olp::spice
