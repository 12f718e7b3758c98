#pragma once
// The hierarchical (.subckt / .ends / X instance) decks of test_subckt.cpp,
// shared with the mutation-fuzz corpus of test_parser.cpp.

#include <string>
#include <vector>

namespace olp::spice::subckt_decks {

/// One divider instance; its internal element names become "X1.R1".
inline const std::string kDivider = R"(
.subckt divider top bot mid
R1 top mid 1k
R2 mid bot 1k
.ends
V1 in 0 DC 2.0
X1 in 0 tap divider
)";

/// Two instances of one subcircuit with an internal node "x".
inline const std::string kChain = R"(
.subckt chain a b
R1 a x 1k
R2 x b 1k
.ends
X1 p 0 chain
X2 p 0 chain
R0 p 0 1k
)";

/// An instance not named X<digit>.
inline const std::string kCell = R"(
.subckt cell a
R1 a 0 1k
.ends
Xu top cell
)";

/// A subcircuit instantiating another one.
inline const std::string kNested = R"(
.subckt leaf a b
R1 a b 2k
.ends
.subckt pair p q
X1 p m leaf
X2 m q leaf
.ends
V1 in 0 DC 1.0
Xtop in 0 pair
)";

/// Ground spelled "0" and "gnd" inside a subcircuit.
inline const std::string kGrounded = R"(
.subckt grounded a
R1 a 0 1k
C1 a gnd 1f
.ends
X1 n grounded
)";

/// A MOSFET stage with a model and sources outside the subcircuit.
inline const std::string kStage = R"(
.model nfet nmos vth0=0.3 kp=400u
.subckt stage in out vdd
M1 out in 0 0 nfet w=1u l=14n
R1 vdd out 5k
.ends
Vdd vdd 0 DC 0.8
Vin in 0 DC 0.45
X1 in out vdd stage
)";

/// Every deck above parses.
inline const std::vector<std::string> kAccepted = {
    kDivider, kChain, kCell, kNested, kGrounded, kStage};

/// Each of these is rejected with a ParseError: an unknown subcircuit, an
/// unterminated .subckt, a stray .ends, a port-count mismatch and a
/// self-recursive subcircuit.
inline const std::vector<std::string> kRejected = {
    "X1 a b nosuch\n",
    ".subckt s a\nR1 a 0 1k\n",
    ".ends\n",
    ".subckt s a b\nR1 a b 1k\n.ends\nX1 onlyone s\n",
    ".subckt rec a\nX1 a rec\n.ends\nX0 n rec\n",
};

}  // namespace olp::spice::subckt_decks
