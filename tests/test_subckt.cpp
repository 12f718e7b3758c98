// Tests for hierarchical netlists (.subckt / .ends / X instances).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "spice/parser.hpp"
#include "spice/simulator.hpp"
#include "spice/writer.hpp"
#include "subckt_decks.hpp"

namespace olp::spice {
namespace {

TEST(Subckt, FlattensSingleInstance) {
  const Circuit c = parse_netlist(subckt_decks::kDivider);
  EXPECT_EQ(c.resistors().size(), 2u);
  EXPECT_TRUE(c.has_node("tap"));
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, c.find_node("tap")), 1.0, 1e-6);
}

TEST(Subckt, InternalNodesArePrefixed) {
  const Circuit c = parse_netlist(subckt_decks::kChain);
  EXPECT_TRUE(c.has_node("X1.x"));
  EXPECT_TRUE(c.has_node("X2.x"));
  EXPECT_EQ(c.resistors().size(), 5u);
}

TEST(Subckt, ElementNamesArePrefixed) {
  const Circuit c = parse_netlist(subckt_decks::kCell);
  ASSERT_EQ(c.resistors().size(), 1u);
  EXPECT_EQ(c.resistors()[0].name, "Xu.R1");
}

TEST(Subckt, NestedInstancesFlatten) {
  const Circuit c = parse_netlist(subckt_decks::kNested);
  EXPECT_EQ(c.resistors().size(), 2u);
  EXPECT_TRUE(c.has_node("Xtop.m"));
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim.voltage(op.x, c.find_node("Xtop.m")), 0.5, 1e-6);
}

TEST(Subckt, GroundPassesThroughUnprefixed) {
  const Circuit c = parse_netlist(subckt_decks::kGrounded);
  EXPECT_EQ(c.resistors()[0].b, kGround);
  EXPECT_EQ(c.capacitors()[0].b, kGround);
}

TEST(Subckt, SubcktWithMosfetAndSources) {
  const Circuit c = parse_netlist(subckt_decks::kStage);
  ASSERT_EQ(c.mosfets().size(), 1u);
  EXPECT_EQ(c.mosfets()[0].name, "X1.M1");
  Simulator sim(c);
  const OpResult op = sim.op();
  ASSERT_TRUE(op.converged);
  const double vout = sim.voltage(op.x, c.find_node("out"));
  EXPECT_GT(vout, 0.0);
  EXPECT_LT(vout, 0.8);
}

TEST(Subckt, Errors) {
  for (const std::string& deck : subckt_decks::kRejected) {
    EXPECT_THROW(parse_netlist(deck), ParseError) << deck;
  }
}

std::set<std::string> node_names(const Circuit& c) {
  std::set<std::string> names;
  for (int n = 0; n < c.node_count(); ++n) names.insert(c.node_name(n));
  return names;
}

TEST(Subckt, FlattenedCircuitRoundTripsThroughWriter) {
  // A flattened element is named after its instance ("X1.R1"); the written
  // deck must still read back as that element, not as an X instance line.
  for (const std::string& deck : subckt_decks::kAccepted) {
    const Circuit c = parse_netlist(deck);
    const std::string written = write_netlist(c);
    Circuit back;
    ASSERT_NO_THROW(back = parse_netlist(written)) << written;
    EXPECT_EQ(back.resistors().size(), c.resistors().size()) << written;
    EXPECT_EQ(back.capacitors().size(), c.capacitors().size()) << written;
    EXPECT_EQ(back.vsources().size(), c.vsources().size()) << written;
    EXPECT_EQ(back.mosfets().size(), c.mosfets().size()) << written;
    EXPECT_EQ(node_names(back), node_names(c)) << written;
  }
}

}  // namespace
}  // namespace olp::spice
