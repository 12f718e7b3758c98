// Unit tests for the SPICE-dialect netlist parser.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "spice/parser.hpp"
#include "spice/writer.hpp"
#include "subckt_decks.hpp"
#include "util/rng.hpp"

namespace olp::spice {
namespace {

TEST(SpiceNumber, PlainAndScientific) {
  EXPECT_DOUBLE_EQ(parse_spice_number("42"), 42.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("-1.5e-9"), -1.5e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("3.3"), 3.3);
}

TEST(SpiceNumber, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_number("10k"), 10e3);
  EXPECT_DOUBLE_EQ(parse_spice_number("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.2u"), 2.2e-6);
  EXPECT_DOUBLE_EQ(parse_spice_number("5n"), 5e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("100p"), 100e-12);
  EXPECT_DOUBLE_EQ(parse_spice_number("3f"), 3e-15);
  EXPECT_DOUBLE_EQ(parse_spice_number("7m"), 7e-3);
  EXPECT_DOUBLE_EQ(parse_spice_number("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_spice_number("2t"), 2e12);
}

TEST(SpiceNumber, UnitDecorationIgnored) {
  EXPECT_DOUBLE_EQ(parse_spice_number("10pF"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_spice_number("5kohm"), 5e3);
}

TEST(SpiceNumber, RejectsNonNumbers) {
  EXPECT_THROW(parse_spice_number("abc"), InvalidArgumentError);
  EXPECT_THROW(parse_spice_number(""), InvalidArgumentError);
}

TEST(Parser, ResistorDivider) {
  const Circuit c = parse_netlist(R"(
* simple divider
V1 in 0 DC 1.0
R1 in mid 1k
R2 mid 0 1k
.end
)");
  EXPECT_EQ(c.resistors().size(), 2u);
  EXPECT_EQ(c.vsources().size(), 1u);
  EXPECT_DOUBLE_EQ(c.resistors()[0].r, 1000.0);
  EXPECT_TRUE(c.has_node("mid"));
}

TEST(Parser, CapacitorWithInitialCondition) {
  const Circuit c = parse_netlist("C1 a 0 10f ic=0.5\n");
  ASSERT_EQ(c.capacitors().size(), 1u);
  EXPECT_TRUE(c.capacitors()[0].use_ic);
  EXPECT_DOUBLE_EQ(c.capacitors()[0].ic, 0.5);
  EXPECT_DOUBLE_EQ(c.capacitors()[0].c, 10e-15);
}

TEST(Parser, PulseSource) {
  const Circuit c =
      parse_netlist("Vclk clk 0 PULSE(0 0.8 1n 0.02n 0.02n 0.5n 1n)\n");
  ASSERT_EQ(c.vsources().size(), 1u);
  const Waveform& w = c.vsources()[0].wave;
  EXPECT_DOUBLE_EQ(w.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value(1.3e-9), 0.8);
  EXPECT_DOUBLE_EQ(w.value(1.8e-9), 0.0);
}

TEST(Parser, SinSourceWithDelay) {
  const Circuit c = parse_netlist("vs a 0 SIN(0.4 0.1 1g 2n)\n");
  const Waveform& w = c.vsources()[0].wave;
  EXPECT_DOUBLE_EQ(w.value(1e-9), 0.4);
  EXPECT_NEAR(w.value(2e-9 + 0.25e-9), 0.5, 1e-9);
}

TEST(Parser, AcMagnitudeAndPhase) {
  const Circuit c = parse_netlist("V1 in 0 DC 0.5 AC 1.0 90\n");
  EXPECT_DOUBLE_EQ(c.vsources()[0].ac_mag, 1.0);
  EXPECT_NEAR(c.vsources()[0].ac_phase, M_PI / 2, 1e-12);
}

TEST(Parser, PwlSource) {
  const Circuit c = parse_netlist("I1 a 0 PWL(0 0 1n 1u 2n 0)\n");
  ASSERT_EQ(c.isources().size(), 1u);
  EXPECT_NEAR(c.isources()[0].wave.value(0.5e-9), 0.5e-6, 1e-15);
}

TEST(Parser, BareValueIsDc) {
  const Circuit c = parse_netlist("V1 a 0 0.8\n");
  EXPECT_DOUBLE_EQ(c.vsources()[0].wave.dc_value(), 0.8);
}

TEST(Parser, ControlledSources) {
  const Circuit c = parse_netlist(R"(
E1 out 0 inp inn 10
G1 out 0 inp inn 2m
)");
  ASSERT_EQ(c.vcvs().size(), 1u);
  ASSERT_EQ(c.vccs().size(), 1u);
  EXPECT_DOUBLE_EQ(c.vcvs()[0].gain, 10.0);
  EXPECT_DOUBLE_EQ(c.vccs()[0].gm, 2e-3);
}

TEST(Parser, MosfetWithModelAndGeometry) {
  const Circuit c = parse_netlist(R"(
.model nfet nmos vth0=0.3 kp=400u
M1 d g s 0 nfet w=2u l=14n as=0.1p ad=0.1p dvth=5m mob=0.98
)");
  ASSERT_EQ(c.mosfets().size(), 1u);
  const Mosfet& m = c.mosfets()[0];
  EXPECT_DOUBLE_EQ(m.w, 2e-6);
  EXPECT_DOUBLE_EQ(m.l, 14e-9);
  EXPECT_DOUBLE_EQ(m.delta_vth, 5e-3);
  EXPECT_DOUBLE_EQ(m.mobility_mult, 0.98);
  EXPECT_DOUBLE_EQ(c.model(m.model).vth0, 0.3);
}

TEST(Parser, PmosModel) {
  const Circuit c = parse_netlist(R"(
.model pfet pmos vth0=0.25
M1 d g s b pfet w=1u l=14n
)");
  EXPECT_EQ(c.model(c.mosfets()[0].model).type, MosType::kPmos);
}

TEST(Parser, ContinuationLines) {
  const Circuit c = parse_netlist(
      "Vclk clk 0 PULSE(0 0.8\n+ 1n 0.02n 0.02n\n+ 0.5n 1n)\n");
  EXPECT_DOUBLE_EQ(c.vsources()[0].wave.value(1.3e-9), 0.8);
}

TEST(Parser, CommentsAndBlankLines) {
  const Circuit c = parse_netlist(R"(
* header comment
R1 a b 1k ; trailing comment

* another
R2 b 0 2k
)");
  EXPECT_EQ(c.resistors().size(), 2u);
}

TEST(Parser, InitialConditions) {
  const Circuit c = parse_netlist(".ic v(osc)=0.8\nR1 osc 0 1k\n");
  EXPECT_EQ(c.initial_conditions().size(), 1u);
}

TEST(Parser, GroundAliases) {
  const Circuit c = parse_netlist("R1 a gnd 1k\nR2 a 0 1k\n");
  EXPECT_EQ(c.resistors()[0].b, kGround);
  EXPECT_EQ(c.resistors()[1].b, kGround);
}

TEST(Parser, UnknownModelThrows) {
  EXPECT_THROW(parse_netlist("M1 d g s 0 nosuch w=1u l=14n\n"), ParseError);
}

TEST(Parser, UnknownElementThrows) {
  EXPECT_THROW(parse_netlist("X1 a b c\n"), ParseError);
}

TEST(Parser, UnsupportedDirectiveThrows) {
  EXPECT_THROW(parse_netlist(".tran 1n 10n\n"), ParseError);
}

TEST(Parser, ErrorCarriesLineNumber) {
  try {
    parse_netlist("R1 a b 1k\nR2 a\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Parser, DotEndStopsParsing) {
  const Circuit c = parse_netlist("R1 a 0 1k\n.end\nR2 b 0 2k\n");
  EXPECT_EQ(c.resistors().size(), 1u);
}

TEST(Parser, NegativeResistanceRejected) {
  EXPECT_THROW(parse_netlist("R1 a 0 -5\n"), InvalidArgumentError);
}

/// The decks the cases above parse or reject.
const std::vector<std::string> kParserDecks = {
    "\n* simple divider\nV1 in 0 DC 1.0\nR1 in mid 1k\nR2 mid 0 1k\n.end\n",
    "C1 a 0 10f ic=0.5\n",
    "Vclk clk 0 PULSE(0 0.8 1n 0.02n 0.02n 0.5n 1n)\n",
    "vs a 0 SIN(0.4 0.1 1g 2n)\n",
    "V1 in 0 DC 0.5 AC 1.0 90\n",
    "I1 a 0 PWL(0 0 1n 1u 2n 0)\n",
    "V1 a 0 0.8\n",
    "\nE1 out 0 inp inn 10\nG1 out 0 inp inn 2m\n",
    ".model nfet nmos vth0=0.3 kp=400u\n"
    "M1 d g s 0 nfet w=2u l=14n as=0.1p ad=0.1p dvth=5m mob=0.98\n",
    ".model pfet pmos vth0=0.25\nM1 d g s b pfet w=1u l=14n\n",
    "Vclk clk 0 PULSE(0 0.8\n+ 1n 0.02n 0.02n\n+ 0.5n 1n)\n",
    "\n* header comment\nR1 a b 1k ; trailing comment\n\n"
    "* another\nR2 b 0 2k\n",
    ".ic v(osc)=0.8\nR1 osc 0 1k\n",
    "R1 a gnd 1k\nR2 a 0 1k\n",
    "R1 a 0 1k\n.end\nR2 b 0 2k\n",
    "M1 d g s 0 nosuch w=1u l=14n\n",
    "X1 a b c\n",
    ".tran 1n 10n\n",
    "R1 a b 1k\nR2 a\n",
    "R1 a 0 -5\n",
};

/// The fuzz corpus: those decks plus the hierarchical decks of
/// test_subckt.cpp.
const std::vector<std::string> kDecks = [] {
  std::vector<std::string> decks = kParserDecks;
  decks.insert(decks.end(), subckt_decks::kAccepted.begin(),
               subckt_decks::kAccepted.end());
  decks.insert(decks.end(), subckt_decks::kRejected.begin(),
               subckt_decks::kRejected.end());
  return decks;
}();

/// Applies one random byte flip, insert, delete or splice. New bytes come
/// from the corpus half the time (the dialect's own alphabet), otherwise
/// from the whole byte range; a splice joins this deck's head to the tail
/// of a random corpus deck.
void mutate(Rng& rng, std::string& s) {
  const auto pick = [&](const std::string& from, int past_end) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(from.size()) - 1 + past_end));
  };
  const auto any_deck = [&]() -> const std::string& {
    return kDecks[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(kDecks.size()) - 1))];
  };
  const auto any_byte = [&] {
    if (rng.chance(0.5)) return static_cast<char>(rng.uniform_int(0, 255));
    const std::string& deck = any_deck();
    return deck[pick(deck, 0)];
  };
  switch (rng.uniform_int(0, 3)) {
    case 0:
      if (!s.empty()) s[pick(s, 0)] = any_byte();
      break;
    case 1:
      s.insert(pick(s, 1), 1, any_byte());
      break;
    case 2:
      if (!s.empty()) s.erase(pick(s, 0), 1);
      break;
    default: {
      const std::string& other = any_deck();
      s = s.substr(0, pick(s, 1)) + other.substr(pick(other, 1));
      break;
    }
  }
}

/// Models, element counts per kind and initial conditions of a circuit.
std::vector<std::size_t> shape(const Circuit& c) {
  return {c.models().size(),   c.resistors().size(),
          c.capacitors().size(), c.vsources().size(),
          c.isources().size(), c.vcvs().size(),
          c.vccs().size(),     c.mosfets().size(),
          c.initial_conditions().size()};
}

TEST(Parser, MutatedDecksParseOrThrowAndRoundTrip) {
  // Every mutant either parses or is rejected with an olp::Error — never a
  // crash, a foreign exception or (under the sanitizer build) UB — and
  // every accepted deck survives write_netlist -> parse_netlist with the
  // same elements. Only counts are compared: .ic lines follow node
  // creation order, which re-parsing changes, so the text may differ.
  Rng rng(2021);
  long accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string deck = kDecks[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(kDecks.size()) - 1))];
    for (int m = rng.uniform_int(1, 4); m > 0; --m) mutate(rng, deck);
    Circuit c;
    try {
      c = parse_netlist(deck);
    } catch (const Error&) {
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-olp exception " << e.what() << " for:\n" << deck;
      continue;
    }
    ++accepted;
    const std::string written = write_netlist(c);
    try {
      EXPECT_EQ(shape(parse_netlist(written)), shape(c)) << written;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "written deck does not parse again: " << e.what()
                    << "\nmutant:\n" << deck << "\nwritten:\n" << written;
    }
  }
  // Enough mutants must survive to exercise the accept path too.
  EXPECT_GT(accepted, 1000);
}

}  // namespace
}  // namespace olp::spice
