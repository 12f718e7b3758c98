// Tests for CSV export of transient and AC results.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "spice/export.hpp"
#include "spice/simulator.hpp"
#include "util/trace_export.hpp"

namespace olp::spice {
namespace {

Circuit rc() {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add_vsource("vin", in, kGround, Waveform::dc(1.0), 1.0);
  c.add_resistor("r", in, out, 1e3);
  c.add_capacitor("cc", out, kGround, 1e-12);
  return c;
}

TEST(Export, TranCsvShapeAndValues) {
  const Circuit c = rc();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 100e-12;
  const TranResult res = sim.tran(tr);
  ASSERT_TRUE(res.ok);
  const std::string csv = tran_to_csv(sim, res, {"in", "out"});
  std::istringstream is(csv);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line, "time,in,out");
  int rows = 0;
  while (std::getline(is, line)) {
    ++rows;
    // Three comma-separated numeric fields.
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2) << line;
  }
  EXPECT_EQ(rows, static_cast<int>(res.times.size()));
}

TEST(Export, AcCsvHasMagAndPhaseColumns) {
  const Circuit c = rc();
  Simulator sim(c);
  const OpResult op = sim.op();
  AcOptions ac;
  ac.frequencies = {1e6, 1e9};
  const AcResult r = sim.ac(op.x, ac);
  const std::string csv = ac_to_csv(sim, r, {"out"});
  std::istringstream is(csv);
  std::string header;
  ASSERT_TRUE(std::getline(is, header));
  EXPECT_EQ(header, "freq,out_mag_db,out_phase_deg");
  std::string row1;
  ASSERT_TRUE(std::getline(is, row1));
  // At 1 MHz the low-pass output is ~0 dB.
  double freq, mag, phase;
  char comma;
  std::istringstream rs(row1);
  rs >> freq >> comma >> mag >> comma >> phase;
  EXPECT_NEAR(freq, 1e6, 1.0);
  EXPECT_NEAR(mag, 0.0, 0.1);
}

TEST(Export, UnknownNodeThrows) {
  const Circuit c = rc();
  Simulator sim(c);
  TranOptions tr;
  tr.tstop = 1e-9;
  tr.dt = 100e-12;
  const TranResult res = sim.tran(tr);
  EXPECT_THROW(tran_to_csv(sim, res, {"nosuch"}), InvalidArgumentError);
  EXPECT_THROW(tran_to_csv(sim, res, {}), InvalidArgumentError);
}

TEST(Export, WriteTextFile) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "olp_export_test";
  std::filesystem::remove_all(dir);
  const std::string path = (dir / "out.csv").string();
  obs::write_text_file(path, "a,b\n1,2\n");  // creates the directory
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "a,b");
  // A regular file cannot hold a directory, even for a user who may create
  // one anywhere.
  EXPECT_THROW(obs::write_text_file(path + "/x.csv", "x"),
               InvalidArgumentError);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace olp::spice
