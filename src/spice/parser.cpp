#include "spice/parser.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "util/error.hpp"

namespace olp::spice {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// Splits a line into tokens; parentheses and commas act as separators but
/// function-style groups like "pulse(0 1 ...)" keep their head token.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string cur;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '(' || c == ')' ||
        c == ',') {
      if (!cur.empty()) {
        tokens.push_back(cur);
        cur.clear();
      }
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) tokens.push_back(cur);
  return tokens;
}

bool is_number_start(char c) {
  return std::isdigit(static_cast<unsigned char>(c)) || c == '+' || c == '-' ||
         c == '.';
}

}  // namespace

double parse_spice_number(const std::string& token) {
  OLP_CHECK(!token.empty() && is_number_start(token[0]),
            "not a number: " + token);
  char* end = nullptr;
  const double base = std::strtod(token.c_str(), &end);
  std::string suffix = lower(std::string(end));
  // Strip trailing unit letters after the scale suffix (e.g. "10pF" -> "p").
  static const std::map<std::string, double> kScales = {
      {"t", 1e12}, {"g", 1e9},  {"meg", 1e6}, {"k", 1e3}, {"m", 1e-3},
      {"u", 1e-6}, {"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15}};
  if (suffix.empty()) return base;
  // Longest-match the known suffixes at the start of the remainder.
  if (suffix.rfind("meg", 0) == 0) return base * 1e6;
  const auto it = kScales.find(suffix.substr(0, 1));
  if (it != kScales.end()) return base * it->second;
  // Unknown letters (e.g. "hz") are treated as unit decoration.
  return base;
}

namespace {

/// Parser state carried through the netlist lines.
struct ParserState {
  Circuit circuit;
  std::map<std::string, int> model_index;
  int line_no = 0;
};

double expect_number(const std::vector<std::string>& t, std::size_t i,
                     int line) {
  if (i >= t.size()) throw ParseError("missing numeric field", line);
  return parse_spice_number(t[i]);
}

/// Parses "key=value" pairs from tokens[start..]; unknown keys throw.
std::map<std::string, double> parse_params(const std::vector<std::string>& t,
                                           std::size_t start, int line) {
  std::map<std::string, double> params;
  for (std::size_t i = start; i < t.size(); ++i) {
    const std::string tok = lower(t[i]);
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      throw ParseError("expected key=value, got '" + t[i] + "'", line);
    }
    params[tok.substr(0, eq)] = parse_spice_number(tok.substr(eq + 1));
  }
  return params;
}

void parse_model_line(ParserState& st, const std::vector<std::string>& t) {
  if (t.size() < 3) throw ParseError(".model needs a name and a type", st.line_no);
  MosModel model;
  model.name = lower(t[1]);
  const std::string type = lower(t[2]);
  if (type == "nmos") {
    model.type = MosType::kNmos;
  } else if (type == "pmos") {
    model.type = MosType::kPmos;
  } else {
    throw ParseError("unknown model type '" + t[2] + "'", st.line_no);
  }
  for (const auto& [key, value] : parse_params(t, 3, st.line_no)) {
    if (key == "vth0") model.vth0 = value;
    else if (key == "kp") model.kp = value;
    else if (key == "nslope") model.nslope = value;
    else if (key == "lambda") model.lambda = value;
    else if (key == "lref") model.lref = value;
    else if (key == "cox") model.cox = value;
    else if (key == "cov") model.cov = value;
    else if (key == "cj") model.cj = value;
    else if (key == "cjsw") model.cjsw = value;
    else if (key == "avt") model.avt = value;
    else throw ParseError("unknown model parameter '" + key + "'", st.line_no);
  }
  st.model_index[model.name] = st.circuit.add_model(model);
}

/// Parses the source specification shared by V and I elements.
struct SourceSpec {
  Waveform wave = Waveform::dc(0.0);
  double ac_mag = 0.0;
  double ac_phase = 0.0;
};

SourceSpec parse_source(const std::vector<std::string>& t, std::size_t i,
                        int line) {
  SourceSpec spec;
  bool have_wave = false;
  while (i < t.size()) {
    const std::string key = lower(t[i]);
    if (key == "dc") {
      spec.wave = Waveform::dc(expect_number(t, i + 1, line));
      have_wave = true;
      i += 2;
    } else if (key == "ac") {
      spec.ac_mag = expect_number(t, i + 1, line);
      i += 2;
      if (i < t.size() && is_number_start(t[i][0])) {
        spec.ac_phase = parse_spice_number(t[i]) * M_PI / 180.0;
        ++i;
      }
    } else if (key == "pulse") {
      if (i + 7 >= t.size()) throw ParseError("pulse needs 7 fields", line);
      spec.wave = Waveform::pulse(
          expect_number(t, i + 1, line), expect_number(t, i + 2, line),
          expect_number(t, i + 3, line), expect_number(t, i + 4, line),
          expect_number(t, i + 5, line), expect_number(t, i + 6, line),
          expect_number(t, i + 7, line));
      have_wave = true;
      i += 8;
    } else if (key == "sin") {
      if (i + 3 >= t.size()) throw ParseError("sin needs >= 3 fields", line);
      double delay = 0.0;
      std::size_t next = i + 4;
      if (next < t.size() && is_number_start(t[next][0])) {
        delay = parse_spice_number(t[next]);
        ++next;
      }
      spec.wave = Waveform::sine(
          expect_number(t, i + 1, line), expect_number(t, i + 2, line),
          expect_number(t, i + 3, line), delay);
      have_wave = true;
      i = next;
    } else if (key == "pwl") {
      std::vector<std::pair<double, double>> pts;
      std::size_t j = i + 1;
      while (j + 1 < t.size() && is_number_start(t[j][0]) &&
             is_number_start(t[j + 1][0])) {
        pts.emplace_back(parse_spice_number(t[j]),
                         parse_spice_number(t[j + 1]));
        j += 2;
      }
      if (pts.empty()) throw ParseError("pwl needs (t v) pairs", line);
      spec.wave = Waveform::pwl(std::move(pts));
      have_wave = true;
      i = j;
    } else if (is_number_start(t[i][0]) && !have_wave) {
      // Bare value means DC.
      spec.wave = Waveform::dc(parse_spice_number(t[i]));
      have_wave = true;
      ++i;
    } else {
      throw ParseError("unexpected source token '" + t[i] + "'", line);
    }
  }
  return spec;
}

void parse_ic_line(ParserState& st, const std::vector<std::string>& t) {
  // The tokenizer splits on parentheses, so "v(node)=value" arrives as
  // fragments ("v", "node", "=value", ...). Re-join everything after the
  // directive and scan for v...=... groups.
  std::string joined;
  for (std::size_t i = 1; i < t.size(); ++i) joined += lower(t[i]);
  std::size_t pos = 0;
  bool any = false;
  while (pos < joined.size()) {
    if (joined[pos] != 'v') {
      throw ParseError(".ic expects v(node)=value", st.line_no);
    }
    const std::size_t eq = joined.find('=', pos);
    if (eq == std::string::npos) {
      throw ParseError(".ic expects v(node)=value", st.line_no);
    }
    std::string node = joined.substr(pos + 1, eq - pos - 1);
    // The numeric value runs until the next 'v' group (or the end).
    std::size_t next = joined.find('v', eq + 1);
    if (next == std::string::npos) next = joined.size();
    const double value = parse_spice_number(joined.substr(eq + 1, next - eq - 1));
    st.circuit.set_initial_condition(st.circuit.node(node), value);
    any = true;
    pos = next;
  }
  if (!any) throw ParseError(".ic expects v(node)=value", st.line_no);
}

void parse_device_line(ParserState& st, const std::vector<std::string>& t) {
  const std::string& name = t[0];
  // Hierarchical element names carry instance/net prefixes ("X1.R2",
  // "p.R.da"): the element kind is the initial of the first dot-separated
  // component that starts with a known element letter.
  char kind = '?';
  std::size_t comp_start = 0;
  while (comp_start <= name.size()) {
    const char c0 = static_cast<char>(
        std::tolower(static_cast<unsigned char>(name[comp_start])));
    if (c0 == 'r' || c0 == 'c' || c0 == 'v' || c0 == 'i' || c0 == 'e' ||
        c0 == 'g' || c0 == 'm') {
      kind = c0;
      break;
    }
    const std::size_t dot = name.find('.', comp_start);
    if (dot == std::string::npos) break;
    comp_start = dot + 1;
  }
  Circuit& c = st.circuit;
  const int line = st.line_no;
  switch (kind) {
    case 'r': {
      if (t.size() < 4) throw ParseError("R needs 2 nodes and a value", line);
      c.add_resistor(name, c.node(t[1]), c.node(t[2]),
                     expect_number(t, 3, line));
      break;
    }
    case 'c': {
      if (t.size() < 4) throw ParseError("C needs 2 nodes and a value", line);
      const double value = expect_number(t, 3, line);
      double ic = 0.0;
      bool has_ic = false;
      for (const auto& [key, v] : parse_params(t, 4, line)) {
        if (key == "ic") {
          ic = v;
          has_ic = true;
        } else {
          throw ParseError("unknown C parameter '" + key + "'", line);
        }
      }
      if (has_ic) {
        c.add_capacitor_ic(name, c.node(t[1]), c.node(t[2]), value, ic);
      } else {
        c.add_capacitor(name, c.node(t[1]), c.node(t[2]), value);
      }
      break;
    }
    case 'v': {
      if (t.size() < 3) throw ParseError("V needs 2 nodes", line);
      const SourceSpec s = parse_source(t, 3, line);
      c.add_vsource(name, c.node(t[1]), c.node(t[2]), s.wave, s.ac_mag,
                    s.ac_phase);
      break;
    }
    case 'i': {
      if (t.size() < 3) throw ParseError("I needs 2 nodes", line);
      const SourceSpec s = parse_source(t, 3, line);
      c.add_isource(name, c.node(t[1]), c.node(t[2]), s.wave, s.ac_mag,
                    s.ac_phase);
      break;
    }
    case 'e': {
      if (t.size() < 6) throw ParseError("E needs 4 nodes and a gain", line);
      c.add_vcvs(name, c.node(t[1]), c.node(t[2]), c.node(t[3]),
                 c.node(t[4]), expect_number(t, 5, line));
      break;
    }
    case 'g': {
      if (t.size() < 6) throw ParseError("G needs 4 nodes and a gm", line);
      c.add_vccs(name, c.node(t[1]), c.node(t[2]), c.node(t[3]),
                 c.node(t[4]), expect_number(t, 5, line));
      break;
    }
    case 'm': {
      if (t.size() < 6) throw ParseError("M needs 4 nodes and a model", line);
      Mosfet m;
      m.name = name;
      m.d = c.node(t[1]);
      m.g = c.node(t[2]);
      m.s = c.node(t[3]);
      m.b = c.node(t[4]);
      const auto it = st.model_index.find(lower(t[5]));
      if (it == st.model_index.end()) {
        throw ParseError("unknown model '" + t[5] + "'", line);
      }
      m.model = it->second;
      for (const auto& [key, v] : parse_params(t, 6, line)) {
        if (key == "w") m.w = v;
        else if (key == "l") m.l = v;
        else if (key == "as") m.as = v;
        else if (key == "ad") m.ad = v;
        else if (key == "ps") m.ps = v;
        else if (key == "pd") m.pd = v;
        else if (key == "dvth") m.delta_vth = v;
        else if (key == "mob") m.mobility_mult = v;
        else throw ParseError("unknown M parameter '" + key + "'", line);
      }
      c.add_mosfet(std::move(m));
      break;
    }
    default:
      throw ParseError("unknown element '" + name + "'", line);
  }
}

}  // namespace

namespace {

/// A subcircuit definition collected during the first pass.
struct SubcktDef {
  std::vector<std::string> ports;
  std::vector<std::pair<int, std::string>> body;
};

/// Positions of node tokens per element kind (1-based token indices).
std::vector<std::size_t> node_token_positions(char kind, std::size_t n_tokens) {
  switch (kind) {
    case 'r': case 'c': case 'v': case 'i':
      return {1, 2};
    case 'e': case 'g':
      return {1, 2, 3, 4};
    case 'm':
      return {1, 2, 3, 4};
    case 'x': {
      // All tokens except the head and the trailing subckt name.
      std::vector<std::size_t> idx;
      for (std::size_t k = 1; k + 1 < n_tokens; ++k) idx.push_back(k);
      return idx;
    }
    default:
      return {};
  }
}

/// Expands an X instance line (and nested ones) into flat element lines with
/// prefixed names and mapped nodes.
void expand_instance(const std::map<std::string, SubcktDef>& subckts,
                     const std::vector<std::string>& tokens, int line_no,
                     const std::string& prefix,
                     std::vector<std::pair<int, std::string>>& out,
                     int depth) {
  if (depth > 20) throw ParseError("subcircuit nesting too deep", line_no);
  if (tokens.size() < 2) throw ParseError("X needs nodes and a name", line_no);
  const std::string sub_name = lower(tokens.back());
  const auto it = subckts.find(sub_name);
  if (it == subckts.end()) {
    throw ParseError("unknown subcircuit '" + tokens.back() + "'", line_no);
  }
  const SubcktDef& def = it->second;
  if (tokens.size() - 2 != def.ports.size()) {
    throw ParseError("subcircuit '" + sub_name + "' expects " +
                         std::to_string(def.ports.size()) + " nodes",
                     line_no);
  }
  // Port -> actual node mapping; internal nodes get the instance prefix.
  std::map<std::string, std::string> node_map;
  for (std::size_t k = 0; k < def.ports.size(); ++k) {
    node_map[lower(def.ports[k])] = tokens[k + 1];
  }
  const std::string inst_prefix = prefix + tokens[0] + ".";
  auto mapped_node = [&](const std::string& n) {
    const std::string key = lower(n);
    if (key == "0" || key == "gnd" || key == "gnd!") return std::string("0");
    if (auto mit = node_map.find(key); mit != node_map.end()) {
      return mit->second;
    }
    return inst_prefix + n;
  };

  for (const auto& [body_line_no, body] : def.body) {
    std::vector<std::string> bt = tokenize(body);
    if (bt.empty()) continue;
    const char kind = static_cast<char>(
        std::tolower(static_cast<unsigned char>(bt[0][0])));
    if (kind == 'x') {
      // Map the nested instance's connection nodes through the current
      // namespace before recursing.
      std::vector<std::string> mapped = bt;
      for (std::size_t pos : node_token_positions('x', bt.size())) {
        mapped[pos] = mapped_node(bt[pos]);
      }
      expand_instance(subckts, mapped, body_line_no, inst_prefix, out,
                      depth + 1);
      continue;
    }
    for (std::size_t pos : node_token_positions(kind, bt.size())) {
      if (pos < bt.size()) bt[pos] = mapped_node(bt[pos]);
    }
    bt[0] = inst_prefix + bt[0];  // unique element name
    std::string joined;
    for (const std::string& tok : bt) {
      if (!joined.empty()) joined += ' ';
      joined += tok;
    }
    // Re-protect function-style sources: tokenize stripped parentheses, which
    // the element parsers accept as-is.
    out.emplace_back(body_line_no, joined);
  }
}

}  // namespace

Circuit parse_netlist(const std::string& text) {
  // Join continuation lines first.
  std::vector<std::pair<int, std::string>> lines;
  {
    std::istringstream in(text);
    std::string raw;
    int line_no = 0;
    while (std::getline(in, raw)) {
      ++line_no;
      // Strip trailing comments introduced by ';'.
      const std::size_t semi = raw.find(';');
      if (semi != std::string::npos) raw.resize(semi);
      // Trim leading whitespace.
      std::size_t start = raw.find_first_not_of(" \t\r");
      if (start == std::string::npos) continue;
      std::string body = raw.substr(start);
      if (body[0] == '*') continue;
      if (body[0] == '+') {
        if (lines.empty()) throw ParseError("continuation without a line", line_no);
        lines.back().second.append(" ").append(body, 1);
      } else {
        lines.emplace_back(line_no, body);
      }
    }
  }

  // Pass 1: collect subcircuit definitions; pass 2: expand X instances.
  std::map<std::string, SubcktDef> subckts;
  {
    std::vector<std::pair<int, std::string>> main_lines;
    std::string current;
    SubcktDef def;
    for (const auto& [line_no, body] : lines) {
      const std::vector<std::string> tokens = tokenize(body);
      if (tokens.empty()) continue;
      const std::string head = lower(tokens[0]);
      if (head == ".subckt") {
        if (!current.empty()) {
          throw ParseError("nested .subckt definition", line_no);
        }
        if (tokens.size() < 2) throw ParseError(".subckt needs a name", line_no);
        current = lower(tokens[1]);
        def = SubcktDef{};
        def.ports.assign(tokens.begin() + 2, tokens.end());
      } else if (head == ".ends") {
        if (current.empty()) throw ParseError(".ends without .subckt", line_no);
        subckts[current] = def;
        current.clear();
      } else if (!current.empty()) {
        def.body.emplace_back(line_no, body);
      } else {
        main_lines.emplace_back(line_no, body);
      }
    }
    if (!current.empty()) {
      throw ParseError("unterminated .subckt '" + current + "'",
                       lines.empty() ? 0 : lines.back().first);
    }
    std::vector<std::pair<int, std::string>> expanded;
    for (const auto& [line_no, body] : main_lines) {
      const std::vector<std::string> tokens = tokenize(body);
      if (!tokens.empty() &&
          std::tolower(static_cast<unsigned char>(tokens[0][0])) == 'x') {
        expand_instance(subckts, tokens, line_no, "", expanded, 0);
      } else {
        expanded.emplace_back(line_no, body);
      }
    }
    lines = std::move(expanded);
  }

  ParserState st;
  for (const auto& [line_no, body] : lines) {
    st.line_no = line_no;
    const std::vector<std::string> tokens = tokenize(body);
    if (tokens.empty()) continue;
    const std::string head = lower(tokens[0]);
    if (head == ".end") break;
    if (head == ".model") {
      parse_model_line(st, tokens);
    } else if (head == ".ic") {
      parse_ic_line(st, tokens);
    } else if (head[0] == '.') {
      throw ParseError("unsupported directive '" + tokens[0] + "'", line_no);
    } else {
      parse_device_line(st, tokens);
    }
  }
  return std::move(st.circuit);
}

}  // namespace olp::spice
