#include "cli/cli.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iomanip>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "campaign/artifacts.hpp"
#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "campaign/stats.hpp"
#include "core/adversarial_configs.hpp"
#include "core/incremental_legitimacy.hpp"
#include "core/mutex_spec.hpp"
#include "core/speculation.hpp"
#include "core/ssme.hpp"
#include "core/theory.hpp"
#include "extensions/coloring.hpp"
#include "extensions/leader_election.hpp"
#include "graph/chordless.hpp"
#include "graph/cycle_space.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "sim/engine.hpp"
#include "sim/incremental_engine.hpp"
#include "sim/protocol_registry.hpp"
#include "sim/visualize.hpp"
#include "unison/parameters.hpp"

namespace specstab::cli {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument(message);
}

std::int64_t parse_int(const std::vector<std::string>& args, std::size_t& pos,
                       const std::string& what) {
  if (pos >= args.size()) fail("missing " + what);
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(args[pos], &used);
    if (used != args[pos].size()) fail("bad " + what + ": " + args[pos]);
    ++pos;
    return value;
  } catch (const std::invalid_argument&) {
    fail("bad " + what + ": " + args[pos]);
  } catch (const std::out_of_range&) {
    fail("out-of-range " + what + ": " + args[pos]);
  }
}

/// Strict non-negative integer parse (full consumption, no double
/// round-trip, so 64-bit seeds survive intact and negatives fail cleanly
/// instead of wrapping).
std::uint64_t parse_uint(const std::string& token, const std::string& what) {
  if (token.empty() || token[0] == '-') {
    fail(what + " must be a non-negative integer: " + token);
  }
  std::uint64_t value = 0;
  std::size_t used = 0;
  try {
    value = std::stoull(token, &used);
  } catch (const std::out_of_range&) {
    fail("out-of-range " + what + ": " + token);
  } catch (const std::invalid_argument&) {
    fail("bad " + what + ": " + token);
  }
  if (used != token.size()) fail("bad " + what + ": " + token);
  return value;
}

double parse_double(const std::string& token, const std::string& what) {
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used != token.size()) fail("bad " + what + ": " + token);
    return value;
  } catch (const std::invalid_argument&) {
    fail("bad " + what + ": " + token);
  } catch (const std::out_of_range&) {
    fail("out-of-range " + what + ": " + token);
  }
}

/// Named options of the form --name value (protocol, init, seed, steps,
/// daemon, configs, engine).
struct Options {
  std::string protocol;     ///< registry name; empty: subcommand default
  std::string init;         ///< init family; empty: protocol default
  std::uint64_t seed = 42;
  StepIndex max_steps = 0;  ///< 0: pick a protocol-appropriate default
  std::string daemon = "synchronous";
  std::size_t configs = 10;
  bool dot = false;
  EngineKind engine = EngineKind::kIncremental;
  ConfigLayout layout = ConfigLayout::kAuto;
  unsigned threads = 1;  ///< parallel-engine worker threads
  std::string perturb;   ///< fault-injection spec (FaultSpec::parse text)
};

/// Guard for the SSME-specific analysis subcommands: silently running
/// SSME while the user asked for another protocol would mislabel the
/// result.
void reject_protocol_options(const Options& opt, const std::string& cmd) {
  if (!opt.protocol.empty() || !opt.init.empty()) {
    fail(cmd + " is SSME-specific and does not take --protocol/--init "
               "(use `specstab run --protocol <name>` instead)");
  }
}

Options parse_options(const std::vector<std::string>& args, std::size_t pos) {
  Options opt;
  while (pos < args.size()) {
    const std::string& flag = args[pos];
    if (flag == "--dot") {
      opt.dot = true;
      ++pos;
      continue;
    }
    if (pos + 1 >= args.size()) fail("missing value for " + flag);
    const std::string& value = args[pos + 1];
    if (flag == "--protocol") {
      opt.protocol = value;
    } else if (flag == "--init") {
      opt.init = value;
    } else if (flag == "--seed") {
      opt.seed = static_cast<std::uint64_t>(
          parse_double(value, "--seed"));
    } else if (flag == "--steps") {
      opt.max_steps = static_cast<StepIndex>(parse_double(value, "--steps"));
    } else if (flag == "--daemon") {
      opt.daemon = value;
    } else if (flag == "--engine") {
      opt.engine = engine_by_name(value);
    } else if (flag == "--layout") {
      opt.layout = config_layout_by_name(value);
    } else if (flag == "--threads") {
      const double t = parse_double(value, "--threads");
      if (t < 1 || t > 4096) fail("--threads must be in [1, 4096]");
      opt.threads = static_cast<unsigned>(t);
    } else if (flag == "--perturb") {
      opt.perturb = value;
    } else if (flag == "--configs") {
      opt.configs =
          static_cast<std::size_t>(parse_double(value, "--configs"));
    } else {
      fail("unknown option " + flag);
    }
    pos += 2;
  }
  return opt;
}

std::string usage() {
  std::ostringstream os;
  os << "specstab — speculative self-stabilization toolkit\n"
     << "usage: specstab <subcommand> [arguments]\n\n"
     << "subcommands:\n"
     << "  list      [--names|--markdown]     registered protocols + daemons\n"
     << "  topologies                         list graph families\n"
     << "  daemons                            list daemon names\n"
     << "  params    <family> <args..>        graph + protocol parameters\n"
     << "  graph     <family> <args..> [--dot] emit edge list or DOT\n"
     << "  run       <family> <args..> [--protocol P] [--init I]\n"
     << "            [--daemon D] [--seed S] [--steps N]\n"
     << "                                     run any registered protocol\n"
     << "                                     (default: ssme)\n"
     << "  witness   <family> <args..> [--steps N]\n"
     << "                                     two-gradient witness + wave\n"
     << "  speculate <family> <args..> [--configs C] [--seed S]\n"
     << "                                     sd vs portfolio verdict\n"
     << "  elect     <family> <args..> [opts] alias: run --protocol leader\n"
     << "  color     <family> <args..> [opts] alias: run --protocol coloring\n"
     << "  campaign  [grid options]           parallel scenario sweep; see\n"
     << "                                     `specstab campaign --help`\n"
     << "  serve     [--port P | --unix PATH] long-lived JSON-RPC session\n"
     << "                                     service with result caching;\n"
     << "                                     see `specstab serve --help`\n\n"
     << "run/witness/speculate/elect/color/campaign accept\n"
     << "  --engine incremental|reference|parallel\n"
     << "                                     dirty-set engine (default),\n"
     << "                                     the full-rescan oracle, or the\n"
     << "                                     sharded parallel engine;\n"
     << "                                     vector = incremental (alias)\n"
     << "  --layout auto|soa|aos              configuration storage layout\n"
     << "                                     (auto: SoA where declared)\n"
     << "  --threads T                        parallel-engine worker threads\n"
     << "                                     (results identical at any T)\n"
     << "run additionally accepts\n"
     << "  --perturb SPEC                     mid-run fault injection:\n"
     << "                                     none (default) or\n"
     << "                                     periodic|burst|adversarial\n"
     << "                                     [:period=P;k=K;epochs=E;"
        "start=S]\n"
     << "                                     — reports per-epoch recovery\n";
  return os.str();
}

/// `specstab list`: the registry and the daemon catalog, as one table
/// each.  `--names` prints bare protocol names (one per line) for
/// scripting — the CI registry-smoke job iterates it.  `--markdown`
/// prints the protocol table as GitHub-flavoured markdown, byte-for-byte
/// the table embedded in docs/ARCHITECTURE.md — the CI doc-drift job
/// (tools/check_docs.py) diffs the two, so the docs cannot fall behind
/// the registry.
CliResult cmd_list(const std::vector<std::string>& args) {
  bool names_only = false;
  bool markdown = false;
  for (const auto& arg : args) {
    if (arg == "--names") {
      names_only = true;
    } else if (arg == "--markdown") {
      markdown = true;
    } else {
      fail("unknown option " + arg + " (list accepts --names | --markdown)");
    }
  }
  std::ostringstream os;
  const auto& registry = ProtocolRegistry::instance();
  if (names_only) {
    for (const auto& entry : registry.entries()) os << entry.info.name << '\n';
    return {0, os.str()};
  }
  if (markdown) {
    os << "| protocol | topology | inits (first = default) | vertex state | "
          "description |\n"
       << "| --- | --- | --- | --- | --- |\n";
    for (const auto& entry : registry.entries()) {
      std::string inits;
      for (const auto& i : entry.info.inits) {
        inits += inits.empty() ? i : " " + i;
      }
      os << "| `" << entry.info.name << "` | "
         << (entry.info.ring_only ? "ring" : "any") << " | " << inits << " | "
         << entry.info.state_model << " | " << entry.info.description
         << " |\n";
    }
    return {0, os.str()};
  }
  os << "protocols (run with `specstab run <family> <args..> --protocol "
        "<name>`):\n"
     << "  " << std::left << std::setw(18) << "name" << std::setw(10)
     << "topology" << std::setw(26) << "inits (first = default)"
     << std::setw(34) << "vertex state" << "description\n";
  for (const auto& entry : registry.entries()) {
    std::string inits;
    for (const auto& i : entry.info.inits) {
      inits += inits.empty() ? i : " " + i;
    }
    os << "  " << std::left << std::setw(18) << entry.info.name
       << std::setw(10) << (entry.info.ring_only ? "ring" : "any")
       << std::setw(26) << inits << std::setw(34) << entry.info.state_model
       << entry.info.description << '\n';
  }
  os << "\ndaemons (--daemon <name>):\n";
  for (const auto& info : daemon_catalog()) {
    os << "  " << std::left << std::setw(18) << info.name
       << (info.randomized ? "seeded " : "       ") << info.description
       << '\n';
  }
  return {0, os.str()};
}

std::string campaign_usage() {
  std::ostringstream os;
  os << "usage: specstab campaign [options]\n\n"
     << "Expands a scenario grid (protocol x topology x daemon x init x\n"
     << "seeds) and executes it on a thread pool; results are bit-identical\n"
     << "at any thread count.\n\n"
     << "grid options:\n"
     << "  --preset thm2|thm3|xover|sweep|demo\n"
     << "                                 start from a predefined grid\n"
     << "                                 (default: demo; sweep = every\n"
     << "                                 registered protocol)\n"
     << "  --smoke                        shrink the preset to a CI-sized\n"
     << "                                 grid\n"
     << "  --protocols a,b                any registered protocol name\n"
     << "                                 (see `specstab list`)\n"
     << "  --families f1,f2               single-parameter topology families\n"
     << "                                 (ring path star complete hypercube\n"
     << "                                 btree wheel); grid/torus become\n"
     << "                                 square SxS\n"
     << "  --sizes n1,n2                  sizes crossed with --families\n"
     << "  --daemons d1,d2                see `specstab daemons`\n"
     << "  --inits i1,i2                  random | zero | two-gradient |\n"
     << "                                 max-tokens\n"
     << "  --perturb p1/p2                fault-injection axis, '/'-separated\n"
     << "                                 (specs contain ';'): none or\n"
     << "                                 periodic|burst|adversarial\n"
     << "                                 [:period=P;k=K;epochs=E;"
        "start=S];\n"
     << "                                 default: the single cell none\n"
     << "  --reps R                       repetition seeds per random cell\n"
     << "  --seed S                       campaign base seed\n"
     << "run options:\n"
     << "  --threads T                    worker threads (0 = hardware)\n"
     << "  --steps N                      max-steps override for every run\n"
     << "  --engine incremental|reference|parallel\n"
     << "                                 execution engine (default:\n"
     << "                                 incremental; vector is an\n"
     << "                                 alias of incremental)\n"
     << "  --engine-threads T             shards per parallel-engine run\n"
     << "                                 (default 1: the campaign pool\n"
     << "                                 already parallelizes scenarios;\n"
     << "                                 raise it only with --threads\n"
     << "                                 lowered to compensate — each\n"
     << "                                 worker keeps a persistent engine\n"
     << "                                 pool of this size)\n"
     << "  --layout auto|soa|aos          configuration storage layout\n"
     << "                                 (default auto: SoA where the\n"
     << "                                 protocol declares a field split);\n"
     << "                                 artifacts are identical either way\n"
     << "  --order heavy|index            work-stealing schedule: heavy\n"
     << "                                 cells first (default) or grid\n"
     << "                                 order; artifacts are identical\n"
     << "                                 either way\n"
     << "artifacts:\n"
     << "  --json PATH                    write the full JSON document\n"
     << "  --csv PATH                     write the per-cell aggregate CSV\n"
     << "  --runs-csv PATH                write the per-run CSV\n";
  return os.str();
}

/// Splits "a,b,c" into tokens; empty tokens are rejected.
std::vector<std::string> split_list(const std::string& value,
                                    const std::string& what) {
  std::vector<std::string> out;
  std::istringstream in(value);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (token.empty()) fail("empty entry in " + what + " list");
    out.push_back(token);
  }
  if (out.empty()) fail("empty " + what + " list");
  return out;
}

CliResult cmd_campaign(const std::vector<std::string>& args) {
  namespace cmp = specstab::campaign;

  bool smoke = false;
  std::string preset;
  std::vector<std::string> protocols, families, daemons, inits, perturbs;
  std::vector<std::int64_t> sizes;
  std::size_t reps = 0;
  std::optional<std::uint64_t> seed;
  cmp::RunnerOptions run_opt;
  std::string json_path, cells_csv_path, runs_csv_path;

  const std::set<std::string> value_flags = {
      "--preset",  "--protocols", "--families", "--sizes",
      "--daemons", "--inits",     "--reps",     "--seed",
      "--threads", "--steps",     "--json",     "--csv",
      "--runs-csv", "--engine",   "--order",    "--layout",
      "--perturb", "--engine-threads"};
  for (std::size_t pos = 0; pos < args.size();) {
    const std::string& flag = args[pos];
    if (flag == "--help") return {0, campaign_usage()};
    if (flag == "--smoke") {
      smoke = true;
      ++pos;
      continue;
    }
    if (!value_flags.contains(flag)) {
      fail("unknown option " + flag + " (see `specstab campaign --help`)");
    }
    if (pos + 1 >= args.size()) fail("missing value for " + flag);
    const std::string& value = args[pos + 1];
    if (flag == "--preset") {
      preset = value;
    } else if (flag == "--protocols") {
      protocols = split_list(value, "protocol");
    } else if (flag == "--families") {
      families = split_list(value, "family");
    } else if (flag == "--sizes") {
      for (const auto& s : split_list(value, "size")) {
        std::int64_t n = 0;
        try {
          std::size_t used = 0;
          n = std::stoll(s, &used);
          if (used != s.size()) fail("bad size: " + s);
        } catch (const std::exception&) {
          fail("bad size: " + s);
        }
        if (n <= 0) fail("size must be positive: " + s);
        sizes.push_back(n);
      }
    } else if (flag == "--daemons") {
      daemons = split_list(value, "daemon");
    } else if (flag == "--inits") {
      inits = split_list(value, "init");
    } else if (flag == "--perturb") {
      // Fault specs contain ';' and may contain ',', so this axis is
      // '/'-separated.
      std::istringstream in(value);
      std::string token;
      while (std::getline(in, token, '/')) {
        if (token.empty()) fail("empty entry in perturb list");
        perturbs.push_back(token);
      }
      if (perturbs.empty()) fail("empty perturb list");
    } else if (flag == "--reps") {
      reps = static_cast<std::size_t>(parse_uint(value, "--reps"));
    } else if (flag == "--seed") {
      seed = parse_uint(value, "--seed");
    } else if (flag == "--threads") {
      const std::uint64_t t = parse_uint(value, "--threads");
      if (t > 4096) fail("--threads must be <= 4096");
      run_opt.threads = static_cast<unsigned>(t);
    } else if (flag == "--engine-threads") {
      const std::uint64_t t = parse_uint(value, "--engine-threads");
      if (t < 1 || t > 4096) fail("--engine-threads must be in [1, 4096]");
      run_opt.engine_threads = static_cast<unsigned>(t);
    } else if (flag == "--steps") {
      const std::uint64_t n = parse_uint(value, "--steps");
      if (n > static_cast<std::uint64_t>(
                  std::numeric_limits<StepIndex>::max())) {
        fail("out-of-range --steps: " + value);
      }
      run_opt.max_steps_override = static_cast<StepIndex>(n);
    } else if (flag == "--engine") {
      run_opt.engine = engine_by_name(value);
    } else if (flag == "--layout") {
      run_opt.layout = config_layout_by_name(value);
    } else if (flag == "--order") {
      run_opt.order = cmp::work_order_by_name(value);
    } else if (flag == "--json") {
      json_path = value;
    } else if (flag == "--csv") {
      cells_csv_path = value;
    } else if (flag == "--runs-csv") {
      runs_csv_path = value;
    }
    pos += 2;
  }

  cmp::CampaignGrid grid;
  if (preset.empty() || preset == "demo") {
    grid = cmp::demo_grid();
  } else if (preset == "thm2") {
    grid = cmp::thm2_grid(smoke);
  } else if (preset == "thm3") {
    grid = cmp::thm3_grid(smoke);
  } else if (preset == "xover") {
    grid = cmp::xover_grid(smoke);
  } else if (preset == "sweep") {
    grid = cmp::sweep_grid(smoke);
  } else {
    fail("unknown preset '" + preset +
         "' (thm2 | thm3 | xover | sweep | demo)");
  }

  if (!protocols.empty()) {
    grid.protocols.clear();
    for (const auto& p : protocols) {
      grid.protocols.push_back(cmp::protocol_by_name(p));
    }
  }
  if (!families.empty() || !sizes.empty()) {
    if (families.empty() || sizes.empty()) {
      fail("--families and --sizes must be given together");
    }
    grid.topologies.clear();
    for (const auto& family : families) {
      for (const auto n : sizes) {
        if (family == "grid" || family == "torus") {
          grid.topologies.push_back({family, n, n});
        } else {
          grid.topologies.push_back({family, n});
        }
      }
    }
  }
  if (!daemons.empty()) grid.daemons = daemons;
  if (!inits.empty()) {
    grid.inits.clear();
    for (const auto& i : inits) grid.inits.push_back(cmp::init_by_name(i));
  }
  if (!perturbs.empty()) grid.perturbs = perturbs;
  if (reps > 0) grid.reps = reps;
  if (seed) grid.base_seed = *seed;

  const auto items = cmp::expand_grid(grid);
  if (items.empty()) fail("the grid expands to zero scenarios");
  const auto result = cmp::run_scenarios(items, run_opt);
  const auto cells = cmp::aggregate(result);

  if (!json_path.empty()) {
    cmp::write_text_file(json_path, cmp::to_json(result, cells));
  }
  if (!cells_csv_path.empty()) {
    cmp::write_text_file(cells_csv_path, cmp::cells_to_csv(cells));
  }
  if (!runs_csv_path.empty()) {
    cmp::write_text_file(runs_csv_path, cmp::runs_to_csv(result));
  }

  std::ostringstream os;
  os << "campaign: " << items.size() << " scenarios over " << cells.size()
     << " cells, " << result.threads_used << " thread"
     << (result.threads_used == 1 ? "" : "s") << '\n'
     << std::left << std::setw(14) << "protocol" << std::setw(16)
     << "topology" << std::setw(17) << "daemon" << std::setw(14) << "init"
     << std::right << std::setw(5) << "runs" << std::setw(5) << "conv"
     << std::setw(7) << "min" << std::setw(9) << "mean" << std::setw(7)
     << "max" << std::setw(7) << "p95" << '\n'
     << std::string(101, '-') << '\n';
  for (const auto& c : cells) {
    os << std::left << std::setw(14) << c.protocol << std::setw(16)
       << c.topology << std::setw(17) << c.daemon << std::setw(14) << c.init
       << std::right << std::setw(5) << c.runs << std::setw(5)
       << c.converged_runs << std::setw(7) << c.min_steps << std::setw(9)
       << std::fixed << std::setprecision(1) << c.mean_steps << std::setw(7)
       << c.max_steps << std::setw(7) << c.p95_steps << '\n';
  }
  // Recovery-time table for the perturbed cells only (the main table is
  // already wide; unperturbed grids keep their exact output).
  bool any_perturbed = false;
  for (const auto& c : cells) any_perturbed |= c.perturb != "none";
  if (any_perturbed) {
    os << '\n'
       << "perturbed cells (recovery steps over recovered epochs):\n"
       << std::left << std::setw(14) << "protocol" << std::setw(16)
       << "topology" << std::setw(36) << "perturb" << std::right
       << std::setw(7) << "epochs" << std::setw(7) << "unrec" << std::setw(7)
       << "min" << std::setw(9) << "mean" << std::setw(7) << "max"
       << std::setw(7) << "p95" << '\n'
       << std::string(110, '-') << '\n';
    for (const auto& c : cells) {
      if (c.perturb == "none") continue;
      os << std::left << std::setw(14) << c.protocol << std::setw(16)
         << c.topology << std::setw(36) << c.perturb << std::right
         << std::setw(7) << c.perturb_epochs << std::setw(7)
         << c.perturb_unrecovered << std::setw(7) << c.recovery_min
         << std::setw(9) << std::fixed << std::setprecision(1)
         << c.recovery_mean << std::setw(7) << c.recovery_max << std::setw(7)
         << c.recovery_p95 << '\n';
    }
  }
  const bool all_converged =
      result.converged_count() == result.rows.size();
  os << '\n'
     << "converged: " << result.converged_count() << '/' << result.rows.size()
     << (all_converged ? "" : "  !! NON-CONVERGED RUNS") << '\n';
  return {all_converged ? 0 : 2, os.str()};
}

CliResult cmd_topologies() {
  std::ostringstream os;
  for (const auto& f : known_families()) os << f << '\n';
  return {0, os.str()};
}

CliResult cmd_daemons() {
  std::ostringstream os;
  for (const auto& info : daemon_catalog()) {
    os << std::left << std::setw(18) << info.name << info.description
       << '\n';
  }
  return {0, os.str()};
}

CliResult cmd_params(const std::vector<std::string>& args) {
  std::size_t pos = 0;
  const Graph g = graph_from_spec(args, pos);
  const auto params = SsmeParams::for_graph(g);
  std::ostringstream os;
  os << "graph:   n = " << g.n() << ", m = " << g.m()
     << ", diam = " << params.diam << ", radius = " << radius(g)
     << ", girth = " << girth(g) << (is_tree(g) ? " (tree)" : "") << '\n';
  if (g.n() <= 32) {
    const auto minimal = minimal_unison_parameters(g);
    os << "unison:  hole(g) = " << minimal.hole << ", cyclo(g) = "
       << minimal.cyclo << ", lcp(g) = " << longest_chordless_path(g)
       << " -> minimal alpha = " << minimal.alpha << ", minimal K = "
       << minimal.k << '\n';
  } else {
    os << "unison:  exact hole/cyclo/lcp skipped (n > 32; the paper's\n"
          "         alpha = n, K > n always satisfy the constraints)\n";
  }
  os << "ssme:    clock = " << params.make_clock().describe()
     << ", privileged_v = 2n + 2*diam*id_v\n"
     << "bounds:  sync  conv_time <= " << ssme_sync_bound(params.diam)
     << " steps (Theorem 2, optimal by Theorem 4)\n"
     << "         async conv_time <= " << ssme_ud_bound(params.n, params.diam)
     << " steps (Theorem 3)\n";
  return {0, os.str()};
}

CliResult cmd_graph(const std::vector<std::string>& args) {
  std::size_t pos = 0;
  const Graph g = graph_from_spec(args, pos);
  const Options opt = parse_options(args, pos);
  return {0, opt.dot ? g.to_dot() : to_edge_list(g)};
}

/// The generic run path: any registered protocol, composed at runtime
/// with a topology, daemon, init family and engine.  `forced_protocol`
/// serves the thin aliases (elect, color); an explicit --protocol always
/// wins.
CliResult cmd_run(const std::vector<std::string>& args,
                  const std::string& forced_protocol = "") {
  std::size_t pos = 0;
  const std::string family = args.empty() ? "" : args[0];
  const Graph g = graph_from_spec(args, pos);
  const Options opt = parse_options(args, pos);

  std::string protocol = opt.protocol;
  if (protocol.empty()) {
    protocol = forced_protocol.empty() ? "ssme" : forced_protocol;
  }
  // Ring-only topology validation happens inside the session (the
  // structural check, so `file`-loaded rings qualify).
  const ProtocolEntry& entry = ProtocolRegistry::instance().at(protocol);

  SessionSpec spec;
  spec.daemon = opt.daemon;
  spec.init = opt.init;
  spec.seed = opt.seed;
  spec.max_steps = opt.max_steps;
  spec.engine = opt.engine;
  spec.layout = opt.layout;
  spec.threads = opt.threads;
  spec.perturb = opt.perturb;
  const SessionResult res = entry.run(g, spec);

  std::ostringstream os;
  os << "protocol:   " << entry.info.name << " — " << entry.info.description
     << '\n'
     << "topology:   " << family << " (n = " << g.n() << ", m = " << g.m()
     << ")\n"
     << "daemon:     " << opt.daemon << '\n'
     << "engine:     " << engine_name(opt.engine) << '\n'
     << "layout:     " << config_layout_name(opt.layout)
     << (opt.layout == ConfigLayout::kAuto ? " (soa where declared)" : "")
     << '\n'
     << "init:       "
     << (opt.init.empty() ? entry.info.inits.front() + " (default)"
                          : opt.init)
     << ", seed " << opt.seed << '\n'
     // The canonical session identity — the same spelling
     // SessionSpec::parse() round-trips and `specstab serve` keys its
     // result cache on (docs/SERVE.md).
     << "session:    " << spec.to_canonical_string() << '\n'
     << "steps run:  " << res.steps << " (moves " << res.moves << ", rounds "
     << res.rounds << ")"
     << (res.terminated ? "  [terminal]"
                        : res.hit_step_cap ? "  [step cap]" : "")
     << '\n'
     << "converged:  "
     << (res.converged ? "yes, at step " +
                             std::to_string(res.convergence_steps) +
                             " (moves " +
                             std::to_string(res.moves_to_convergence) +
                             ", rounds " +
                             std::to_string(res.rounds_to_convergence) + ")"
                       : std::string("NO"))
     << '\n';
  if (res.closure_violations > 0) {
    os << "closure:    " << res.closure_violations
       << " legitimate -> illegitimate transitions\n";
  }
  if (res.perturb != "none") {
    const auto join = [](const std::vector<StepIndex>& v) {
      std::string out;
      for (const auto s : v) {
        out += (out.empty() ? "" : " ") + std::to_string(s);
      }
      return out.empty() ? std::string("-") : out;
    };
    os << "perturb:    " << res.perturb << " — " << res.perturb_epochs
       << " epochs fired, " << res.perturb_unrecovered << " unrecovered\n"
       << "recovery:   steps per epoch: " << join(res.recovery_steps)
       << "  (fired at: " << join(res.perturb_fire_steps) << ")\n";
    if (!res.service_stalls.empty()) {
      os << "service:    stall per epoch: " << join(res.service_stalls)
         << "  (-1 = no privileged activation in window)\n";
    }
  }
  for (const auto& note : res.notes) os << "note:       " << note << '\n';
  // Silent protocols must reach their terminal configuration, not just
  // the legitimate set (elect/color's original acceptance check).
  const bool ok = res.converged && (!entry.info.silent || res.terminated);
  return {ok ? 0 : 2, os.str()};
}

CliResult cmd_witness(const std::vector<std::string>& args) {
  std::size_t pos = 0;
  const Graph g = graph_from_spec(args, pos);
  const Options opt = parse_options(args, pos);
  reject_protocol_options(opt, "witness");
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);
  const auto [u, v] = diameter_pair(g);

  SynchronousDaemon daemon;
  RunOptions run_opt;
  run_opt.engine = opt.engine;
  run_opt.layout = opt.layout;
  run_opt.threads = opt.threads;
  run_opt.max_steps =
      opt.max_steps > 0 ? opt.max_steps
                        : 2 * (proto.params().k + proto.params().n);
  run_opt.record_trace = true;
  auto checker = make_gamma1_checker(proto);
  const auto res = run_with_engine(
      g, proto, daemon, two_gradient_config(g, proto, u, v), run_opt, checker);

  std::ostringstream os;
  os << "two-gradient witness on diameter pair (" << u << ", " << v
     << "), predicted double privilege at step "
     << two_gradient_violation_step(g, u, v) << ":\n\n";
  WaveRenderOptions render;
  render.max_rows = 24;
  os << render_clock_wave(g, proto, res.trace.materialize(), render) << '\n'
     << "Gamma_1 entry at step "
     << (res.converged() ? std::to_string(res.convergence_steps())
                         : std::string("(not reached)"))
     << "; Theorem 2 bound " << ssme_sync_bound(proto.params().diam)
     << " steps.\n";
  return {0, os.str()};
}

CliResult cmd_speculate(const std::vector<std::string>& args) {
  std::size_t pos = 0;
  const Graph g = graph_from_spec(args, pos);
  const Options opt = parse_options(args, pos);
  reject_protocol_options(opt, "speculate");
  const SsmeProtocol proto = SsmeProtocol::for_graph(g);

  auto inits = random_configs(g, proto.clock(), opt.configs, opt.seed);
  inits.push_back(two_gradient_config(g, proto));
  auto safe = make_mutex_safety_checker(proto);
  RunOptions run_opt;
  run_opt.engine = opt.engine;
  run_opt.layout = opt.layout;
  run_opt.threads = opt.threads;
  run_opt.max_steps = 40 * (proto.params().k + proto.params().n);

  SynchronousDaemon sd;
  const auto sync = measure_convergence(g, proto, sd, inits, safe, run_opt);
  auto portfolio = AdversaryPortfolio::standard(opt.seed);
  const auto pm =
      measure_portfolio(g, proto, portfolio, inits, safe, run_opt);

  std::ostringstream os;
  os << std::left << std::setw(22) << "daemon" << std::right << std::setw(12)
     << "worst steps" << '\n'
     << std::string(34, '-') << '\n'
     << std::left << std::setw(22) << sync.daemon_name << std::right
     << std::setw(12) << sync.worst_steps << '\n';
  for (const auto& row : pm.rows) {
    os << std::left << std::setw(22) << row.daemon_name << std::right
       << std::setw(12) << row.worst_steps << '\n';
  }
  os << '\n'
     << "speculation: sd " << sync.worst_steps << " <= Theorem-2 bound "
     << ssme_sync_bound(proto.params().diam) << "; portfolio worst "
     << pm.worst_steps << " <= Theorem-3 bound "
     << ssme_ud_bound(proto.params().n, proto.params().diam) << '\n';
  const bool ok =
      sync.worst_steps <= ssme_sync_bound(proto.params().diam) &&
      pm.worst_steps <= ssme_ud_bound(proto.params().n, proto.params().diam) &&
      sync.all_converged && pm.all_converged;
  os << (ok ? "verdict: speculatively stabilizing (both bounds hold)\n"
            : "verdict: BOUND VIOLATION (see rows above)\n");
  return {ok ? 0 : 2, os.str()};
}

}  // namespace

Graph graph_from_spec(const std::vector<std::string>& args,
                      std::size_t& pos) {
  if (pos >= args.size()) fail("missing graph family");
  const std::string family = args[pos++];
  const auto next_int = [&](const std::string& what) {
    return static_cast<VertexId>(parse_int(args, pos, what));
  };
  if (family == "ring") return make_ring(next_int("ring size"));
  if (family == "path") return make_path(next_int("path size"));
  if (family == "star") return make_star(next_int("star size"));
  if (family == "complete") return make_complete(next_int("clique size"));
  if (family == "grid") {
    const VertexId r = next_int("grid rows");
    return make_grid(r, next_int("grid cols"));
  }
  if (family == "torus") {
    const VertexId r = next_int("torus rows");
    return make_torus(r, next_int("torus cols"));
  }
  if (family == "hypercube") {
    return make_hypercube(static_cast<int>(next_int("hypercube dim")));
  }
  if (family == "btree") return make_binary_tree(next_int("tree size"));
  if (family == "wheel") return make_wheel(next_int("wheel size"));
  if (family == "petersen") return make_petersen();
  if (family == "random") {
    const VertexId n = next_int("random n");
    if (pos >= args.size()) fail("missing random edge probability");
    const double p = parse_double(args[pos++], "edge probability");
    return make_random_connected(
        n, p, static_cast<std::uint64_t>(parse_int(args, pos, "seed")));
  }
  if (family == "file") {
    if (pos >= args.size()) fail("missing file path");
    std::ifstream in(args[pos]);
    if (!in) fail("cannot open " + args[pos]);
    ++pos;
    return read_edge_list(in);
  }
  fail("unknown family '" + family + "' (see `specstab topologies`)");
}

std::unique_ptr<Daemon> daemon_by_name(const std::string& name,
                                       std::uint64_t seed) {
  return make_daemon(name, seed);
}

std::vector<std::string> known_daemons() { return known_daemon_names(); }

std::vector<std::string> known_families() {
  return {"ring N",        "path N",      "star N",     "complete N",
          "grid R C",      "torus R C",   "hypercube D", "btree N",
          "wheel N",       "petersen",    "random N P SEED",
          "file PATH"};
}

CliResult run_cli(const std::vector<std::string>& args) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    return {args.empty() ? 1 : 0, usage()};
  }
  const std::string& cmd = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  // Topology subcommands read their first arguments as a graph family, so
  // `--help` is answered before the family parser sees it.
  static const std::set<std::string> kTopologyCommands = {
      "params", "graph", "run", "witness", "speculate", "elect", "color"};
  if (kTopologyCommands.count(cmd) != 0 &&
      std::find(rest.begin(), rest.end(), "--help") != rest.end()) {
    return {0, usage()};
  }
  try {
    if (cmd == "list") return cmd_list(rest);
    if (cmd == "topologies") return cmd_topologies();
    if (cmd == "daemons") return cmd_daemons();
    if (cmd == "params") return cmd_params(rest);
    if (cmd == "graph") return cmd_graph(rest);
    if (cmd == "run") return cmd_run(rest);
    if (cmd == "witness") return cmd_witness(rest);
    if (cmd == "speculate") return cmd_speculate(rest);
    if (cmd == "elect") return cmd_run(rest, "leader");
    if (cmd == "color") return cmd_run(rest, "coloring");
    if (cmd == "campaign") return cmd_campaign(rest);
    if (cmd == "serve") {
      // The serve verb is a process lifecycle (sockets, signals, a
      // blocking drain), not a request/response subcommand — the binary
      // dispatches it to serve::serve_main before reaching run_cli.
      return {1,
              "serve runs as a process-level verb of the specstab binary; "
              "try `specstab serve --help`\n"};
    }
    return {1, "unknown subcommand '" + cmd + "'\n\n" + usage()};
  } catch (const std::invalid_argument& e) {
    return {1, std::string("error: ") + e.what() + "\n"};
  } catch (const std::runtime_error& e) {
    // I/O failures (unwritable artifact paths, unreadable graph files)
    // are user errors too, not crashes.
    return {1, std::string("error: ") + e.what() + "\n"};
  }
}

}  // namespace specstab::cli
