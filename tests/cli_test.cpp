// Tests for the CLI module: every subcommand, parser errors, exit codes.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "graph/io.hpp"
#include "graph/generators.hpp"

namespace specstab::cli {
namespace {

TEST(CliTest, NoArgsPrintsUsageAndFails) {
  const auto res = run_cli({});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpPrintsUsageAndSucceeds) {
  const auto res = run_cli({"help"});
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_NE(res.output.find("subcommands:"), std::string::npos);
}

TEST(CliTest, TopologySubcommandsAnswerHelp) {
  // The family parser must not see `--help` as a graph family.
  for (const char* cmd :
       {"run", "witness", "speculate", "elect", "color", "params", "graph"}) {
    const auto res = run_cli({cmd, "--help"});
    EXPECT_EQ(res.exit_code, 0) << cmd;
    EXPECT_NE(res.output.find("usage:"), std::string::npos) << cmd;
  }
  const auto after_family = run_cli({"run", "ring", "8", "--help"});
  EXPECT_EQ(after_family.exit_code, 0);
  EXPECT_NE(after_family.output.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownSubcommandFails) {
  const auto res = run_cli({"frobnicate"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("unknown subcommand"), std::string::npos);
}

TEST(CliTest, TopologiesListsFamilies) {
  const auto res = run_cli({"topologies"});
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_NE(res.output.find("ring N"), std::string::npos);
  EXPECT_NE(res.output.find("file PATH"), std::string::npos);
}

TEST(CliTest, DaemonsListsNames) {
  const auto res = run_cli({"daemons"});
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_NE(res.output.find("synchronous"), std::string::npos);
  EXPECT_NE(res.output.find("bernoulli-<p>"), std::string::npos);
}

TEST(CliTest, ParamsOnRing) {
  const auto res = run_cli({"params", "ring", "8"});
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_NE(res.output.find("n = 8"), std::string::npos);
  EXPECT_NE(res.output.find("diam = 4"), std::string::npos);
  EXPECT_NE(res.output.find("Theorem 2"), std::string::npos);
}

TEST(CliTest, ParamsMissingArgFails) {
  const auto res = run_cli({"params", "ring"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("error:"), std::string::npos);
}

TEST(CliTest, ParamsUnknownFamilyFails) {
  const auto res = run_cli({"params", "dodecahedron", "5"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("unknown family"), std::string::npos);
}

TEST(CliTest, GraphEmitsEdgeList) {
  const auto res = run_cli({"graph", "path", "3"});
  EXPECT_EQ(res.exit_code, 0);
  const Graph g = from_edge_list(res.output);
  EXPECT_EQ(g.n(), 3);
  EXPECT_EQ(g.m(), 2);
}

TEST(CliTest, GraphDotOutput) {
  const auto res = run_cli({"graph", "ring", "4", "--dot"});
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_NE(res.output.find("graph"), std::string::npos);
  EXPECT_NE(res.output.find("--"), std::string::npos);
}

TEST(CliTest, RunConvergesOnSmallRing) {
  const auto res = run_cli({"run", "ring", "6", "--seed", "7"});
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_NE(res.output.find("protocol:   ssme"), std::string::npos);
  EXPECT_NE(res.output.find("daemon:     synchronous"), std::string::npos);
  EXPECT_NE(res.output.find("converged:  yes"), std::string::npos);
  EXPECT_NE(res.output.find("bounds: sync <="), std::string::npos);
}

TEST(CliTest, ListShowsProtocolAndDaemonCatalogs) {
  const auto res = run_cli({"list"});
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_NE(res.output.find("protocols"), std::string::npos);
  EXPECT_NE(res.output.find("dijkstra-ring"), std::string::npos);
  EXPECT_NE(res.output.find("unbounded-unison"), std::string::npos);
  EXPECT_NE(res.output.find("daemons"), std::string::npos);
  EXPECT_NE(res.output.find("bernoulli-<p>"), std::string::npos);
}

TEST(CliTest, ListNamesIsScriptFriendly) {
  const auto res = run_cli({"list", "--names"});
  EXPECT_EQ(res.exit_code, 0);
  // One bare registry name per line, nothing else.
  std::istringstream in(res.output);
  std::string line;
  std::size_t count = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.find(' '), std::string::npos) << line;
    ++count;
  }
  EXPECT_GE(count, 9u);
}

TEST(CliTest, RunReachesEveryRegisteredProtocol) {
  // The generic path: every protocol in `list --names` runs on a ring
  // and converges (exit 0) — the same loop the CI registry-smoke job
  // executes.
  const auto names = run_cli({"list", "--names"});
  std::istringstream in(names.output);
  std::string name;
  while (std::getline(in, name)) {
    const auto res =
        run_cli({"run", "ring", "8", "--protocol", name, "--seed", "5"});
    EXPECT_EQ(res.exit_code, 0) << name << "\n" << res.output;
    EXPECT_NE(res.output.find("protocol:   " + name), std::string::npos);
  }
}

TEST(CliTest, RunUnknownProtocolFails) {
  const auto res = run_cli({"run", "ring", "6", "--protocol", "nope"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("unknown protocol"), std::string::npos);
}

TEST(CliTest, RunRingOnlyProtocolRejectsOtherTopologies) {
  const auto res =
      run_cli({"run", "path", "6", "--protocol", "dijkstra-ring"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("ring N"), std::string::npos);
}

TEST(CliTest, RingOnlyProtocolAcceptsStructuralRingsFromFiles) {
  // The gate tests the instantiated graph, not the family token: a ring
  // loaded through the `file` family must reach dijkstra-ring.
  const std::string path = "cli_test_ring_file.txt";
  {
    std::ofstream out(path);
    out << to_edge_list(make_ring(7));
  }
  const auto res =
      run_cli({"run", "file", path, "--protocol", "dijkstra-ring"});
  std::remove(path.c_str());
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("protocol:   dijkstra-ring"),
            std::string::npos);
}

TEST(CliTest, WitnessAndSpeculateRejectProtocolOptions) {
  // SSME-specific analysis tools must not silently run SSME while the
  // user asked for another protocol.
  for (const std::string cmd : {"witness", "speculate"}) {
    const auto res = run_cli({cmd, "ring", "6", "--protocol", "coloring"});
    EXPECT_EQ(res.exit_code, 1) << cmd;
    EXPECT_NE(res.output.find("SSME-specific"), std::string::npos) << cmd;
  }
}

TEST(CliTest, RunHonorsInitFamily) {
  const auto res = run_cli({"run", "ring", "7", "--protocol",
                            "dijkstra-ring", "--init", "max-tokens"});
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("init:       max-tokens"), std::string::npos);
}

TEST(CliTest, RunRejectsUnsupportedInit) {
  const auto res = run_cli({"run", "ring", "7", "--protocol",
                            "dijkstra-ring", "--init", "two-gradient"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("does not support init"), std::string::npos);
}

TEST(CliTest, RunAcceptsEveryListedDaemon) {
  for (const std::string name :
       {"synchronous", "central-rr", "central-random", "central-min-id",
        "central-max-id", "random-subset", "locally-central",
        "bernoulli-0.5"}) {
    const auto res = run_cli({"run", "ring", "5", "--daemon", name});
    EXPECT_EQ(res.exit_code, 0) << name << "\n" << res.output;
  }
}

TEST(CliTest, RunUnknownDaemonFails) {
  const auto res = run_cli({"run", "ring", "5", "--daemon", "maxwells"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("unknown daemon"), std::string::npos);
}

TEST(CliTest, RunBadBernoulliProbabilityFails) {
  const auto res = run_cli({"run", "ring", "5", "--daemon", "bernoulli-1.5"});
  EXPECT_EQ(res.exit_code, 1);
}

TEST(CliTest, WitnessShowsDoublePrivilege) {
  const auto res = run_cli({"witness", "path", "6"});
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_NE(res.output.find("double privilege"), std::string::npos);
  EXPECT_NE(res.output.find("Theorem 2 bound"), std::string::npos);
}

TEST(CliTest, SpeculateVerdictOnRing) {
  const auto res =
      run_cli({"speculate", "ring", "6", "--configs", "4", "--seed", "3"});
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("speculatively stabilizing"), std::string::npos);
}

TEST(CliTest, FileFamilyRoundTrip) {
  const std::string path = "cli_test_graph.txt";
  {
    std::ofstream out(path);
    out << to_edge_list(make_ring(5));
  }
  const auto res = run_cli({"params", "file", path});
  std::remove(path.c_str());
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("n = 5"), std::string::npos);
}

TEST(CliTest, FileFamilyMissingFileFails) {
  const auto res = run_cli({"params", "file", "/nonexistent/nope.txt"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("cannot open"), std::string::npos);
}

TEST(CliTest, ElectRunsLeaderElection) {
  const auto res = run_cli({"elect", "grid", "3", "3", "--seed", "4"});
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("protocol:   leader"), std::string::npos);
  EXPECT_NE(res.output.find("leader: identity 0 (vertex 0)"),
            std::string::npos);
  EXPECT_NE(res.output.find("elected: yes"), std::string::npos);
}

TEST(CliTest, ElectWorksUnderCentralDaemon) {
  const auto res =
      run_cli({"elect", "ring", "7", "--daemon", "central-random"});
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("[terminal]"), std::string::npos);
}

TEST(CliTest, ColorRunsColoring) {
  const auto res = run_cli({"color", "random", "12", "0.3", "9"});
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("protocol:   coloring"), std::string::npos);
  EXPECT_NE(res.output.find("final monochromatic edges: 0"),
            std::string::npos);
}

TEST(CliTest, UsageMentionsExtensionSubcommands) {
  const auto res = run_cli({"help"});
  EXPECT_NE(res.output.find("elect"), std::string::npos);
  EXPECT_NE(res.output.find("color"), std::string::npos);
}

TEST(CliTest, UnknownOptionFails) {
  const auto res = run_cli({"run", "ring", "5", "--frobnicate", "1"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("unknown option"), std::string::npos);
}

TEST(CliTest, GraphFromSpecAdvancesPosition) {
  std::size_t pos = 0;
  const std::vector<std::string> args = {"grid", "3", "4", "--dot"};
  const Graph g = graph_from_spec(args, pos);
  EXPECT_EQ(g.n(), 12);
  EXPECT_EQ(pos, 3u);
}

TEST(CliTest, DaemonFactoryNamesMatchRegistry) {
  // Every concrete name in known_daemons() must be constructible (the
  // bernoulli entry is a template the tests instantiate at 0.25).
  for (const auto& name : known_daemons()) {
    const std::string concrete =
        name == "bernoulli-<p>" ? "bernoulli-0.25" : name;
    EXPECT_NO_THROW({ auto d = daemon_by_name(concrete, 1); }) << concrete;
  }
}

TEST(CliTest, UsageMentionsCampaign) {
  const auto res = run_cli({"help"});
  EXPECT_NE(res.output.find("campaign"), std::string::npos);
}

TEST(CliTest, CampaignHelpListsGridOptions) {
  const auto res = run_cli({"campaign", "--help"});
  EXPECT_EQ(res.exit_code, 0);
  EXPECT_NE(res.output.find("--preset"), std::string::npos);
  EXPECT_NE(res.output.find("--threads"), std::string::npos);
}

TEST(CliTest, CampaignRunsACustomGrid) {
  const auto res = run_cli({"campaign", "--protocols", "ssme", "--families",
                            "ring,path", "--sizes", "4,6", "--daemons",
                            "synchronous", "--inits", "random,zero",
                            "--reps", "2", "--threads", "2"});
  EXPECT_EQ(res.exit_code, 0) << res.output;
  // 2 families x 2 sizes x 1 daemon x (2 random reps + 1 zero).
  EXPECT_NE(res.output.find("campaign: 12 scenarios over 8 cells"),
            std::string::npos);
  EXPECT_NE(res.output.find("converged: 12/12"), std::string::npos);
}

TEST(CliTest, CampaignWritesArtifacts) {
  const std::string json = "cli_campaign_test.json";
  const std::string csv = "cli_campaign_test.csv";
  const auto res = run_cli({"campaign", "--protocols", "ssme", "--families",
                            "ring", "--sizes", "5", "--daemons",
                            "synchronous", "--inits", "zero", "--json", json,
                            "--csv", csv});
  EXPECT_EQ(res.exit_code, 0) << res.output;
  std::ifstream json_in(json);
  EXPECT_TRUE(json_in.good());
  std::string first_line;
  std::getline(json_in, first_line);
  EXPECT_NE(first_line.find("\"campaign\""), std::string::npos);
  std::ifstream csv_in(csv);
  EXPECT_TRUE(csv_in.good());
  std::remove(json.c_str());
  std::remove(csv.c_str());
}

TEST(CliTest, CampaignUnwritableArtifactPathFailsCleanly) {
  const auto res = run_cli({"campaign", "--protocols", "ssme", "--families",
                            "ring", "--sizes", "4", "--daemons",
                            "synchronous", "--inits", "zero", "--json",
                            "/nonexistent-dir/out.json"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("error: cannot open"), std::string::npos);
}

TEST(CliTest, CampaignBadPresetFails) {
  const auto res = run_cli({"campaign", "--preset", "nope"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("unknown preset"), std::string::npos);
}

TEST(CliTest, CampaignUnknownFlagNamesTheFlag) {
  const auto res = run_cli({"campaign", "--bogus"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("unknown option --bogus"), std::string::npos);
}

TEST(CliTest, CampaignRejectsNegativeNumericOptions) {
  for (const std::string flag : {"--reps", "--threads", "--steps"}) {
    const auto res = run_cli({"campaign", flag, "-1"});
    EXPECT_EQ(res.exit_code, 1) << flag;
    EXPECT_NE(res.output.find("non-negative"), std::string::npos) << flag;
  }
}

TEST(CliTest, CampaignSeedSurvives64Bits) {
  // A seed above 2^53 must not be corrupted by a double round-trip: the
  // same seed twice gives identical tables, a different seed does not.
  const std::vector<std::string> base = {
      "campaign", "--protocols", "ssme",   "--families", "ring",
      "--sizes",  "6",           "--daemons", "central-random",
      "--inits",  "random",      "--reps", "3"};
  auto with_seed = [&](const std::string& s) {
    auto args = base;
    args.insert(args.end(), {"--seed", s});
    return run_cli(args).output;
  };
  EXPECT_EQ(with_seed("18446744073709551615"),
            with_seed("18446744073709551615"));
  EXPECT_NE(with_seed("18446744073709551615"),
            with_seed("18446744073709551614"));
}

TEST(CliTest, CampaignFamiliesRequireSizes) {
  const auto res = run_cli({"campaign", "--families", "ring"});
  EXPECT_EQ(res.exit_code, 1);
  EXPECT_NE(res.output.find("--families and --sizes"), std::string::npos);
}

TEST(CliTest, CampaignSmokePresetRuns) {
  const auto res = run_cli({"campaign", "--preset", "xover", "--smoke"});
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("bernoulli-0.1"), std::string::npos);
}

}  // namespace
}  // namespace specstab::cli
