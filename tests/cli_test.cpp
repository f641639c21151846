// Tests for the datanet CLI: flag parsing and the three subcommands driven
// through the library entry points (no process spawning).

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/args.hpp"
#include "cli/commands.hpp"

namespace dcli = datanet::cli;

// ---- Args ----

TEST(Args, ParsesFlagValuePairs) {
  std::string err;
  const auto args = dcli::Args::parse({"--out", "x.log", "--records", "100"}, &err);
  ASSERT_TRUE(args);
  EXPECT_EQ(args->get("out"), "x.log");
  EXPECT_EQ(args->get_u64("records"), 100u);
}

TEST(Args, ParsesEqualsForm) {
  std::string err;
  const auto args = dcli::Args::parse({"--alpha=0.4", "--type=movie"}, &err);
  ASSERT_TRUE(args);
  EXPECT_DOUBLE_EQ(*args->get_double("alpha"), 0.4);
  EXPECT_EQ(args->get("type"), "movie");
}

TEST(Args, BooleanFlags) {
  std::string err;
  const auto args = dcli::Args::parse({"--verbose", "--in", "f"}, &err);
  ASSERT_TRUE(args);
  EXPECT_TRUE(args->has("verbose"));
  EXPECT_FALSE(args->has("quiet"));
}

TEST(Args, TrailingFlagIsBoolean) {
  std::string err;
  const auto args = dcli::Args::parse({"--in", "f", "--show-output"}, &err);
  ASSERT_TRUE(args);
  EXPECT_TRUE(args->has("show-output"));
}

TEST(Args, PositionalArgs) {
  std::string err;
  const auto args = dcli::Args::parse({"pos1", "--k", "3", "pos2"}, &err);
  ASSERT_TRUE(args);
  ASSERT_EQ(args->positional().size(), 2u);
  EXPECT_EQ(args->positional()[0], "pos1");
}

TEST(Args, Defaults) {
  std::string err;
  const auto args = dcli::Args::parse({}, &err);
  ASSERT_TRUE(args);
  EXPECT_EQ(args->get_or("type", "movie"), "movie");
  EXPECT_EQ(args->get_u64_or("records", 7), 7u);
  EXPECT_DOUBLE_EQ(args->get_double_or("alpha", 0.3), 0.3);
}

TEST(Args, MalformedNumbersYieldNullopt) {
  std::string err;
  const auto args = dcli::Args::parse({"--records", "abc"}, &err);
  ASSERT_TRUE(args);
  EXPECT_FALSE(args->get_u64("records"));
}

TEST(Args, BareDashesRejected) {
  std::string err;
  EXPECT_FALSE(dcli::Args::parse({"--"}, &err));
  EXPECT_FALSE(err.empty());
}

TEST(Args, UnusedFlagsReported) {
  std::string err;
  const auto args = dcli::Args::parse({"--in", "f", "--typo", "x"}, &err);
  ASSERT_TRUE(args);
  (void)args->get("in");
  const auto unused = args->unused_flags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

// ---- commands ----

namespace {
struct TempDir {
  std::filesystem::path dir;
  TempDir() {
    dir = std::filesystem::temp_directory_path() /
          ("datanet_cli_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
  }
  ~TempDir() { std::filesystem::remove_all(dir); }
  std::string file(const std::string& name) const { return (dir / name).string(); }
};

int run(std::initializer_list<const char*> argv, std::string* output) {
  std::ostringstream out;
  const int rc = dcli::run_cli({argv.begin(), argv.end()}, out);
  if (output) *output = out.str();
  return rc;
}
}  // namespace

TEST(Cli, HelpAndUnknownCommand) {
  std::string out;
  EXPECT_EQ(run({"--help"}, &out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);
  EXPECT_EQ(run({"frobnicate"}, &out), 1);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
  EXPECT_EQ(run({}, &out), 1);
}

TEST(Cli, GenerateRequiresOut) {
  std::string out;
  EXPECT_EQ(run({"generate"}, &out), 1);
  EXPECT_NE(out.find("--out"), std::string::npos);
}

TEST(Cli, GenerateInspectAnalyzePipeline) {
  TempDir tmp;
  const auto log = tmp.file("movies.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--type", "movie",
                 "--records", "8000", "--seed", "3"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("wrote 8000 movie records"), std::string::npos);

  ASSERT_EQ(run({"inspect", "--in", log.c_str(), "--top", "3"}, &out), 0) << out;
  EXPECT_NE(out.find("sub-datasets"), std::string::npos);
  EXPECT_NE(out.find("movie_00000"), std::string::npos);
  EXPECT_NE(out.find("Gamma fit"), std::string::npos);

  ASSERT_EQ(run({"analyze", "--in", log.c_str(), "--key", "movie_00000",
                 "--job", "wordcount", "--nodes", "8", "--block-size", "16384"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("locality"), std::string::npos);
  EXPECT_NE(out.find("datanet"), std::string::npos);
  EXPECT_NE(out.find("improvement"), std::string::npos);
}

TEST(Cli, GenerateRejectsUnknownType) {
  TempDir tmp;
  std::string out;
  EXPECT_EQ(run({"generate", "--out", tmp.file("x").c_str(), "--type", "bogus"},
                &out),
            1);
  EXPECT_NE(out.find("unknown --type"), std::string::npos);
}

TEST(Cli, InspectMissingFileFails) {
  std::string out;
  EXPECT_EQ(run({"inspect", "--in", "/no/such/file"}, &out), 1);
  EXPECT_NE(out.find("error"), std::string::npos);
}

TEST(Cli, AnalyzeUnknownJobFails) {
  TempDir tmp;
  const auto log = tmp.file("g.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--records", "2000"}, &out), 0);
  EXPECT_EQ(run({"analyze", "--in", log.c_str(), "--key", "movie_00000",
                 "--job", "nope"},
                &out),
            1);
  EXPECT_NE(out.find("unknown --job"), std::string::npos);
}

TEST(Cli, AnalyzeSessionizeOnGithub) {
  TempDir tmp;
  const auto log = tmp.file("gh.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--type", "github",
                 "--records", "6000"},
                &out),
            0);
  ASSERT_EQ(run({"analyze", "--in", log.c_str(), "--key", "PushEvent", "--job",
                 "sessionize", "--field", "actor=", "--gap", "3600", "--nodes",
                 "4", "--show-output"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("sessions="), std::string::npos);
}

TEST(Cli, WarnsOnUnknownFlags) {
  TempDir tmp;
  std::string out;
  ASSERT_EQ(run({"generate", "--out", tmp.file("w.log").c_str(), "--records",
                 "1000", "--bogus-flag", "7"},
                &out),
            0);
  EXPECT_NE(out.find("warning: unknown flag --bogus-flag"), std::string::npos);
}

TEST(Cli, SimulateCommand) {
  TempDir tmp;
  const auto log = tmp.file("sim.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--records", "8000",
                 "--seed", "5"},
                &out),
            0);
  ASSERT_EQ(run({"simulate", "--in", log.c_str(), "--key", "movie_00000",
                 "--nodes", "8", "--slots", "2", "--disk-mbps", "50"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("event-driven selection"), std::string::npos);
  EXPECT_NE(out.find("makespan"), std::string::npos);
  EXPECT_NE(out.find("datanet"), std::string::npos);
}

TEST(Cli, SimulateUnknownKeyFails) {
  TempDir tmp;
  const auto log = tmp.file("sim2.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--records", "2000"}, &out), 0);
  EXPECT_EQ(run({"simulate", "--in", log.c_str(), "--key", "no_such_movie"},
                &out),
            1);
  EXPECT_NE(out.find("not found"), std::string::npos);
}

TEST(Cli, FaultsCommandRunsStragglerPlan) {
  TempDir tmp;
  const auto log = tmp.file("flt.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--records", "8000",
                 "--seed", "5"},
                &out),
            0);
  ASSERT_EQ(run({"faults", "--in", log.c_str(), "--key", "movie_00000",
                 "--nodes", "8", "--stall-nodes", "1", "--transient-reads",
                 "2", "--json"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("fault plan fired"), std::string::npos);
  EXPECT_NE(out.find("timeouts"), std::string::npos);
  EXPECT_NE(out.find("post-fault fsck"), std::string::npos);
  EXPECT_NE(out.find("\"attempts\":"), std::string::npos);
  EXPECT_NE(out.find("\"under_replicated\":"), std::string::npos);
}

TEST(Cli, FaultsRequiresKey) {
  TempDir tmp;
  const auto log = tmp.file("flt2.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--records", "1000"}, &out),
            0);
  EXPECT_EQ(run({"faults", "--in", log.c_str()}, &out), 1);
  EXPECT_NE(out.find("--key"), std::string::npos);
}

TEST(Cli, FsckCommandHealsAndRecovers) {
  TempDir tmp;
  const auto log = tmp.file("fsck.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--records", "8000",
                 "--seed", "9"},
                &out),
            0);
  const auto workdir = tmp.file("namenode");
  ASSERT_EQ(run({"fsck", "--in", log.c_str(), "--workdir", workdir.c_str(),
                 "--nodes", "8", "--kill-nodes", "1", "--corrupt-replicas",
                 "2", "--repair-rate", "4"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("checkpoint"), std::string::npos);
  EXPECT_NE(out.find("journal"), std::string::npos);
  EXPECT_NE(out.find("fault plan fired"), std::string::npos);
  EXPECT_NE(out.find("fsck before healing"), std::string::npos);
  EXPECT_NE(out.find("fsck after healing: 0 missing, 0 under-replicated"),
            std::string::npos);
  EXPECT_NE(out.find("recovered shard digest matches"), std::string::npos);
}

TEST(Cli, FsckReportsABlockWithNoHealthyCopyAsCorrupt) {
  // At 8 nodes this input's fault plan leaves one block whose every copy is
  // marked corrupt: it reads corrupt (not under-replicated) before and after
  // healing and across the crash/recover round trip, and the drill fails.
  TempDir tmp;
  const auto log = tmp.file("corrupt.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--records", "6000",
                 "--seed", "4"},
                &out),
            0);
  EXPECT_EQ(run({"fsck", "--in", log.c_str(), "--workdir",
                 tmp.file("nn").c_str(), "--nodes", "8"},
                &out),
            1)
      << out;
  EXPECT_NE(out.find("0 unrepairable"), std::string::npos) << out;
  EXPECT_NE(out.find("fsck after healing: 0 missing, 0 under-replicated, "
                     "1 corrupt (no healthy copy)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("0 under-replicated, 1 corrupt, 1 open"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("error: namespace is not healthy after healing"),
            std::string::npos);
}

TEST(Cli, FsckRequiresIn) {
  std::string out;
  EXPECT_EQ(run({"fsck"}, &out), 1);
  EXPECT_NE(out.find("--in"), std::string::npos);
}

TEST(Cli, ForecastCommand) {
  TempDir tmp;
  const auto log = tmp.file("f.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--records", "12000",
                 "--seed", "9"},
                &out),
            0);
  ASSERT_EQ(run({"forecast", "--in", log.c_str(), "--key", "movie_00000"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("Gamma"), std::string::npos);
  EXPECT_NE(out.find("gini"), std::string::npos);
  EXPECT_NE(out.find("128"), std::string::npos);  // forecast rows
}

TEST(Cli, InspectReportsConcentration) {
  TempDir tmp;
  const auto log = tmp.file("c.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--records", "5000"}, &out), 0);
  ASSERT_EQ(run({"inspect", "--in", log.c_str()}, &out), 0);
  EXPECT_NE(out.find("gini="), std::string::npos);
  EXPECT_NE(out.find("normalized entropy="), std::string::npos);
}

TEST(Cli, AnalyzeDistinctUsers) {
  TempDir tmp;
  const auto log = tmp.file("d.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--type", "worldcup",
                 "--records", "6000"},
                &out),
            0);
  ASSERT_EQ(run({"analyze", "--in", log.c_str(), "--key", "page_0000", "--job",
                 "distinct", "--field", "client=", "--nodes", "4"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("improvement"), std::string::npos);
}

TEST(Cli, AnalyzeJsonOutput) {
  TempDir tmp;
  const auto log = tmp.file("j.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--records", "3000"}, &out), 0);
  ASSERT_EQ(run({"analyze", "--in", log.c_str(), "--key", "movie_00000",
                 "--nodes", "4", "--json"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("\"total_seconds\":"), std::string::npos);
  EXPECT_NE(out.find("\"input_records\":"), std::string::npos);
}

TEST(Cli, FsckExitsNonZeroWhenDataIsLost) {
  TempDir tmp;
  const auto log = tmp.file("loss.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--records", "8000",
                 "--seed", "9"},
                &out),
            0);
  // Replication 1: killing nodes loses blocks outright, and the healer has
  // no surviving source — the run must exit non-zero, not report success,
  // whether the victim is the only shard or one of several.
  for (const char* shards : {"1", "2"}) {
    EXPECT_EQ(run({"fsck", "--in", log.c_str(), "--workdir",
                   tmp.file(std::string("loss-nn") + shards).c_str(),
                   "--meta-shards", shards, "--nodes", "8", "--replication",
                   "1", "--kill-nodes", "2", "--corrupt-replicas", "0",
                   "--repair-rate", "4"},
                  &out),
              1)
        << shards << " shard(s):\n" << out;
    EXPECT_NE(out.find("not healthy after healing"), std::string::npos)
        << shards << " shard(s)";
  }
}

TEST(Cli, FsckShardedPlaneKillsAndRecoversOneShard) {
  TempDir tmp;
  const auto log = tmp.file("plane.log");
  std::string out;
  ASSERT_EQ(run({"generate", "--out", log.c_str(), "--records", "6000",
                 "--seed", "4"},
                &out),
            0);
  ASSERT_EQ(run({"fsck", "--in", log.c_str(), "--meta-shards", "4",
                 "--workdir", tmp.file("plane-nn").c_str(), "--nodes", "8"},
                &out),
            0)
      << out;
  EXPECT_NE(out.find("4 metadata shards"), std::string::npos);
  EXPECT_NE(out.find("fsck after healing: 0 missing, 0 under-replicated"),
            std::string::npos);
  EXPECT_NE(out.find("other shard(s) still serving"), std::string::npos);
  EXPECT_NE(out.find("recovered shard digest matches"), std::string::npos);
  EXPECT_NE(out.find("plane fsck:"), std::string::npos);
  EXPECT_EQ(out.find("error:"), std::string::npos);
}

TEST(Cli, QueryStatsRequiresPortButNotKey) {
  std::string out;
  // --stats is a valid action without --key, but still needs a server.
  EXPECT_EQ(run({"query", "--stats"}, &out), 1);
  EXPECT_NE(out.find("--port"), std::string::npos);
  // Neither key nor an action: the error names the alternatives.
  EXPECT_EQ(run({"query", "--port", "1"}, &out), 1);
  EXPECT_NE(out.find("--stats/--shutdown"), std::string::npos);
}
