// CLI contract of the command-line programs that share support/cli.hpp:
// stream_daemon, fluxfp_loadgen and the experiment binaries (exp_models
// stands in for all of them; they share bench::parse_options), plus
// attack_cli, whose key-value options follow the same contract. Every
// argument-parsing failure — unknown subcommand or flag, missing,
// non-numeric or out-of-range value, missing operand — exits 2 through
// the one usage-error path with a one-line diagnostic plus the brief
// usage; --help exits 0. These run the real binaries (paths injected by
// CMake) so the contract covers the actual main(), not a
// reimplementation.
//
// Cases that would do real work if parsing accepted them carry an
// endpoint or trace path that cannot exist, so a regression fails fast
// with exit 1 instead of serving or replaying.

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <string>

#if !defined(STREAM_DAEMON_BIN) || !defined(FLUXFP_LOADGEN_BIN) || \
    !defined(EXP_MODELS_BIN) || !defined(ATTACK_CLI_BIN)
#error "STREAM_DAEMON_BIN, FLUXFP_LOADGEN_BIN, EXP_MODELS_BIN and ATTACK_CLI_BIN must be defined by the build"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

RunResult run(const char* bin, const std::string& args) {
  const std::string cmd = std::string(bin) + " " + args + " 2>&1";
  RunResult res;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << cmd;
    return res;
  }
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    res.output.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  res.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status)
                                                     : -1;
  return res;
}

void expect_usage_error(const char* bin, const char* program,
                        const std::string& args, const std::string& needle) {
  const RunResult res = run(bin, args);
  EXPECT_EQ(res.exit_code, 2) << args << "\n" << res.output;
  EXPECT_NE(res.output.find(std::string(program) + ":"), std::string::npos)
      << args << "\n" << res.output;
  EXPECT_NE(res.output.find("usage:"), std::string::npos)
      << args << "\n" << res.output;
  EXPECT_NE(res.output.find(needle), std::string::npos)
      << args << "\n" << res.output;
}

RunResult run_daemon(const std::string& args) {
  return run(STREAM_DAEMON_BIN, args);
}

void expect_daemon_usage_error(const std::string& args,
                               const std::string& needle) {
  expect_usage_error(STREAM_DAEMON_BIN, "stream_daemon", args, needle);
}

void expect_loadgen_usage_error(const std::string& args,
                                const std::string& needle) {
  expect_usage_error(FLUXFP_LOADGEN_BIN, "fluxfp_loadgen", args, needle);
}

// Addresses and paths under a directory that does not exist.
const std::string kNoSock = "unix:/nonexistent-fluxfp-dir/s.sock";
const std::string kNoTrace = "/nonexistent-fluxfp-dir/t.trace";

// ---------------------------------------------------------------------------
// stream_daemon
// ---------------------------------------------------------------------------

TEST(StreamDaemonCli, HelpExitsZeroAndListsSubcommands) {
  const RunResult res = run_daemon("--help");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  for (const char* sub : {"local", "serve", "query"}) {
    EXPECT_NE(res.output.find(sub), std::string::npos) << res.output;
  }
  const RunResult help_word = run_daemon("help");
  EXPECT_EQ(help_word.exit_code, 0) << help_word.output;
}

TEST(StreamDaemonCli, UnknownSubcommandExitsTwo) {
  expect_daemon_usage_error("frobnicate", "unknown subcommand");
}

TEST(StreamDaemonCli, UnknownFlagExitsTwoInEverySubcommand) {
  expect_daemon_usage_error("local --no-such-flag", "--no-such-flag");
  expect_daemon_usage_error("serve --bogus", "--bogus");
  expect_daemon_usage_error("query tcp:127.0.0.1:1 --bogus", "--bogus");
}

TEST(StreamDaemonCli, MissingFlagValueExitsTwo) {
  expect_daemon_usage_error("local --sessions", "--sessions");
  expect_daemon_usage_error("serve --listen", "--listen");
}

TEST(StreamDaemonCli, NonNumericValueExitsTwoInsteadOfParsingAsZero) {
  // The historical bug: strtoull silently turned "abc" into 0. Every
  // numeric flag now goes through checked parsing.
  expect_daemon_usage_error("local --sessions abc", "--sessions");
  expect_daemon_usage_error("local --rounds 3x", "--rounds");
  expect_daemon_usage_error("local --speed fast", "--speed");
  expect_daemon_usage_error("serve --queue-capacity -", "--queue-capacity");
}

TEST(StreamDaemonCli, ClientSubcommandsRequireAnAddress) {
  expect_daemon_usage_error("query", "ADDR");
}

TEST(StreamDaemonCli, MalformedEndpointExitsTwo) {
  expect_daemon_usage_error("serve --listen nonsense", "nonsense");
}

TEST(StreamDaemonCli, BareFlagsStillMeanLocalForBackCompat) {
  // The pre-subcommand invocation `stream_daemon --sessions N ...` must
  // keep working; a tiny run proves it routes to `local` and succeeds.
  const std::string trace = "/tmp/fxn_cli_smoke.trace";
  const RunResult res = run_daemon(
      "--sessions 1 --rounds 1 --workers 1 --trace " + trace);
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("replayed"), std::string::npos) << res.output;
  std::remove(trace.c_str());
}

TEST(StreamDaemonCli, BadTokenSpecExitsTwo) {
  expect_daemon_usage_error("serve --token notanumber", "--token");
  expect_daemon_usage_error("serve --token 3", "--token");
}

TEST(StreamDaemonCli, RoundsAboveIntMaxExitTwoInsteadOfWrapping) {
  // 4294967298 = 2^32 + 2 used to run 2 rounds.
  expect_daemon_usage_error("local --sessions 1 --workers 1 --rounds "
                            "4294967298 --trace " + kNoTrace,
                            "--rounds");
  expect_daemon_usage_error("local --rounds 2147483648 --trace " + kNoTrace,
                            "--rounds");
  expect_daemon_usage_error("local --rounds -1", "--rounds");
}

TEST(StreamDaemonCli, TenantAndUserIdsAboveUint32ExitTwoInsteadOfTruncating) {
  expect_daemon_usage_error(
      "serve --listen " + kNoSock + " --token 4294967296:5", "--token");
  expect_daemon_usage_error(
      "query " + kNoSock + " --tenant 4294967296 --metrics", "--tenant");
  expect_daemon_usage_error("query " + kNoSock + " --user 4294967296",
                            "--user");
}

TEST(StreamDaemonCli, SpeedMustBeFiniteAndNonNegative) {
  for (const char* speed : {"nan", "inf", "-1"}) {
    expect_daemon_usage_error(
        std::string("local --sessions 1 --rounds 1 --workers 1 --trace ") +
            kNoTrace + " --speed " + speed,
        "--speed");
  }
}

// ---------------------------------------------------------------------------
// fluxfp_loadgen
// ---------------------------------------------------------------------------

TEST(FluxfpLoadgenCli, HelpExitsZero) {
  const RunResult res = run(FLUXFP_LOADGEN_BIN, "--help");
  EXPECT_EQ(res.exit_code, 0) << res.output;
  EXPECT_NE(res.output.find("--connections"), std::string::npos)
      << res.output;
}

TEST(FluxfpLoadgenCli, UnknownFlagExitsTwo) {
  expect_loadgen_usage_error(kNoSock + " --trace " + kNoTrace + " --bogus",
                             "--bogus");
}

TEST(FluxfpLoadgenCli, RequiresAnAddressAndATrace) {
  expect_loadgen_usage_error("--trace " + kNoTrace, "ADDR");
  expect_loadgen_usage_error(kNoSock, "--trace");
  expect_loadgen_usage_error(kNoSock + " --trace " + kNoTrace + " extra",
                             "extra");
}

TEST(FluxfpLoadgenCli, MissingOrNonNumericValueExitsTwo) {
  expect_loadgen_usage_error(kNoSock + " --trace", "--trace");
  expect_loadgen_usage_error(kNoSock + " --trace " + kNoTrace +
                                 " --connections four",
                             "--connections");
  expect_loadgen_usage_error(
      kNoSock + " --trace " + kNoTrace + " --batch 0", "--batch");
}

TEST(FluxfpLoadgenCli, ConnectionsMustBeAMultipleOfTenants) {
  expect_loadgen_usage_error(kNoSock + " --trace " + kNoTrace +
                                 " --connections 3 --tenants 2",
                             "multiple");
}

TEST(FluxfpLoadgenCli, MalformedEndpointExitsTwo) {
  expect_loadgen_usage_error("nonsense --trace " + kNoTrace, "nonsense");
}

TEST(FluxfpLoadgenCli, BadTokenSpecExitsTwo) {
  expect_loadgen_usage_error(
      kNoSock + " --trace " + kNoTrace + " --token 3", "--token");
}

TEST(FluxfpLoadgenCli, TokenTenantAboveUint32ExitsTwoInsteadOfTruncating) {
  expect_loadgen_usage_error(
      kNoSock + " --trace " + kNoTrace + " --token 4294967296:1", "--token");
}

TEST(FluxfpLoadgenCli, SpeedMustBeFiniteAndNonNegative) {
  for (const char* speed : {"nan", "inf", "-1"}) {
    expect_loadgen_usage_error(kNoSock + " --trace " + kNoTrace +
                                   " --speed " + speed,
                               "--speed");
  }
}

// ---------------------------------------------------------------------------
// Experiment binaries (bench::parse_options)
// ---------------------------------------------------------------------------

TEST(ExperimentCli, MalformedSeedAndUnknownFlagExitTwoBeforeAnyWork) {
  // "2O10" (letter O) used to parse as seed 2, and unknown flags were
  // ignored; either way the full table ran.
  for (const char* args : {"--quick --seed 2O10", "--quick --bogus"}) {
    const RunResult res = run(EXP_MODELS_BIN, args);
    EXPECT_EQ(res.exit_code, 2) << args << "\n" << res.output;
    EXPECT_NE(res.output.find("exp_models:"), std::string::npos)
        << res.output;
    EXPECT_NE(res.output.find("usage:"), std::string::npos) << res.output;
    EXPECT_EQ(res.output.find("=="), std::string::npos)
        << "work started before the usage error:\n"
        << res.output;
  }
}

// ---------------------------------------------------------------------------
// attack_cli
// ---------------------------------------------------------------------------

// A regression here would start the scenario (with --users -1, SIZE_MAX
// users), so every case runs under a time limit and also asserts that the
// network line the first step prints never appears.
const std::string kAttackCli = std::string("timeout 60 ") + ATTACK_CLI_BIN;

void expect_attack_usage_error(const std::string& args,
                               const std::string& needle) {
  expect_usage_error(kAttackCli.c_str(), "attack_cli", args, needle);
  const RunResult res = run(kAttackCli.c_str(), args);
  EXPECT_EQ(res.output.find("network:"), std::string::npos)
      << "work started before the usage error:\n"
      << res.output;
}

TEST(AttackCli, UnknownKeyFromAFlagOrAConfigFileExitsTwo) {
  expect_attack_usage_error("--users 1 --rounds 1 --bogus 3",
                            "unknown key 'bogus'");
  const std::string path = testing::TempDir() + "attack_cli_unknown_key.cfg";
  {
    std::ofstream cfg(path);
    cfg << "users = 1\nrounds = 1\nsniff_fraction = 0.2  # misspelt key\n";
  }
  expect_attack_usage_error(path, "unknown key 'sniff_fraction'");
  std::remove(path.c_str());
}

TEST(AttackCli, OutOfRangeCountsExitTwoBeforeAnyWork) {
  expect_attack_usage_error("--rounds -5", "--rounds needs an integer");
  expect_attack_usage_error("--rounds 0", "--rounds needs an integer");
  expect_attack_usage_error("--rounds 2147483648", "--rounds needs an integer");
  expect_attack_usage_error("--users -1", "--users needs an integer");
  expect_attack_usage_error("--users 0", "--users needs an integer");
  expect_attack_usage_error("--users 33", "--users needs an integer");
  expect_attack_usage_error("--nodes 0", "--nodes needs an integer");
  expect_attack_usage_error("--dummy_count -2", "--dummy_count needs");
}

TEST(AttackCli, OutOfRangeFractionsExitTwoBeforeAnyWork) {
  expect_attack_usage_error("--fraction 0", "--fraction needs a number");
  expect_attack_usage_error("--fraction 1.5", "--fraction needs a number");
  expect_attack_usage_error("--dropout 2", "--dropout needs a number");
  expect_attack_usage_error("--dropout -0.1", "--dropout needs a number");
  expect_attack_usage_error("--noise nan", "--noise needs a number");
}

TEST(AttackCli, MalformedValuesAndUnknownChoicesExitTwo) {
  expect_attack_usage_error("--rounds x", "--rounds needs an integer");
  expect_attack_usage_error("--seed 2O10", "--seed needs an integer");
  expect_attack_usage_error("--users", "--users needs an integer");
  expect_attack_usage_error("--tracker kalman", "--tracker needs one of");
  expect_attack_usage_error("--defense wall", "--defense needs one of");
  expect_attack_usage_error("/nonexistent-fluxfp-dir/s.cfg", "cannot open");
}

}  // namespace
