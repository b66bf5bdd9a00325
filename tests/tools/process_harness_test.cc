// The process harness's own contract (tools/process_harness.h), checked
// with /bin/sh, cat and sleep children only: no server, no socket.
#include "tools/process_harness.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace skycube::harness {
namespace {

Child SpawnShell(const std::string& script, Io io,
                 const std::string& faults = "") {
  Result<Child> child = Spawn("/bin/sh", {"-c", script}, io, faults);
  EXPECT_TRUE(child.ok()) << child.status().ToString();
  return child.ok() ? child.value() : Child{};
}

TEST(ProcessHarnessTest, ScrapesThePortFromTheListenLineAfterOtherLines) {
  Child child = SpawnShell(
      "echo starting >&2; echo 'shard 0/3 owns 9 of 20 rows' >&2; "
      "echo 'listening on 127.0.0.1:4321 (2-dim cube, version 1)' >&2; "
      "exec sleep 30",
      Io::kListenLine);
  EXPECT_EQ(child.port, 4321);
  EXPECT_EQ(Stop(&child, SIGKILL), -SIGKILL);
}

TEST(ProcessHarnessTest, WaitReturnsTheExitCodeOrTheNegatedSignal) {
  Child clean = SpawnShell("exit 0", Io::kPipes);
  EXPECT_EQ(Wait(&clean), 0);
  Child failed = SpawnShell("exit 3", Io::kPipes);
  EXPECT_EQ(Wait(&failed), 3);
  Child killed = SpawnShell("exec sleep 30", Io::kPipes);
  EXPECT_EQ(Stop(&killed, SIGKILL), -9);
  EXPECT_EQ(killed.pid, -1);
}

TEST(ProcessHarnessTest, ALineWrittenToCatComesBack) {
  Result<Child> cat = Spawn("/bin/cat", {}, Io::kPipes);
  ASSERT_TRUE(cat.ok()) << cat.status().ToString();
  Child child = cat.value();
  std::fprintf(child.to, "insert 0.1,0.2\n");
  std::fflush(child.to);
  std::string line;
  ASSERT_TRUE(ReadLine(child.from, &line));
  EXPECT_EQ(line, "insert 0.1,0.2");
  EXPECT_EQ(Wait(&child), 0);  // closing its stdin ends cat
}

TEST(ProcessHarnessTest, ArmedFaultsReachTheChildOnlyWhenSet) {
  // A value this process inherited must not reach an unarmed child.
  ASSERT_EQ(setenv("SKYCUBE_ARM_FAULTS", "inherited=1", 1), 0);
  const std::string print = "echo \"${SKYCUBE_ARM_FAULTS-unset}\"";
  Child armed = SpawnShell(print, Io::kPipes, "wal.append_torn=1");
  Child plain = SpawnShell(print, Io::kPipes);
  unsetenv("SKYCUBE_ARM_FAULTS");
  std::string line;
  ASSERT_TRUE(ReadLine(armed.from, &line));
  EXPECT_EQ(line, "wal.append_torn=1");
  ASSERT_TRUE(ReadLine(plain.from, &line));
  EXPECT_EQ(line, "unset");
  EXPECT_EQ(Wait(&armed), 0);
  EXPECT_EQ(Wait(&plain), 0);
}

// A harness starts one server, the next never prints its listen line, and
// it exits on that failure: the first server must be killed and reaped
// before the harness is gone, and a sibling it did not spawn left alone.
TEST(ProcessHarnessTest, AFailedSpawnLeavesNoChildOfTheHarnessRunning) {
  Child sibling = SpawnShell("exec sleep 30", Io::kPipes);
  Result<Child> harness = SpawnFunction(
      [] {
        Result<Child> first =
            Spawn("/bin/sh", {"-c", "exec sleep 30"}, Io::kPipes);
        if (!first.ok()) return 2;
        std::printf("%d\n", static_cast<int>(first.value().pid));
        const bool spawned = Spawn("/bin/true", {}, Io::kListenLine).ok();
        std::printf("%s\n", spawned ? "spawned" : "failed");
        std::exit(1);
      },
      Io::kPipes);
  ASSERT_TRUE(harness.ok()) << harness.status().ToString();
  Child child = harness.value();
  std::string first_pid;
  std::string outcome;
  ASSERT_TRUE(ReadLine(child.from, &first_pid));
  ASSERT_TRUE(ReadLine(child.from, &outcome));
  EXPECT_EQ(outcome, "failed");
  EXPECT_EQ(Wait(&child), 1);

  EXPECT_EQ(kill(std::stoi(first_pid), 0), -1);
  EXPECT_EQ(errno, ESRCH);
  int status = 0;
  EXPECT_EQ(waitpid(sibling.pid, &status, WNOHANG), 0);
  EXPECT_EQ(Stop(&sibling, SIGKILL), -SIGKILL);
}

}  // namespace
}  // namespace skycube::harness
