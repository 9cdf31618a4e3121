// Background compaction: the snapshot worker must checkpoint a
// consistent cut while appends keep landing, repeated CompactAsync
// under load must converge to exactly the linearized append set, and
// the auto-triggers (records past snapshot, sealed segments) must fold
// the log without ever stalling ingest. Deterministic interleavings
// come from `StoreOptions::compaction_hook`, which pauses the snapshot
// worker between phases.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/file_io.h"
#include "src/provenance/executor.h"
#include "src/provenance/serialize.h"
#include "src/store/persistent_repository.h"
#include "src/store/sharded_repository.h"
#include "src/store/snapshot.h"
#include "src/store/wal.h"
#include "src/workflow/builder.h"
#include "src/workflow/serialize.h"
#include "tests/store_test_util.h"

namespace paw {
namespace {

namespace fs = std::filesystem;

std::string TestDir(const std::string& name) {
  fs::path dir = fs::path(::testing::TempDir()) / ("paw_bgc_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

Specification NamedSpec(const std::string& name) {
  SpecBuilder b(name);
  WorkflowId w = b.AddWorkflow("W1", "top", 0);
  EXPECT_TRUE(b.SetRoot(w).ok());
  ModuleId in = b.AddInput(w);
  ModuleId m = b.AddModule(w, "M1", "Work");
  ModuleId out = b.AddOutput(w);
  EXPECT_TRUE(b.Connect(in, m, {"x"}).ok());
  EXPECT_TRUE(b.Connect(m, out, {"y"}).ok());
  auto spec = std::move(b).Build();
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return std::move(spec).value();
}

/// Serialized entries in LSN order (specs then executions).
std::vector<std::string> Dump(const Repository& repo) {
  std::vector<std::string> out;
  for (int id = 0; id < repo.num_specs(); ++id) {
    out.push_back(Serialize(repo.entry(id).spec));
  }
  for (int id = 0; id < repo.num_executions(); ++id) {
    out.push_back(
        SerializeExecution(repo.execution(ExecutionId(id)).exec));
  }
  return out;
}

Execution MakeExec(const Specification& spec, const std::string& value) {
  FunctionRegistry fns;
  auto exec = Execute(spec, fns, {{"x", value}});
  EXPECT_TRUE(exec.ok()) << exec.status().ToString();
  return std::move(exec).value();
}

/// Pauses the snapshot worker at chosen phases until released; counts
/// pauses so tests can wait for N workers (sharded stores share the
/// hook across shards).
struct PhaseGate {
  CompactionPhase pause_at = CompactionPhase::kSnapshot;
  std::mutex mu;
  std::condition_variable cv;
  int paused = 0;
  bool released = false;

  std::function<void(CompactionPhase)> Hook() {
    return [this](CompactionPhase phase) {
      if (phase != pause_at) return;
      std::unique_lock<std::mutex> lock(mu);
      ++paused;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
    };
  }
  void AwaitPaused(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return paused >= n; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

TEST(BackgroundCompactionTest, AppendsContinueWhileSnapshotWorkerRuns) {
  const std::string dir = TestDir("overlap");
  PhaseGate gate;
  StoreOptions options;
  options.compaction_hook = gate.Hook();

  auto store = PersistentRepository::Init(dir, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value().AddSpecification(NamedSpec("ov")).ok());
  const Specification& spec = store.value().repo().entry(0).spec;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.value()
                    .AddExecution(0, MakeExec(spec, "pre" + std::to_string(i)))
                    .ok());
  }
  const uint64_t cut_lsn = store.value().lsn();  // 4

  // CompactAsync returns with the worker still before its first phase.
  ASSERT_TRUE(store.value().CompactAsync().ok());
  gate.AwaitPaused(1);
  EXPECT_TRUE(store.value().compaction_running());

  // Ingest is not frozen: appends land while the worker is paused
  // mid-compaction, going to the fresh active segment.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        store.value()
            .AddExecution(0, MakeExec(spec, "during" + std::to_string(i)))
            .ok());
  }
  EXPECT_EQ(store.value().lsn(), cut_lsn + 4);
  EXPECT_EQ(store.value().snapshot_lsn(), 0u);  // not installed yet

  gate.Release();
  ASSERT_TRUE(store.value().WaitForCompaction().ok());
  EXPECT_FALSE(store.value().compaction_running());
  // The snapshot covers exactly the cut, not the concurrent appends.
  EXPECT_EQ(store.value().snapshot_lsn(), cut_lsn);
  EXPECT_EQ(store.value().records_since_snapshot(), 4u);
  ASSERT_TRUE(store.value().Sync().ok());

  const std::vector<std::string> expected = Dump(store.value().repo());
  CloseStore(&store);
  auto reopened = PersistentRepository::Open(dir, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().recovery().snapshot_lsn, cut_lsn);
  EXPECT_EQ(reopened.value().recovery().records_replayed, 4u);
  EXPECT_EQ(Dump(reopened.value().repo()), expected);
  EXPECT_EQ(reopened.value().lsn(), cut_lsn + 4);
}

TEST(BackgroundCompactionTest, PhasesRunInCrashSafeOrder) {
  const std::string dir = TestDir("phases");
  std::mutex mu;
  std::vector<CompactionPhase> seen;
  StoreOptions options;
  options.compaction_hook = [&](CompactionPhase phase) {
    std::lock_guard<std::mutex> lock(mu);
    seen.push_back(phase);
  };
  auto store = PersistentRepository::Init(dir, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value().AddSpecification(NamedSpec("ph")).ok());
  ASSERT_TRUE(store.value().CompactAsync().ok());
  ASSERT_TRUE(store.value().WaitForCompaction().ok());
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], CompactionPhase::kSnapshot);
  EXPECT_EQ(seen[1], CompactionPhase::kInstall);
  EXPECT_EQ(seen[2], CompactionPhase::kCleanup);
  EXPECT_EQ(seen[3], CompactionPhase::kDone);

  // Everything below the cut folded: one live, nearly-empty segment.
  auto segments = ListWalSegments(dir);
  ASSERT_TRUE(segments.ok());
  EXPECT_EQ(segments.value().size(), 1u);
  EXPECT_EQ(store.value().records_since_snapshot(), 0u);
}

TEST(BackgroundCompactionTest, CompactAsyncWhileRunningIsANoOp) {
  const std::string dir = TestDir("reentry");
  PhaseGate gate;
  StoreOptions options;
  options.compaction_hook = gate.Hook();
  auto store = PersistentRepository::Init(dir, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value().AddSpecification(NamedSpec("re")).ok());
  ASSERT_TRUE(store.value().CompactAsync().ok());
  gate.AwaitPaused(1);
  const uint64_t seq_before = store.value().wal().active_seq();
  // A second CompactAsync while one runs must not take another cut.
  ASSERT_TRUE(store.value().CompactAsync().ok());
  EXPECT_EQ(store.value().wal().active_seq(), seq_before);
  gate.Release();
  ASSERT_TRUE(store.value().WaitForCompaction().ok());
}

void RunRepeatedCompactAsyncStress(PayloadCodec codec,
                                   const std::string& name) {
  const std::string dir = TestDir(name);
  StoreOptions options;
  options.codec = codec;
  auto store = PersistentRepository::Init(dir, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value().AddSpecification(NamedSpec("stress")).ok());
  const Specification& spec = store.value().repo().entry(0).spec;
  constexpr int kRecords = 120;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(store.value()
                    .AddExecution(0, MakeExec(spec, "s" + std::to_string(i)))
                    .ok());
    // Keep cutting mid-stream; most calls overlap a running worker and
    // are no-ops — exactly the production cadence.
    if (i % 13 == 0) {
      ASSERT_TRUE(store.value().CompactAsync().ok());
    }
  }
  ASSERT_TRUE(store.value().WaitForCompaction().ok());
  ASSERT_TRUE(store.value().Compact().ok());  // final fold, everything covered
  EXPECT_EQ(store.value().lsn(), static_cast<uint64_t>(kRecords) + 1);
  EXPECT_EQ(store.value().records_since_snapshot(), 0u);

  // The reopened store equals the linearized append set exactly.
  const std::vector<std::string> expected = Dump(store.value().repo());
  EXPECT_EQ(expected.size(), static_cast<size_t>(kRecords) + 1);
  CloseStore(&store);
  auto reopened = PersistentRepository::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Dump(reopened.value().repo()), expected);
  EXPECT_EQ(reopened.value().lsn(), static_cast<uint64_t>(kRecords) + 1);
  EXPECT_EQ(reopened.value().recovery().records_replayed, 0u);
}

TEST(BackgroundCompactionTest, RepeatedCompactAsyncStressBinaryCodec) {
  RunRepeatedCompactAsyncStress(PayloadCodec::kBinary, "stress_bin");
}

TEST(BackgroundCompactionTest, RepeatedCompactAsyncStressTextCodec) {
  RunRepeatedCompactAsyncStress(PayloadCodec::kText, "stress_text");
}

TEST(BackgroundCompactionTest, SegmentBytesAutoTriggerFoldsInBackground) {
  const std::string dir = TestDir("auto_seg");
  StoreOptions options;
  options.segment_bytes = 512;
  options.background_compaction = true;
  auto store = PersistentRepository::Init(dir, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value().AddSpecification(NamedSpec("auto")).ok());
  const Specification& spec = store.value().repo().entry(0).spec;
  constexpr int kRecords = 40;
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(store.value()
                    .AddExecution(0, MakeExec(spec, "a" + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(store.value().WaitForCompaction().ok());
  // Rotations happened and at least one background fold installed.
  EXPECT_GT(store.value().wal().active_seq(), 1u);
  EXPECT_GT(store.value().snapshot_lsn(), 0u);
  ASSERT_TRUE(store.value().Sync().ok());

  const std::vector<std::string> expected = Dump(store.value().repo());
  CloseStore(&store);
  auto reopened = PersistentRepository::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Dump(reopened.value().repo()), expected);
  EXPECT_EQ(reopened.value().lsn(), static_cast<uint64_t>(kRecords) + 1);
}

TEST(BackgroundCompactionTest, SnapshotEveryAutoTriggerRunsInBackground) {
  const std::string dir = TestDir("auto_every");
  StoreOptions options;
  options.snapshot_every = 10;
  options.background_compaction = true;
  auto store = PersistentRepository::Init(dir, options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value().AddSpecification(NamedSpec("every")).ok());
  const Specification& spec = store.value().repo().entry(0).spec;
  for (int i = 0; i < 35; ++i) {
    ASSERT_TRUE(store.value()
                    .AddExecution(0, MakeExec(spec, "e" + std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(store.value().WaitForCompaction().ok());
  EXPECT_GT(store.value().snapshot_lsn(), 0u);
  ASSERT_TRUE(store.value().Sync().ok());
  const std::vector<std::string> expected = Dump(store.value().repo());
  CloseStore(&store);
  auto reopened = PersistentRepository::Open(dir, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Dump(reopened.value().repo()), expected);
}

TEST(BackgroundCompactionTest, LegacySingleFileStoreOpensAndCompacts) {
  // A store laid out the pre-segmentation way (one wal.log, no PAWWAL)
  // must open, report its records, and compact under the new code.
  const std::string dir = TestDir("legacy_store");
  std::vector<std::string> expected;
  {
    auto store = PersistentRepository::Init(dir, {});
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store.value().AddSpecification(NamedSpec("legacy")).ok());
    const Specification& spec = store.value().repo().entry(0).spec;
    ASSERT_TRUE(store.value().AddExecution(0, MakeExec(spec, "v")).ok());
    ASSERT_TRUE(store.value().Sync().ok());
    expected = Dump(store.value().repo());
  }
  ASSERT_TRUE(RenameFile(dir + "/" + WalSegmentFileName(1),
                         dir + "/wal.log").ok());
  ASSERT_TRUE(RemoveFileIfExists(dir + "/PAWWAL").ok());

  auto reopened = PersistentRepository::Open(dir, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Dump(reopened.value().repo()), expected);
  EXPECT_EQ(reopened.value().recovery().wal_segments, 1);
  ASSERT_TRUE(reopened.value().Compact().ok());
  CloseStore(&reopened);
  auto again = PersistentRepository::Open(dir, {});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(Dump(again.value().repo()), expected);
}

// ---------------------------------------------------------------------------
// Sharded: concurrent ingest through the writer queues while shards
// compact in the background.
// ---------------------------------------------------------------------------

TEST(ShardedBackgroundCompactionTest, QueuedAppendsFlowWhileWorkersPaused) {
  constexpr int kShards = 2;
  const std::string dir = TestDir("sharded_pause");
  PhaseGate gate;
  StoreOptions options;
  options.writer_threads = kShards;
  options.compaction_hook = gate.Hook();
  auto store = ShardedRepository::Init(dir, kShards, options);
  ASSERT_TRUE(store.ok());

  // One spec per shard, names chosen so crc routing covers them all.
  std::vector<ShardedRepository::SpecRef> refs;
  std::vector<const Specification*> specs;
  for (int shard = 0; shard < kShards; ++shard) {
    int candidate = 0;
    std::string name;
    do {
      name = "pause_spec_" + std::to_string(candidate++);
    } while (ShardedRepository::ShardOf(name, kShards) != shard);
    auto ref = store.value().AddSpecification(NamedSpec(name));
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(ref.value().shard, shard);
    refs.push_back(ref.value());
    specs.push_back(&store.value()
                         .shard(ref.value().shard)
                         .repo()
                         .entry(ref.value().id)
                         .spec);
  }

  // Cut every shard, pausing all snapshot workers at kSnapshot.
  ASSERT_TRUE(store.value().CompactAsync().ok());
  gate.AwaitPaused(kShards);
  EXPECT_TRUE(store.value().compaction_running());

  // Queued appends still drain to completion while every worker is
  // paused mid-compaction: ingest is not hostage to snapshotting.
  std::vector<StoreFuture<ExecutionId>> futures;
  for (int i = 0; i < 20; ++i) {
    const auto& ref = refs[static_cast<size_t>(i) % refs.size()];
    futures.push_back(store.value().AddExecutionAsync(
        ref, MakeExec(*specs[static_cast<size_t>(i) % specs.size()],
                      "d" + std::to_string(i))));
  }
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  gate.Release();
  ASSERT_TRUE(store.value().WaitForCompaction().ok());
  ASSERT_TRUE(store.value().Sync().ok());
  EXPECT_EQ(store.value().num_executions(), 20);

  CloseStore(&store);
  auto reopened = ShardedRepository::Open(dir, {}, kShards);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().num_specs(), kShards);
  EXPECT_EQ(reopened.value().num_executions(), 20);
}

TEST(ShardedBackgroundCompactionTest, ConcurrentIngestAndCompactStress) {
  constexpr int kShards = 4;
  constexpr int kCallers = 4;
  constexpr int kPerCaller = 60;
  const std::string dir = TestDir("sharded_stress");
  StoreOptions options;
  options.writer_threads = kShards;
  std::vector<std::string> expected_per_shard;
  {
    auto store = ShardedRepository::Init(dir, kShards, options);
    ASSERT_TRUE(store.ok());
    std::vector<ShardedRepository::SpecRef> refs;
    std::vector<const Specification*> specs;
    for (int i = 0; i < 8; ++i) {
      auto ref = store.value().AddSpecification(
          NamedSpec("stress_spec_" + std::to_string(i)));
      ASSERT_TRUE(ref.ok());
      refs.push_back(ref.value());
      specs.push_back(&store.value()
                           .shard(ref.value().shard)
                           .repo()
                           .entry(ref.value().id)
                           .spec);
    }
    store.value().Drain();

    // Callers enqueue concurrently; the main thread keeps cutting
    // background compactions into the stream.
    std::atomic<int> failures{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < kCallers; ++t) {
      callers.emplace_back([&, t] {
        for (int i = 0; i < kPerCaller; ++i) {
          const size_t pick =
              static_cast<size_t>(t * kPerCaller + i) % refs.size();
          auto future = store.value().AddExecutionAsync(
              refs[pick],
              MakeExec(*specs[pick],
                       "t" + std::to_string(t) + ":" + std::to_string(i)));
          if (!future.get().ok()) ++failures;
        }
      });
    }
    for (int cut = 0; cut < 8; ++cut) {
      ASSERT_TRUE(store.value().CompactAsync().ok());
      std::this_thread::yield();
    }
    for (auto& caller : callers) caller.join();
    ASSERT_EQ(failures.load(), 0);
    ASSERT_TRUE(store.value().WaitForCompaction().ok());
    ASSERT_TRUE(store.value().Sync().ok());
    EXPECT_EQ(store.value().num_executions(), kCallers * kPerCaller);
    for (int i = 0; i < kShards; ++i) {
      expected_per_shard.push_back(
          Serialize(store.value().shard(i).repo().entry(0).spec));
    }
  }

  // The reopened store holds exactly the acknowledged append set.
  auto reopened = ShardedRepository::Open(dir, options, kShards);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().num_specs(), 8);
  EXPECT_EQ(reopened.value().num_executions(), kCallers * kPerCaller);
  // Background compaction left no replay debt beyond the post-cut
  // suffix; every shard recovers whole.
  for (int i = 0; i < kShards; ++i) {
    EXPECT_FALSE(reopened.value().shard(i).recovery().torn_tail);
  }
  reopened.value().Drain();
}

TEST(ShardedBackgroundCompactionTest, DurableIngestWithBackgroundFolds) {
  // sync_each_append + writer queues + auto background compaction:
  // every acked append survives reopen even with folds racing the
  // group-committed batches.
  constexpr int kShards = 2;
  const std::string dir = TestDir("sharded_durable");
  StoreOptions options;
  options.writer_threads = kShards;
  options.sync_each_append = true;
  options.segment_bytes = 2048;
  options.background_compaction = true;
  {
    auto store = ShardedRepository::Init(dir, kShards, options);
    ASSERT_TRUE(store.ok());
    auto ref = store.value().AddSpecification(NamedSpec("durable"));
    ASSERT_TRUE(ref.ok());
    const Specification& spec = store.value()
                                    .shard(ref.value().shard)
                                    .repo()
                                    .entry(ref.value().id)
                                    .spec;
    std::vector<StoreFuture<ExecutionId>> futures;
    for (int i = 0; i < 50; ++i) {
      futures.push_back(store.value().AddExecutionAsync(
          ref.value(), MakeExec(spec, "dur" + std::to_string(i))));
    }
    for (auto& f : futures) {
      auto r = f.get();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    ASSERT_TRUE(store.value().WaitForCompaction().ok());
  }
  auto reopened = ShardedRepository::Open(dir, options, kShards);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value().num_executions(), 50);
  reopened.value().Drain();
}

}  // namespace
}  // namespace paw
