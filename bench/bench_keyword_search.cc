// E4: keyword search latency — full scan vs inverted-index pruning, as
// the repository grows (paper Sec. 4, "efficient search with privacy
// guarantees").
//
// Two spec shapes: small depth-2 specs, whose prefix lattices are tiny, and
// pawbench's tenant shape (depth 3, 5 modules per workflow,
// composite_prob 0.4, 40 keywords), whose lattices reach thousands of
// prefixes and often exceed the enumeration cap. Sizing such a lattice
// before enumerating it is what keeps the tenant rows in milliseconds.
//
// Expected shape: index latency grows much more slowly than scan latency
// with repository size; both return identical answers.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "src/common/random.h"
#include "src/common/timer.h"
#include "src/query/keyword_search.h"
#include "src/repo/workload.h"

namespace {

using namespace paw;

WorkloadParams SmallShape() {
  WorkloadParams params;
  params.depth = 2;
  params.modules_per_workflow = 5;
  return params;
}

WorkloadParams TenantShape() {
  WorkloadParams params;
  params.depth = 3;
  params.modules_per_workflow = 5;
  params.composite_prob = 0.4;
  params.vocabulary = 40;
  return params;
}

std::unique_ptr<Repository> BuildRepo(int num_specs,
                                      const WorkloadParams& params) {
  auto repo = std::make_unique<Repository>();
  Rng rng(2026);
  for (int i = 0; i < num_specs; ++i) {
    auto spec = GenerateSpec(params, &rng, "spec" + std::to_string(i));
    if (spec.ok()) {
      (void)repo->AddSpecification(std::move(spec).value());
    }
  }
  return repo;
}

std::unique_ptr<Repository> BuildRepo(int num_specs) {
  return BuildRepo(num_specs, SmallShape());
}

void TableE4() {
  std::printf(
      "=== E4: keyword search, scan vs inverted index ===\n"
      "%-8s %-8s %-12s %-12s %-9s %-10s\n",
      "shape", "specs", "scan(ms)", "index(ms)", "speedup", "answers");
  struct Row {
    const char* shape;
    WorkloadParams params;
    int num_specs;
  };
  std::vector<Row> rows;
  for (int n : {10, 50, 100, 500}) rows.push_back({"depth2", SmallShape(), n});
  for (int n : {10, 50, 100}) rows.push_back({"tenant", TenantShape(), n});
  Rng qrng(7);
  for (const Row& row : rows) {
    auto repo = BuildRepo(row.num_specs, row.params);
    InvertedIndex index;
    index.Build(*repo);
    TfIdfScorer scorer;
    scorer.Build(index);

    // A mix of 10 three-term queries (selective enough that candidate
    // pruning matters).
    std::vector<std::vector<std::string>> queries;
    for (int q = 0; q < 10; ++q) {
      queries.push_back(GenerateQuery(row.params, &qrng, 3));
    }
    KeywordSearchOptions scan_opts;
    scan_opts.use_index = false;
    KeywordSearchOptions index_opts;

    Timer scan_timer;
    size_t scan_answers = 0;
    for (const auto& q : queries) {
      auto a = KeywordSearch(*repo, nullptr, &scorer, q, 1, scan_opts);
      if (a.ok()) scan_answers += a.value().size();
    }
    double scan_ms = scan_timer.ElapsedMillis();

    Timer index_timer;
    size_t index_answers = 0;
    for (const auto& q : queries) {
      auto a = KeywordSearch(*repo, &index, &scorer, q, 1, index_opts);
      if (a.ok()) index_answers += a.value().size();
    }
    double index_ms = index_timer.ElapsedMillis();

    std::printf("%-8s %-8d %-12.2f %-12.2f %-9.1f %zu/%zu\n", row.shape,
                row.num_specs, scan_ms, index_ms,
                index_ms > 0 ? scan_ms / index_ms : 0.0, index_answers,
                scan_answers);
  }
  std::printf("\n");
}

void BM_SearchScan(benchmark::State& state) {
  auto repo = BuildRepo(static_cast<int>(state.range(0)));
  TfIdfScorer scorer;
  KeywordSearchOptions opts;
  opts.use_index = false;
  for (auto _ : state) {
    auto a = KeywordSearch(*repo, nullptr, &scorer, {"kw0", "kw1"}, 1,
                           opts);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_SearchScan)->Arg(10)->Arg(100);

void BM_SearchIndexed(benchmark::State& state) {
  auto repo = BuildRepo(static_cast<int>(state.range(0)));
  auto index = std::make_unique<InvertedIndex>();
  index->Build(*repo);
  TfIdfScorer scorer;
  scorer.Build(*index);
  for (auto _ : state) {
    auto a = KeywordSearch(*repo, index.get(), &scorer, {"kw0", "kw1"},
                           1, {});
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_SearchIndexed)->Arg(10)->Arg(100)->Arg(500);

void BM_SearchIndexedTenantShape(benchmark::State& state) {
  auto repo = BuildRepo(static_cast<int>(state.range(0)), TenantShape());
  auto index = std::make_unique<InvertedIndex>();
  index->Build(*repo);
  TfIdfScorer scorer;
  scorer.Build(*index);
  for (auto _ : state) {
    auto a = KeywordSearch(*repo, index.get(), &scorer, {"kw0", "kw1"},
                           3, {});
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_SearchIndexedTenantShape)->Arg(24)->Arg(100);

void BM_IndexBuild(benchmark::State& state) {
  auto repo = BuildRepo(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    InvertedIndex index;
    index.Build(*repo);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_IndexBuild)->Arg(100);

}  // namespace

int main(int argc, char** argv) {
  TableE4();
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
