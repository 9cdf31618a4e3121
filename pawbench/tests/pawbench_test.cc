// Determinism tests for the benchmark's generator and replay:
//  - one seed gives one corpus, preload order and op stream; another
//    seed changes them;
//  - the single-threaded replay's counters repeat exactly for a seed.
//
// Build and run: cmake --build .bench_build/pawbench --target pawbench_test
//                && .bench_build/pawbench/pawbench_test

#include <cstdio>
#include <cstdlib>

#include "pawbench/src/bench.h"

namespace {

using namespace pawbench;

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

uint64_t StreamHash(const Corpus& corpus, Workload workload, uint64_t seed) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const WorkloadShape shape = ShapeOf(workload);
  for (int r = 0; r < shape.readers; ++r) {
    OpStream stream(corpus, workload, seed, r, OpStream::Role::kMix);
    for (int i = 0; i < 2000; ++i) h = HashOp(stream.Next(), h);
  }
  for (int w = 0; w < shape.writers; ++w) {
    OpStream stream(corpus, workload, seed, w, OpStream::Role::kWrite);
    for (int i = 0; i < 2000; ++i) h = HashOp(stream.Next(), h);
  }
  return h;
}

Corpus MustCorpus(uint64_t seed) {
  auto corpus = MakeCorpus(seed);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(corpus).value();
}

void GeneratorIsDeterministic() {
  const Corpus a = MustCorpus(7), b = MustCorpus(7), c = MustCorpus(8);
  Expect(a.preload_order == b.preload_order, "same seed, same preload order");
  Expect(a.execs == b.execs, "same seed, same execution texts");
  Expect(a.preload_order != c.preload_order,
         "other seed, other preload order");
  Expect(a.spec_texts == c.spec_texts, "tenant catalog is seed-independent");
  for (Workload w : {Workload::kTenantsZipf, Workload::kTenantsUniform,
                     Workload::kIngestMixed, Workload::kReplicatedIngest}) {
    const std::string name = WorkloadName(w);
    Expect(StreamHash(a, w, 7) == StreamHash(b, w, 7),
           (name + ": same seed, same op stream").c_str());
    Expect(StreamHash(a, w, 7) != StreamHash(a, w, 8),
           (name + ": other seed, other op stream").c_str());
  }
}

void ReplayCountsRepeat() {
  const Corpus corpus = MustCorpus(11);
  for (Workload w : {Workload::kTenantsZipf, Workload::kIngestMixed}) {
    auto first = RunReplay(corpus, w, 11, 60);
    auto second = RunReplay(corpus, w, 11, 60);
    const std::string name = WorkloadName(w);
    if (!first.ok() || !second.ok()) {
      Expect(false, (name + ": replay runs").c_str());
      continue;
    }
    const ReplayCounts& c = first.value().counts;
    std::printf("%s counts: views=%llu zoom=%llu cones=%llu rc=%llu/%llu "
                "vc=%llu/%llu\n",
                name.c_str(), (unsigned long long)c.view_computations,
                (unsigned long long)c.zoom_out_steps,
                (unsigned long long)c.lineage_cones,
                (unsigned long long)c.result_cache_hits,
                (unsigned long long)c.result_cache_misses,
                (unsigned long long)c.view_cache_hits,
                (unsigned long long)c.view_cache_misses);
    Expect(first.value().counts == second.value().counts,
           (name + ": replay counts repeat exactly").c_str());
    Expect(c.lineage_cones > 0 && c.view_cache_misses > 0,
           (name + ": replay exercises the privacy layer").c_str());
  }
}

}  // namespace

int main() {
  GeneratorIsDeterministic();
  ReplayCountsRepeat();
  std::printf("%s\n", failures == 0 ? "ALL PASS" : "FAILURES");
  return failures == 0 ? 0 : 1;
}
