#ifndef CXML_BENCH_BENCH_UTIL_H_
#define CXML_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <tuple>

#include "workload/generator.h"

namespace cxml::bench {

/// Cache of generated corpora keyed by (content size, extra hierarchies,
/// annotation density*10): benchmark iterations must not pay generation
/// cost, and repeated registrations must reuse the same corpus.
inline const workload::SyntheticCorpus& GetCorpus(size_t content_chars,
                                                  size_t extra_hierarchies,
                                                  double density = 4.0) {
  using Key = std::tuple<size_t, size_t, int>;
  static auto* cache =
      new std::map<Key, std::unique_ptr<workload::SyntheticCorpus>>();
  Key key{content_chars, extra_hierarchies,
          static_cast<int>(density * 10)};
  auto it = cache->find(key);
  if (it == cache->end()) {
    workload::GeneratorParams params;
    params.content_chars = content_chars;
    params.extra_hierarchies = extra_hierarchies;
    params.annotation_density = density;
    auto corpus = workload::GenerateManuscript(params);
    if (!corpus.ok()) {
      std::fprintf(stderr, "corpus generation failed: %s\n",
                   corpus.status().ToString().c_str());
      std::abort();
    }
    it = cache
             ->emplace(key, std::make_unique<workload::SyntheticCorpus>(
                                std::move(corpus).value()))
             .first;
  }
  return *it->second;
}

}  // namespace cxml::bench

#endif  // CXML_BENCH_BENCH_UTIL_H_
