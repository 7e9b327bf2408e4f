// The store's byte budget against the heap the store holds.
//
// This file replaces the global operator new and delete for the whole
// cache_tests binary with a counting pair: each block carries its
// requested size in a header, so the bytes requested and not yet freed
// are one counter, exact, and independent of malloc's own rounding.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cache/solution_store.h"
#include "partition/engine.h"
#include "randgen/generator.h"

namespace {

std::atomic<std::int64_t> gLiveBytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted(std::size_t n) {
  void* p = std::malloc(n + kHeader);
  if (p == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(p) = n;
  gLiveBytes.fetch_add(static_cast<std::int64_t>(n),
                       std::memory_order_relaxed);
  return static_cast<char*>(p) + kHeader;
}

void released(void* p) noexcept {
  if (p == nullptr) return;
  char* base = static_cast<char*>(p) - kHeader;
  gLiveBytes.fetch_sub(
      static_cast<std::int64_t>(*reinterpret_cast<std::size_t*>(base)),
      std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

// Every unaligned form: a sanitizer runtime defines each one itself
// instead of through operator new(size_t), so all of them must count.
void* operator new(std::size_t n) { return counted(n); }
void* operator new[](std::size_t n) { return counted(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { released(p); }
void operator delete[](void* p) noexcept { released(p); }
void operator delete(void* p, std::size_t) noexcept { released(p); }
void operator delete[](void* p, std::size_t) noexcept { released(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  released(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  released(p);
}

namespace eblocks::cache {
namespace {

TEST(SolutionStoreBudget, HeapGrowthMatchesTheChargeWithinTenPercent) {
  // 5,000 PareDown records of random 6-inner designs into an in-memory
  // store: the heap the inserts leave behind must stay within 10% of what
  // the store charges to maxBytes.  The designs, their runs and their
  // structure hashes come first, so the catalog types they use and those
  // types' parsed programs exist before the measured window opens.
  constexpr std::uint32_t kRecords = 5000;
  std::vector<Network> nets;
  std::vector<partition::PartitionRun> runs;
  nets.reserve(kRecords);
  runs.reserve(kRecords);
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    randgen::GeneratorOptions gen;
    gen.innerBlocks = 6;
    gen.seed = 1000 + i;
    nets.push_back(randgen::randomNetwork(gen));
    const partition::PartitionProblem problem(nets.back(), {});
    runs.push_back(partition::runPartitioner("paredown", problem));
    (void)structureHash(nets.back());
  }

  SolutionStore store{StoreOptions{}};
  const std::int64_t heap0 = gLiveBytes.load();
  for (std::size_t i = 0; i < nets.size(); ++i)
    store.insert(nets[i], "paredown", {}, {}, runs[i]);
  const double heap = static_cast<double>(gLiveBytes.load() - heap0);
  const double charged = static_cast<double>(store.totalBytes());
  EXPECT_GE(store.recordCount(), 4900u);
  EXPECT_NEAR(heap / charged, 1.0, 0.1)
      << heap << " B requested against " << charged << " B charged";
}

}  // namespace
}  // namespace eblocks::cache
